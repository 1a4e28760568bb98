"""numpy, imported when a name is first read from this module (PEP 562).

The package imports it as ``from . import _numpy as np``, so ``import sqzkd``,
the CLI's parser, ``--help``, ``fig2`` and ``fig3`` load no numpy; ε > 0
solves, the matrix kernel, ``emulate`` and ``validate`` do.  A name read once
is kept as a global here, so later reads are plain attribute lookups.  The
package's emulator exports also load on first use, through ``sqzkd.__getattr__``.
"""


def __getattr__(name: str):
    import numpy
    return globals().setdefault(name, getattr(numpy, name))
