"""The command line with every module a verb runs loaded.

`canimm.command` holds the command line and imports each library module
only when a verb runs it.  Importing this module instead loads every
module a verb can run up front, the four construction families through
their index `constructions`: the benchmark runs `main` and
`modulus_catalog` from here, and its tracer wraps the entry points it
finds in `sys.modules`.  Only `__main__` and the glue of each verb,
`canimm.builds` or `canimm.checks`, stay unloaded until that verb runs;
the glue reads each library function off its module at call time, so
the tracer's wrappers see the call.
"""

import sys

from . import checkers, constructions, machine, mathias, numberings, programs, records, schnorr  # noqa: F401
from .command import main, modulus_catalog

__all__ = ["main", "modulus_catalog"]

if __name__ == "__main__":
    sys.exit(main())
