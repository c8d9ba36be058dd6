"""The command line with the whole library loaded.

`canimm.command` holds the command line and imports each library module
only when a verb runs it.  Importing this module instead loads every
module up front: the benchmark's tracer imports `canimm.cli` and then
wraps the entry points it finds in `sys.modules`.
"""

import sys

from . import checkers, constructions, machine, mathias, numberings, programs, records, schnorr  # noqa: F401
from .command import BUILDS, CHECKS, TRACE_SIZE_FLAGS, build_parser, default_functions, main, modulus_catalog

__all__ = ["BUILDS", "CHECKS", "TRACE_SIZE_FLAGS", "build_parser", "default_functions", "main", "modulus_catalog"]

if __name__ == "__main__":
    sys.exit(main())
