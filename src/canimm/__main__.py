import sys

from .command import main

sys.exit(main())
