"""``python -m biphase1d``: the command-line entry point."""

import sys

from .cli import main

sys.exit(main())
