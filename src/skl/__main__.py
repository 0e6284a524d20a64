"""``python -m skl``: the same command line as the installed ``skl`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
