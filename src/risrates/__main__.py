"""`python -m risrates`: the same command line as the `risrates` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
