"""`python -m evflow`: the command line the `evflow` script starts."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
