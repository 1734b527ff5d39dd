"""`python -m cubicode ARGS` runs the command-line interface, as `cubicode ARGS` does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
