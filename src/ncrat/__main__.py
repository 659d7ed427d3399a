"""`python -m ncrat`: the command-line front end, as the `ncrat` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
