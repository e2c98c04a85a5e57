"""``python -m conestab`` runs the command-line interface."""

import sys

from conestab.cli import main

if __name__ == "__main__":
    sys.exit(main())
