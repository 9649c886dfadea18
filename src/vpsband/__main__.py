"""``python -m vpsband``: the same command line as the ``vpsband`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
