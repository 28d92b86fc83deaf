"""`python -m maxhom <homogenize|simulate|sweep> --config <file> ...`: the maxhom CLI."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
