"""``python -m defectline``: the same entry point as the ``defectline`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
