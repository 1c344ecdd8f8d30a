"""``python -m entrain``: the ``entrain`` command line without an install."""

import sys

from .cli import main

__all__: list[str] = []  # a script; it exports nothing

if __name__ == "__main__":
    sys.exit(main())
