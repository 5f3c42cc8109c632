"""``python -m dro``: the command-line interface of :mod:`dro.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
