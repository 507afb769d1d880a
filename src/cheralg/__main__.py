"""``python -m cheralg``: the same commands as the ``cheralg`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
