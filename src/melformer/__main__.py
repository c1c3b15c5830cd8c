"""``python -m melformer``: the same command line as the ``melformer`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
