"""``python -m repro`` — the ``repro`` command (see :mod:`repro.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
