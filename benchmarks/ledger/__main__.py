"""``PYTHONPATH=src python -m benchmarks.ledger`` (see cli.py)."""

import sys

from benchmarks.ledger.cli import main

sys.exit(main())
