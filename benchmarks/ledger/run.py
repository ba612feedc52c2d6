"""Script entry point: ``python3 benchmarks/ledger/run.py ...``.

This is the command ``BENCHMARK.json`` names.  It makes the repository
root and ``src/`` importable — the driver runs it from a plain checkout
with no ``PYTHONPATH`` — and hands over to :mod:`benchmarks.ledger.cli`.
In a directory that holds only the benchmark (no ``src/``) there is
nothing to measure: the command says so and exits non-zero without a
result.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no program to measure: {_ROOT / 'src' / 'repro'} "
             "is missing")
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
