"""The performance ledger: one benchmark for the whole system.

Seven named workloads, each stressing a different ``src/repro`` layer,
one set of end-to-end metrics with regression bounds, and per-layer
attribution measured from outside (spans around public calls plus the
counters the layers already publish).  ``README.md`` in this directory
is the reference; ``BENCHMARK.json`` at the repository root declares
the contract the driver checks.

Run one workload the way the driver does::

    python3 benchmarks/ledger/run.py --workload paper_inmem --seed 0 \\
        --seconds 8 --trace 0

or the whole ledger (every workload untraced, then a traced pass)::

    PYTHONPATH=src python -m benchmarks.ledger --seed 0
"""
