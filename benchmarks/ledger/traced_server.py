"""``python -m repro.server`` with the server-side spans recorded.

Started by :class:`benchmarks.ledger.serving.ServerProcess` for traced
runs: ``python -m benchmarks.ledger.traced_server DUMP [server args]``.
It wraps the traced public calls (:func:`benchmarks.ledger.layers.
install`), runs the unmodified server entry point, and on the way out —
after SIGTERM drained the server — writes the spans to ``DUMP``.
"""

from __future__ import annotations

import sys

from benchmarks.ledger import layers
from benchmarks.ledger.trace import Tracer


def main(argv) -> int:
    from repro.server.__main__ import main as server_main

    dump, server_args = argv[0], argv[1:]
    tracer = Tracer()
    layers.install(tracer)
    try:
        return server_main(server_args)
    finally:
        tracer.uninstall()
        tracer.dump(dump)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
