"""Standalone entry point: ``python -m repro.server``.

Examples::

    python -m repro.server --store catalog=catalog.natix
    python -m repro.server --document books=books.xml --port 8080
    python -m repro.server --collection corpus=corpus.coll \\
        --default-target corpus --page-size 128
    python -m repro.server --version

Targets are ``NAME=PATH`` pairs (a bare ``PATH`` takes its stem as the
name); at least one is required.  The process serves until SIGINT /
SIGTERM, then drains gracefully under ``--drain-grace``.

Exit codes follow the package convention (see ``docs/api.md``): 0 on a
clean shutdown, 1 when a target fails to open or the server cannot
start, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import List, Optional, Tuple

from repro import __version__, open_collection, open_store, parse_document
from repro.engine.options import (
    CODEGEN_MODES,
    DEFAULT_CODEGEN,
    INDEX_MODES,
    OPTIMIZER_MODES,
)
from repro.engine.session import XPathEngine
from repro.errors import ReproError
from repro.server.server import ServerConfig, XPathServer


def _parse_target(spec: str) -> Tuple[str, str]:
    """``NAME=PATH`` (or bare ``PATH`` — the stem names it)."""
    name, sep, path = spec.partition("=")
    if sep:
        if not name:
            raise argparse.ArgumentTypeError(
                f"empty target name in {spec!r}"
            )
        return name, path
    return Path(spec).stem, spec


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Streaming HTTP/JSON front end over the XPath engine",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "--store", action="append", default=[], metavar="NAME=PATH",
        type=_parse_target,
        help="serve a stored document (page file); repeatable",
    )
    parser.add_argument(
        "--document", action="append", default=[], metavar="NAME=PATH",
        type=_parse_target,
        help="parse an XML file and serve it in memory; repeatable",
    )
    parser.add_argument(
        "--collection", action="append", default=[],
        metavar="NAME=DIR", type=_parse_target,
        help="serve a sharded collection directory; repeatable",
    )
    parser.add_argument(
        "--default-target", metavar="NAME",
        help="target for requests that name none (implied when only "
             "one target is configured)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8040,
        help="listen port (default: 8040; 0 lets the kernel pick)",
    )
    parser.add_argument(
        "--page-size", type=int, default=None, metavar="N",
        help="default result items per page frame",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="evaluation threads (default: engine default)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="per-client admission quota",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="server-wide executor queue bound",
    )
    parser.add_argument(
        "--default-timeout", type=float, default=None, metavar="SECONDS",
        help="deadline applied to requests that bring none "
             "(default: 30; 0 disables)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=None, metavar="SECONDS",
        help="graceful-shutdown drain budget (default: 10)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="reap keep-alive connections idle this long "
             "(default: 60; 0 disables)",
    )
    parser.add_argument(
        "--index", choices=INDEX_MODES, default="auto",
        help="engine index-routing mode (default: auto)",
    )
    parser.add_argument(
        "--codegen", choices=CODEGEN_MODES, default=DEFAULT_CODEGEN,
        help="engine codegen mode for mode=full requests; 'auto' runs a "
             "plan as generated Python from its second execution on "
             f"(default: {DEFAULT_CODEGEN})",
    )
    parser.add_argument(
        "--optimizer", choices=OPTIMIZER_MODES, default="heuristic",
        help="engine plan-choice mode (default: heuristic)",
    )
    arguments = parser.parse_args(argv)

    specs = arguments.store + arguments.document + arguments.collection
    if not specs:
        parser.error(
            "at least one --store/--document/--collection target is "
            "required"
        )
    names = [name for name, _path in specs]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        parser.error(f"duplicate target name(s): {sorted(duplicates)}")
    if arguments.default_target and (
        arguments.default_target not in names
    ):
        parser.error(
            f"--default-target {arguments.default_target!r} is not "
            "among the configured targets"
        )

    config_fields = {}
    if arguments.page_size is not None:
        config_fields["page_size"] = arguments.page_size
    if arguments.workers is not None:
        config_fields["workers"] = arguments.workers
    if arguments.max_inflight is not None:
        config_fields["max_inflight"] = arguments.max_inflight
    if arguments.queue_depth is not None:
        config_fields["queue_depth"] = arguments.queue_depth
    if arguments.default_timeout is not None:
        config_fields["default_timeout"] = (
            arguments.default_timeout or None
        )
    if arguments.drain_grace is not None:
        config_fields["drain_grace"] = arguments.drain_grace
    if arguments.idle_timeout is not None:
        config_fields["idle_timeout"] = arguments.idle_timeout or None

    try:
        config = ServerConfig(
            host=arguments.host, port=arguments.port, **config_fields
        )
    except ValueError as error:
        parser.error(str(error))

    try:
        with ExitStack() as stack:
            targets = {}
            for name, path in arguments.store:
                targets[name] = stack.enter_context(open_store(path))
            for name, path in arguments.document:
                with open(path, "r", encoding="utf-8") as handle:
                    targets[name] = parse_document(handle.read())
            for name, path in arguments.collection:
                targets[name] = stack.enter_context(
                    open_collection(path, index=arguments.index,
                                    optimizer=arguments.optimizer)
                )
            engine = XPathEngine(
                index=arguments.index,
                codegen=arguments.codegen,
                optimizer=arguments.optimizer,
            )
            server = XPathServer(
                targets, engine=engine, config=config,
                default_target=arguments.default_target,
            )
            return asyncio.run(_serve(server))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:  # bind failure, unreadable target file
        print(f"error: {error}", file=sys.stderr)
        return 1


async def _serve(server: XPathServer) -> int:
    await server.start()
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stopping.set)
        except NotImplementedError:  # non-Unix event loops
            pass
    print(
        f"serving {sorted(server.targets)} on "
        f"http://{server.config.host}:{server.port} "
        f"(pid {os.getpid()})",
        file=sys.stderr,
    )
    serve_task = asyncio.ensure_future(server.serve_forever())
    await stopping.wait()
    print("draining...", file=sys.stderr)
    await server.shutdown()
    serve_task.cancel()
    try:
        await serve_task
    except asyncio.CancelledError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
