"""Fuzzer command line.

Examples::

    # the CI smoke configuration
    python -m repro.testing fuzz --seed 0 --n 500

    # hunt with shrinking, saving minimized repros to the corpus
    python -m repro.testing fuzz --seed 7 --n 2000 --shrink \\
        --save-corpus tests/corpus/regressions.json

    # replay the entire checked-in regression corpus
    python -m repro.testing replay --corpus-dir tests/corpus

    # inspect what the generator produces
    python -m repro.testing gen --seed 0 --n 20

Exit status is non-zero when any divergence (fuzz) or corpus
disagreement (replay) was found.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import List, Optional

from repro.testing.corpus import (
    DEFAULT_CORPUS_DIR,
    CorpusReplay,
    load_corpus,
)
from repro.testing.fuzzer import run_campaign
from repro.testing.grammar import GrammarConfig, QueryGenerator
from repro.testing.oracle import ROUTE_NAMES


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description=(
            "Grammar-directed XPath fuzzer with a differential oracle"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fuzz = commands.add_parser(
        "fuzz", help="run a differential fuzz campaign"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--n", type=int, default=500,
                      help="number of queries (default: 500)")
    fuzz.add_argument(
        "--shrink", action="store_true",
        help="minimize every finding with the delta-debugging shrinker",
    )
    fuzz.add_argument(
        "--queries-per-doc", type=int, default=25, metavar="K",
        help="queries executed against each random document",
    )
    fuzz.add_argument(
        "--save-corpus", metavar="FILE",
        help="append minimized reproducers to this corpus JSON file",
    )
    fuzz.add_argument(
        "--no-report", action="store_true",
        help="skip the grammar/algebra coverage report",
    )
    fuzz.add_argument(
        "--routes", metavar="NAMES",
        help="comma-separated subset of oracle routes to run "
             f"(default: all of {', '.join(ROUTE_NAMES)}; the naive "
             "baseline is always included)",
    )
    fuzz.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="govern the algebraic routes with a per-query deadline; "
             "a governed route must match the ungoverned baseline or "
             "raise exactly a governance error",
    )
    fuzz.add_argument(
        "--max-tuples", type=int, metavar="N",
        help="govern the algebraic routes with a per-query tuple budget",
    )
    fuzz.add_argument(
        "--max-bytes", type=int, metavar="N",
        help="govern the algebraic routes with a per-query "
             "materialization-byte budget",
    )

    replay = commands.add_parser(
        "replay", help="replay the regression corpus through the oracle"
    )
    replay.add_argument(
        "--corpus-dir", default=str(DEFAULT_CORPUS_DIR), metavar="DIR",
    )

    gen = commands.add_parser(
        "gen", help="print sample generated queries (debugging aid)"
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, default=20)

    arguments = parser.parse_args(argv)
    if arguments.command == "fuzz":
        return _cmd_fuzz(arguments)
    if arguments.command == "replay":
        return _cmd_replay(arguments)
    return _cmd_gen(arguments)


def _cmd_fuzz(arguments) -> int:
    corpus_path = (
        Path(arguments.save_corpus) if arguments.save_corpus else None
    )
    routes = None
    if arguments.routes:
        routes = [
            name.strip()
            for name in arguments.routes.split(",")
            if name.strip()
        ]
    governance = {}
    if arguments.timeout is not None:
        governance["timeout"] = arguments.timeout
    if arguments.max_tuples is not None:
        governance["max_tuples"] = arguments.max_tuples
    if arguments.max_bytes is not None:
        governance["max_bytes"] = arguments.max_bytes
    report = run_campaign(
        seed=arguments.seed,
        n=arguments.n,
        shrink=arguments.shrink,
        queries_per_doc=arguments.queries_per_doc,
        corpus_path=corpus_path,
        progress=lambda message: print(message, file=sys.stderr),
        routes=routes,
        governance=governance or None,
    )
    print(report.summary())
    if not arguments.no_report:
        print(report.coverage.render())
    if report.findings:
        print(f"\n{len(report.findings)} divergence(s):")
        for index, finding in enumerate(report.findings, 1):
            print(f"--- finding {index} ---")
            print(finding.divergence.describe())
            if finding.shrunk_query is not None:
                print(f"  shrunk query: {finding.shrunk_query}")
                print(f"  shrunk document: {finding.shrunk_document_xml}")
        return 1
    print("no divergences.")
    return 0


def _cmd_replay(arguments) -> int:
    entries = list(load_corpus(Path(arguments.corpus_dir)))
    if not entries:
        print(f"no corpus entries under {arguments.corpus_dir}")
        return 1
    failures = 0
    with CorpusReplay() as replay:
        for path, entry in entries:
            divergences = replay.check(entry)
            if divergences:
                failures += 1
                print(f"FAIL {path.name}::{entry.name}")
                for divergence in divergences:
                    print("  " + divergence.describe().replace("\n", "\n  "))
    print(
        f"replayed {len(entries)} corpus entries from "
        f"{arguments.corpus_dir}: {failures} failure(s)"
    )
    return 1 if failures else 0


def _cmd_gen(arguments) -> int:
    generator = QueryGenerator(
        random.Random(arguments.seed), GrammarConfig()
    )
    for query in generator.queries(arguments.n):
        print(query)
    return 0


if __name__ == "__main__":
    sys.exit(main())
