"""Replay the checked-in regression corpus through the differential oracle.

Every entry under ``tests/corpus/*.json`` — the paper's benchmark
queries, the end-to-end query lists, and every minimized fuzz finding —
is executed through every route of
:data:`~repro.testing.oracle.ROUTE_NAMES` and must agree.
:class:`~repro.testing.corpus.CorpusReplay` keeps one runner per
distinct corpus document, so its page file and shards are written once,
not once per entry.
"""

from pathlib import Path

import pytest

from repro import parse_document
from repro.testing.corpus import CorpusReplay, load_corpus

from .conftest import assert_engines_agree

CORPUS_DIR = Path(__file__).parent / "corpus"

ENTRIES = [
    pytest.param(entry, id=f"{path.stem}:{entry.name}")
    for path, entry in load_corpus(CORPUS_DIR)
]


def test_corpus_is_not_empty():
    assert len(ENTRIES) >= 150, (
        "the corpus must hold the paper figures, the end-to-end query "
        "lists, and the fuzz regressions; seed it before trimming"
    )


@pytest.fixture(scope="module")
def replay():
    with CorpusReplay() as replay:
        yield replay


@pytest.mark.parametrize("entry", ENTRIES)
def test_corpus_entry(entry, replay):
    divergences = replay.check(entry)
    assert not divergences, "\n".join(
        divergence.describe() for divergence in divergences
    )


class TestNodeSetVsBooleanComparisons:
    """Targeted tests for the first fuzz-found bug (translate.py).

    XPath 1.0 section 3.4: when one operand is a node-set and the other a
    boolean, the node-set is converted with ``boolean()`` for *every*
    comparison operator — the algebraic translation used to special-case
    only ``=``/``!=`` and run an (incorrect) existential numeric scan for
    the relational operators.
    """

    DOC = parse_document("<r><c>1</c><c>x</c></r>")

    @pytest.mark.parametrize(
        "query, expected",
        [
            # boolean(//c) is true; boolean(//nosuch) is false.
            ("true() >= //c", True),    # 1 >= 1
            ("true() > //c", False),    # 1 > 1
            ("true() >= //nosuch", True),   # 1 >= 0
            ("true() > //nosuch", True),    # 1 > 0
            ("false() >= //nosuch", True),  # 0 >= 0
            ("false() < //c", True),        # 0 < 1
            ("//c >= false()", True),       # 1 >= 0
            ("//c < true()", False),        # 1 < 1
            ("//nosuch <= false()", True),  # 0 <= 0
            ("//nosuch < true()", True),    # 0 < 1
        ],
    )
    def test_spec_value(self, engines, query, expected):
        result = assert_engines_agree(engines, query, self.DOC.root)
        assert result is expected
