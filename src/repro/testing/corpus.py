"""The persistent regression corpus.

Every divergence the fuzzer ever found — plus the paper's benchmark
queries and the hand-written conformance workloads — lives in
``tests/corpus/*.json`` and is replayed through every route of the
differential oracle (:class:`CorpusReplay`, driven by
``tests/test_corpus_regressions.py`` and ``python -m repro.testing
replay``) forever after.

A corpus file is a JSON object::

    {
      "description": "...",
      "entries": [
        {
          "name": "unique-name",
          "query": "//a[last()]",
          "document": {"kind": "xml", "xml": "<xdoc>...</xdoc>"},
          "variables": {"num": 2},          # optional
          "namespaces": {"p": "urn:..."},   # optional
          "source": "fuzz seed=0 n=500",    # optional provenance
          "notes": "what went wrong"        # optional
        }
      ]
    }

``document.kind`` selects a builder: ``xml`` (inline markup), or the
deterministic workload generators ``generated`` (the paper's section
6.2.1 generator; args ``max_elements``/``fanout``/``depth``) and
``dblp`` (args ``publications``/``seed``).  Builder-based entries keep
the checked-in corpus small while still covering the paper's documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.dom.document import Document
from repro.dom.parser import parse as parse_xml
from repro.testing.oracle import DifferentialRunner, Divergence

#: Default corpus location, relative to the repository root.
DEFAULT_CORPUS_DIR = Path("tests") / "corpus"

#: The corpus file new fuzz findings are appended to.
REGRESSIONS_FILE = "regressions.json"


@dataclass
class CorpusEntry:
    """One replayable reproducer."""

    name: str
    query: str
    document: Mapping[str, object]
    variables: Dict[str, object] = field(default_factory=dict)
    namespaces: Dict[str, str] = field(default_factory=dict)
    source: str = ""
    notes: str = ""

    def build_document(self) -> Document:
        return build_document(self.document)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "query": self.query,
            "document": dict(self.document),
        }
        if self.variables:
            data["variables"] = dict(self.variables)
        if self.namespaces:
            data["namespaces"] = dict(self.namespaces)
        if self.source:
            data["source"] = self.source
        if self.notes:
            data["notes"] = self.notes
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CorpusEntry":
        return cls(
            name=str(data["name"]),
            query=str(data["query"]),
            document=dict(data["document"]),  # type: ignore[arg-type]
            variables=dict(data.get("variables", {})),  # type: ignore[arg-type]
            namespaces=dict(data.get("namespaces", {})),  # type: ignore[arg-type]
            source=str(data.get("source", "")),
            notes=str(data.get("notes", "")),
        )


def build_document(spec: Mapping[str, object]) -> Document:
    """Materialize a corpus document spec."""
    kind = spec.get("kind", "xml")
    if kind == "xml":
        return parse_xml(str(spec["xml"]))
    if kind == "generated":
        from repro.workloads.docgen import generate_document

        return generate_document(
            int(spec.get("max_elements", 120)),
            int(spec.get("fanout", 4)),
            int(spec.get("depth", 3)),
        )
    if kind == "dblp":
        from repro.workloads.dblp import generate_dblp

        kwargs = {}
        if "seed" in spec:
            kwargs["seed"] = int(spec["seed"])
        return generate_dblp(int(spec.get("publications", 120)), **kwargs)
    raise ValueError(f"unknown corpus document kind {kind!r}")


def document_cache_key(spec: Mapping[str, object]) -> Tuple:
    """Hashable identity of a document spec (for runner reuse)."""
    return tuple(sorted((k, str(v)) for k, v in spec.items()))


class CorpusReplay:
    """Checks corpus entries through the differential oracle.

    One :class:`~repro.testing.oracle.DifferentialRunner` is kept per
    distinct ``(document, variables, namespaces)``, so each corpus
    document is written to a page file and sharded once, not once per
    entry.  Use as a context manager or call :meth:`close`.
    """

    def __init__(self):
        self._runners: Dict[Tuple, DifferentialRunner] = {}

    def check(self, entry: CorpusEntry) -> List[Divergence]:
        """The entry's divergences (empty when every route agrees)."""
        key = (
            document_cache_key(entry.document),
            tuple(sorted(entry.variables.items())),
            tuple(sorted(entry.namespaces.items())),
        )
        runner = self._runners.get(key)
        if runner is None:
            runner = self._runners[key] = DifferentialRunner(
                entry.build_document(),
                variables=entry.variables,
                namespaces=entry.namespaces,
            )
        return runner.check(entry.query)

    def close(self) -> None:
        for runner in self._runners.values():
            runner.close()
        self._runners.clear()

    def __enter__(self) -> "CorpusReplay":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# File IO
# ----------------------------------------------------------------------


def load_corpus_file(path: Path) -> List[CorpusEntry]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return [CorpusEntry.from_dict(item) for item in data.get("entries", [])]


def load_corpus(
    directory: Path = DEFAULT_CORPUS_DIR,
) -> Iterator[Tuple[Path, CorpusEntry]]:
    """All entries of every ``*.json`` file under ``directory``."""
    for path in sorted(Path(directory).glob("*.json")):
        for entry in load_corpus_file(path):
            yield path, entry


def save_corpus_file(
    path: Path, description: str, entries: List[CorpusEntry]
) -> None:
    payload = {
        "description": description,
        "entries": [entry.to_dict() for entry in entries],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def append_entry(
    path: Path,
    entry: CorpusEntry,
    description: str = "Minimized fuzz-found regressions.",
) -> bool:
    """Append ``entry`` to a corpus file (created if missing).

    Returns False (and writes nothing) when an entry with the same
    query and document already exists — replays stay deduplicated.
    """
    entries: List[CorpusEntry] = []
    if Path(path).exists():
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        description = data.get("description", description)
        entries = [
            CorpusEntry.from_dict(item) for item in data.get("entries", [])
        ]
    for existing in entries:
        if existing.query == entry.query and document_cache_key(
            existing.document
        ) == document_cache_key(entry.document):
            return False
    taken = {existing.name for existing in entries}
    if entry.name in taken:
        base = entry.name
        index = 2
        while f"{base}-{index}" in taken:
            index += 1
        entry = CorpusEntry(
            name=f"{base}-{index}",
            query=entry.query,
            document=entry.document,
            variables=entry.variables,
            namespaces=entry.namespaces,
            source=entry.source,
            notes=entry.notes,
        )
    entries.append(entry)
    save_corpus_file(Path(path), description, entries)
    return True
