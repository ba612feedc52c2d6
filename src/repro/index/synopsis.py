"""The path synopsis: a DataGuide over stored documents.

One :class:`SynopsisEntry` exists per distinct root-to-node *label
path* (e.g. ``/xdoc/section/item``), with the number of document nodes
sharing that path.  The synopsis is tiny (bounded by the document's
structural variety, not its size), lives in the index catalog record
and is loaded eagerly when a store is opened — it is the piece of the
index subsystem the *compiler* reads: the index-aware rewrite asks it
how many elements carry a name before routing a step onto the name
index, and declines the rewrite when the answer says the index would
not prune (see ``docs/indexes.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Synopsis entry kinds.
KIND_ELEMENT = 0
KIND_ATTRIBUTE = 1


@dataclass(frozen=True)
class SynopsisEntry:
    """One distinct label path.

    ``parent`` is the index of the parent path's entry (``-1`` for the
    document root), so the entries form the DataGuide tree.
    """

    parent: int
    kind: int  #: :data:`KIND_ELEMENT` or :data:`KIND_ATTRIBUTE`
    name: str
    count: int


#: Pseudo entry index of the document root node (parent of the root
#: element's entry); :meth:`PathSynopsis.children_of` accepts it.
ROOT_ENTRY = -1


class PathSynopsis:
    """Cardinality lookups over the DataGuide entries."""

    def __init__(self, entries: Sequence[SynopsisEntry]):
        self.entries: Tuple[SynopsisEntry, ...] = tuple(entries)
        self._element_counts: Dict[str, int] = {}
        self._attribute_counts: Dict[str, int] = {}
        self._children: Dict[int, Tuple[int, ...]] = {}
        total = 0
        children: Dict[int, list] = {}
        for index, entry in enumerate(self.entries):
            children.setdefault(entry.parent, []).append(index)
            if entry.kind == KIND_ELEMENT:
                total += entry.count
                self._element_counts[entry.name] = (
                    self._element_counts.get(entry.name, 0) + entry.count
                )
            else:
                self._attribute_counts[entry.name] = (
                    self._attribute_counts.get(entry.name, 0) + entry.count
                )
        self._children = {
            parent: tuple(indices) for parent, indices in children.items()
        }
        self.total_elements = total

    # ------------------------------------------------------------------

    def children_of(self, index: int) -> Tuple[int, ...]:
        """Entry indices whose parent entry is ``index``.

        Pass :data:`ROOT_ENTRY` for the children of the document root.
        """
        return self._children.get(index, ())

    def element_count(self, name: str) -> int:
        """How many elements in the document are named ``name``."""
        return self._element_counts.get(name, 0)

    def attribute_count(self, name: str) -> int:
        """How many attributes in the document are named ``name``."""
        return self._attribute_counts.get(name, 0)

    def element_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._element_counts))

    def selectivity(self, name: str) -> float:
        """Fraction of elements named ``name`` (1.0 for an empty doc)."""
        if self.total_elements == 0:
            return 1.0
        return self.element_count(name) / self.total_elements

    def to_rows(self) -> List[List[object]]:
        """Compact JSON-safe rendering: one ``[parent, kind, name,
        count]`` row per entry, in entry order (the collection catalog
        mirrors each shard's synopsis this way)."""
        return [
            [entry.parent, entry.kind, entry.name, entry.count]
            for entry in self.entries
        ]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]]) -> "PathSynopsis":
        """Rebuild a synopsis from its :meth:`to_rows` rendering."""
        return cls(
            SynopsisEntry(
                parent=int(row[0]), kind=int(row[1]),
                name=str(row[2]), count=int(row[3]),
            )
            for row in rows
        )

    def __len__(self) -> int:
        return len(self.entries)
