"""Runtime access to a stored document's persistent indexes.

:class:`DocumentIndexes` is the object the engine and the optimizer
see.  It owns a dedicated ``kind="index"`` buffer manager over the
index region of the page file, decodes the catalog record eagerly and
everything else lazily:

* posting lists are fetched and decoded on first use per name and then
  cached (they are immutable for the life of the open store),
* subtree extents are read as fixed-width 4-byte records straight out
  of the page buffer — one record per containment probe, no decode of
  the node itself.

The :meth:`signature` (the structural fingerprint, hex) keys compiled
plans in the session plan cache: two targets with the same signature
can share an index-routed plan, and a target whose store bytes changed
gets a different signature and therefore different plans.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import BinaryIO, Dict, Iterable, Optional, Tuple

from repro.dom.node import Node, NodeKind
from repro.errors import StorageError
from repro.index.persist import (
    EXTENT_WIDTH,
    IndexCatalog,
    find_index_region,
    read_index_catalog,
)
from repro.index.synopsis import PathSynopsis
from repro.storage.encoding import decode_id_list
from repro.storage.pages import BufferManager, PageFile

_EMPTY: Tuple[int, ...] = ()


class DocumentIndexes:
    """Lazily materialized view over a store's on-disk index region."""

    def __init__(self, buffer: BufferManager, catalog: IndexCatalog,
                 payload_start: int):
        self.buffer = buffer
        self.catalog = catalog
        self._payload_start = payload_start
        self._element_cache: Dict[str, Tuple[int, ...]] = {}
        self._attribute_cache: Dict[str, Tuple[int, ...]] = {}
        self._extent_cache: Dict[int, int] = {}

    @classmethod
    def load(cls, handle: BinaryIO, file_end: int, page_size: int,
             buffer_pages: int) -> "DocumentIndexes":
        """Open the index region of a page file.

        Raises :class:`~repro.errors.IndexRegionMissing` when the file
        carries no index footer — the caller treats that as "no
        indexes", not as corruption — and plain
        :class:`~repro.errors.StorageError` when a region exists but
        cannot be decoded (truncated trailer, garbage catalog bytes):
        whatever low-level exception the decoders hit is wrapped, so
        callers never see a raw ``struct.error`` escape an open.  The
        catalog record is read through the index buffer manager so even
        catalog I/O shows up in the index-page counters.
        """
        region_start, region_length = find_index_region(handle, file_end)
        page_file = PageFile(handle, region_start, region_length, page_size)
        buffer = BufferManager(page_file, buffer_pages, kind="index")
        head = buffer.read_record(0, min(region_length, page_size))
        try:
            try:
                catalog, payload_start = read_index_catalog(head)
            except Exception:
                # Catalog larger than one page: pull the whole region.
                catalog, payload_start = read_index_catalog(
                    buffer.read_record(0, region_length)
                )
        except StorageError:
            raise
        except Exception as error:
            # decode_varint/decode_string/struct.unpack on garbage bytes
            # raise IndexError/UnicodeDecodeError/struct.error — a
            # corrupt region, not a programming error.
            raise StorageError(
                f"corrupt index region: {error!r}"
            ) from error
        return cls(buffer, catalog, payload_start)

    # ------------------------------------------------------------------

    @property
    def signature(self) -> str:
        """Hex structural fingerprint; part of plan-cache keys."""
        return self.catalog.fingerprint.hex()

    @property
    def synopsis(self) -> PathSynopsis:
        return self.catalog.synopsis

    @property
    def node_count(self) -> int:
        return self.catalog.node_count

    def has_element_index(self, name: str) -> bool:
        return name in self.catalog.element_refs

    def element_count(self, name: str) -> int:
        """Exact posting-list length, straight from the catalog."""
        ref = self.catalog.element_refs.get(name)
        return ref.count if ref is not None else 0

    def attribute_count(self, name: str) -> int:
        ref = self.catalog.attribute_refs.get(name)
        return ref.count if ref is not None else 0

    # ------------------------------------------------------------------

    def element_ids(self, name: str) -> Tuple[int, ...]:
        """All ids of elements named ``name``, ascending."""
        cached = self._element_cache.get(name)
        if cached is None:
            cached = self._decode_posting(
                self.catalog.element_refs.get(name)
            )
            self._element_cache[name] = cached
        return cached

    def attribute_owner_ids(self, name: str) -> Tuple[int, ...]:
        """Ids of elements carrying an attribute named ``name``."""
        cached = self._attribute_cache.get(name)
        if cached is None:
            cached = self._decode_posting(
                self.catalog.attribute_refs.get(name)
            )
            self._attribute_cache[name] = cached
        return cached

    def _decode_posting(self, ref) -> Tuple[int, ...]:
        if ref is None or ref.length == 0:
            return _EMPTY
        record = self.buffer.read_record(
            self._payload_start + ref.offset, ref.length
        )
        ids, _ = decode_id_list(record, 0)
        return tuple(ids)

    # ------------------------------------------------------------------

    def extent(self, node_id: int) -> int:
        """Id of the last node in ``node_id``'s subtree.

        One fixed-width record read through the page buffer; cached per
        node so repeated probes on the same context are free.
        """
        cached = self._extent_cache.get(node_id)
        if cached is not None:
            return cached
        record = self.buffer.read_record(
            self._payload_start
            + self.catalog.extent_offset
            + node_id * EXTENT_WIDTH,
            EXTENT_WIDTH,
        )
        (value,) = struct.unpack(">I", record)
        self._extent_cache[node_id] = value
        return value

    def is_descendant(self, candidate: int, ancestor: int) -> bool:
        """(pre, post)-interval containment in O(1)."""
        return ancestor < candidate <= self.extent(ancestor)

    def element_ids_in_subtree(self, name: str, context_id: int,
                               include_self: bool = False
                               ) -> Tuple[int, ...]:
        """Ids of ``name`` elements inside ``context_id``'s subtree.

        A binary-search slice of the posting list over the context's
        (pre, post) interval — this is the probe behind
        ``IndexDescendantScan``.  Results are ascending node ids, i.e.
        document order, so downstream order/duplicate properties hold
        without sorting.
        """
        posting = self.element_ids(name)
        if not posting:
            return _EMPTY
        low = context_id if include_self else context_id + 1
        start = bisect_left(posting, low)
        end = bisect_right(posting, self.extent(context_id))
        return posting[start:end]

    # ------------------------------------------------------------------

    def buffer_stats(self) -> dict:
        stats = self.buffer.stats
        return {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "cached_pages": self.buffer.cached_pages,
            "capacity": self.buffer.capacity,
        }


def subtree_candidates(context_node: Node,
                       name: str) -> Optional[Iterable[Node]]:
    """The adaptive index-probe rule of IdxName / IdxDesc, in one place.

    Returns the ``name`` elements inside ``context_node``'s subtree, in
    document order, when the step may be answered from the name index:
    the context's document carries fresh ``indexes`` and the context is
    an ELEMENT or ROOT (attribute/namespace proxies share their owner's
    pre-order rank, so the interval probe would return the *owner's*
    subtree).  Returns ``None`` when the caller must navigate instead —
    in-memory document, stale or absent indexes, non-interval context —
    so an index-routed plan can never answer wrongly on such a target.

    The posting list keys the *stored* QName, a superset of what a
    plain-name test matches, and the interval holds every descendant,
    not just children: callers re-check each candidate through the NAME
    test and, for the child variant, ``candidate.parent is context``.
    Both the iterator engine (:mod:`repro.engine.index_scans`) and the
    generated-Python backend (:mod:`repro.codegen.emitter`) call this.
    """
    kind = context_node.kind
    if kind is not NodeKind.ELEMENT and kind is not NodeKind.ROOT:
        return None
    document = context_node.document
    indexes = getattr(document, "indexes", None)
    if indexes is None:
        return None
    return document.nodes(
        indexes.element_ids_in_subtree(name, context_node.sort_key[0])
    )
