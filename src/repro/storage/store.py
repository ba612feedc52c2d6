"""Storing documents into page files and opening them again.

File layout::

    header:  magic "NATX", version byte, page_size, node count,
             section lengths (names, id map, directory, data)
    names:   deduplicated element/attribute name table
    id map:  ID attribute value -> element node id
    dir:     per-node (offset, length) into the data region
    data:    node records, read through the buffer manager

Node ids equal pre-order document ranks, so a stored node's id *is* the
first component of its document-order sort key — stored and in-memory
nodes order and hash identically.
"""

from __future__ import annotations

import io
import os
import threading
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.dom.document import Document
from repro.dom.node import Node, NodeKind
from repro.errors import IndexRegionMissing, StorageError
from repro.storage.encoding import (
    decode_id_list,
    decode_string,
    decode_varint,
    encode_id_list,
    encode_string,
    encode_varint,
)
from repro.storage.nodes import StoredNode
from repro.storage.pages import (
    DEFAULT_BUFFER_PAGES,
    PAGE_SIZE,
    BufferManager,
    PageFile,
)

_MAGIC = b"NATX"
_VERSION = 1

_HAS_VALUE = 1


class DocumentStore:
    """Entry points for writing and opening stored documents."""

    @staticmethod
    def write(document: Document, path: Union[str, os.PathLike],
              page_size: int = PAGE_SIZE, indexes: bool = True) -> None:
        """Persist ``document`` to ``path``.

        By default the structural indexes (:mod:`repro.index`) are built
        and appended as an index region; pass ``indexes=False`` for a
        bare v1 store (the on-disk bytes up to the index footer are
        byte-identical either way).
        """
        writer = _Writer(document, page_size)
        blob = writer.serialize()
        with open(path, "wb") as handle:
            handle.write(blob)
            if indexes:
                # Local import: repro.index builds on this module.
                from repro.index.build import build_index_data
                from repro.index.persist import (
                    append_index_blob,
                    serialize_index_blob,
                )

                data = build_index_data(document)
                index_blob = serialize_index_blob(
                    data, writer.fingerprint()
                )
                append_index_blob(handle, len(blob), index_blob)

    @staticmethod
    def open(path: Union[str, os.PathLike],
             buffer_pages: int = DEFAULT_BUFFER_PAGES) -> "StoredDocument":
        """Open a stored document with a bounded page buffer."""
        handle = open(path, "rb")
        try:
            return StoredDocument(handle, buffer_pages)
        except Exception:
            handle.close()
            raise

    @staticmethod
    def build_indexes(path: Union[str, os.PathLike],
                      buffer_pages: int = DEFAULT_BUFFER_PAGES) -> None:
        """Retrofit (or rebuild) indexes onto an existing store file.

        Walks the stored document once through the page buffer, then
        appends a fresh index region — replacing any previous one — in
        place.  The data pages are never rewritten.
        """
        from repro.index.build import build_index_data
        from repro.index.persist import (
            append_index_blob,
            serialize_index_blob,
        )

        with DocumentStore.open(path, buffer_pages) as stored:
            data = build_index_data(stored)
            blob = serialize_index_blob(data, stored.fingerprint)
            store_end = stored.store_end
        with open(path, "r+b") as handle:
            append_index_blob(handle, store_end, blob)


class _Writer:
    """Serializes one document into the store format."""

    def __init__(self, document: Document, page_size: int):
        self.document = document
        self.page_size = page_size
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._fingerprint: Optional[bytes] = None

    def _name_id(self, name: Optional[str]) -> int:
        """Biased name index (0 = no name)."""
        if name is None:
            return 0
        index = self._name_index.get(name)
        if index is None:
            index = len(self.names)
            self.names.append(name)
            self._name_index[name] = index
        return index + 1

    def serialize(self) -> bytes:
        nodes = list(self.document.iter_nodes())
        data = bytearray()
        offsets: List[Tuple[int, int]] = []
        for node in nodes:
            start = len(data)
            self._encode_node(node, data)
            offsets.append((start, len(data) - start))

        names_blob = bytearray()
        encode_varint(len(self.names), names_blob)
        for name in self.names:
            encode_string(name, names_blob)

        id_blob = bytearray()
        id_map = self.document._id_map
        encode_varint(len(id_map), id_blob)
        for value, element in sorted(id_map.items()):
            encode_string(value, id_blob)
            encode_varint(element.sort_key[0], id_blob)

        dir_blob = bytearray()
        encode_varint(len(offsets), dir_blob)
        previous = 0
        for offset, length in offsets:
            encode_varint(offset - previous, dir_blob)
            encode_varint(length, dir_blob)
            previous = offset

        header = bytearray()
        header.extend(_MAGIC)
        header.append(_VERSION)
        encode_varint(self.page_size, header)
        encode_varint(len(offsets), header)
        encode_varint(len(names_blob), header)
        encode_varint(len(id_blob), header)
        encode_varint(len(dir_blob), header)
        encode_varint(len(data), header)
        from repro.index.persist import structural_fingerprint

        self._fingerprint = structural_fingerprint(
            bytes(names_blob), bytes(dir_blob), len(offsets), len(data)
        )
        return bytes(header) + bytes(names_blob) + bytes(id_blob) + bytes(
            dir_blob
        ) + bytes(data)

    def fingerprint(self) -> bytes:
        """The structural fingerprint of the blob ``serialize`` built."""
        if self._fingerprint is None:
            raise StorageError("serialize() has not run yet")
        return self._fingerprint

    def _encode_node(self, node: Node, out: bytearray) -> None:
        encode_varint(int(node.kind), out)
        encode_varint(self._name_id(node.name), out)
        flags = _HAS_VALUE if node.value is not None else 0
        out.append(flags)
        if node.value is not None:
            encode_string(node.value, out)
        parent_id = node.parent.sort_key[0] + 1 if node.parent else 0
        encode_varint(parent_id, out)
        encode_id_list([child.sort_key[0] for child in node.children], out)
        encode_varint(len(node.attributes), out)
        for attribute in node.attributes:
            encode_varint(self._name_id(attribute.name), out)
            encode_string(attribute.value or "", out)
        declarations = node.namespace_declarations
        encode_varint(len(declarations), out)
        for prefix in sorted(declarations):
            encode_string(prefix, out)
            encode_string(declarations[prefix], out)


class StoredDocument:
    """A document opened from a page file.

    Implements the pieces of the :class:`~repro.dom.document.Document`
    interface the evaluators use (``root``, ``get_element_by_id``,
    ``node_count``, ``iter_nodes``), backed by lazily decoded node
    proxies and the page buffer.  A ``StoredDocument`` is a first-class
    evaluation target: ``evaluate(query, stored)`` behaves exactly like
    ``evaluate(query, document)`` on the in-memory form (see
    :func:`repro.api.resolve_context_node`).
    """

    def __init__(self, handle: io.BufferedIOBase, buffer_pages: int):
        self._handle = handle
        try:
            self._init(handle, buffer_pages)
        except BaseException:
            # The constructor owns the handle from the first line on:
            # a failure anywhere in here (bad magic, truncated header,
            # index-trailer validation) must not leak the open file —
            # callers constructing a StoredDocument directly have no
            # object to close yet.
            handle.close()
            raise

    def _init(self, handle: io.BufferedIOBase, buffer_pages: int) -> None:
        header = handle.read(5)
        if header[:4] != _MAGIC:
            raise StorageError("not a document store file")
        if header[4] != _VERSION:
            raise StorageError(f"unsupported store version {header[4]}")
        # The variable part of the header is small; read a generous slab.
        slab = handle.read(64)
        self.page_size, at = decode_varint(slab, 0)
        self._node_count, at = decode_varint(slab, at)
        names_len, at = decode_varint(slab, at)
        id_len, at = decode_varint(slab, at)
        dir_len, at = decode_varint(slab, at)
        data_len, at = decode_varint(slab, at)
        header_end = 5 + at

        handle.seek(header_end)
        names_blob = handle.read(names_len)
        id_blob = handle.read(id_len)
        dir_blob = handle.read(dir_len)

        self._names = _decode_names(names_blob)
        self._id_map = _decode_id_map(id_blob)
        self._offsets, self._lengths = _decode_directory(dir_blob)
        if len(self._offsets) != self._node_count:
            raise StorageError("directory does not match node count")

        data_start = header_end + names_len + id_len + dir_len
        page_file = PageFile(handle, data_start, data_len, self.page_size)
        self.buffer = BufferManager(page_file, buffer_pages)
        self._cache: Dict[int, StoredNode] = {}
        # Reentrant: decoding a node may recursively decode its parent.
        self._cache_lock = threading.RLock()
        self.uri: Optional[str] = getattr(handle, "name", None)

        #: Where the v1 store bytes end; any index region starts here.
        self.store_end = data_start + data_len
        # The fingerprint hashes sections this constructor already read,
        # so the index freshness check below costs no extra I/O.
        from repro.index.persist import structural_fingerprint

        self.fingerprint = structural_fingerprint(
            names_blob, dir_blob, self._node_count, data_len
        )
        #: "fresh" (indexes loaded from the catalog), "stale" (an index
        #: region exists but its fingerprint does not match this store's
        #: structure — evaluation falls back to scans), or "none".
        self.index_status = "none"
        self.indexes: Optional["DocumentIndexes"] = None
        self._load_indexes(buffer_pages)

    def _load_indexes(self, buffer_pages: int) -> None:
        try:
            file_end = os.fstat(self._handle.fileno()).st_size
        except (OSError, ValueError, io.UnsupportedOperation):
            self._handle.seek(0, os.SEEK_END)
            file_end = self._handle.tell()
        if file_end <= self.store_end:
            return
        from repro.index.runtime import DocumentIndexes

        try:
            indexes = DocumentIndexes.load(
                self._handle, file_end, self.page_size, buffer_pages
            )
        except IndexRegionMissing:
            # Trailing bytes but no footer magic: not an index region.
            return
        except StorageError:
            # A footer exists but the region cannot be decoded (corrupt
            # trailer, garbage catalog).  The data pages are untouched
            # by index corruption, so the open *succeeds* and
            # evaluation falls back to scans — exactly like a stale
            # region.
            self.index_status = "stale"
            return
        if (indexes.catalog.fingerprint != self.fingerprint
                or indexes.node_count != self._node_count):
            self.index_status = "stale"
            return
        self.indexes = indexes
        self.index_status = "fresh"

    # ------------------------------------------------------------------

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "StoredDocument":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def root(self) -> StoredNode:
        return self.node(0)

    def get_element_by_id(self, value: str) -> Optional[StoredNode]:
        node_id = self._id_map.get(value)
        return self.node(node_id) if node_id is not None else None

    def iter_nodes(self) -> Iterator[Node]:
        yield self.root
        yield from self.root.iter_descendants()

    def node(self, node_id: int,
             parent: Optional[Node] = None) -> StoredNode:
        """The proxy for ``node_id`` (decoded and cached on first use).

        Proxies are singletons per node id — concurrent readers decode
        under the cache lock so two threads can never hold distinct
        proxies for the same stored node (identity matters to duplicate
        elimination and to the lazily linked parent/child structure).
        The lock-free fast path serves already-decoded nodes.
        """
        cached = self._cache.get(node_id)
        if cached is not None:
            return cached
        if node_id < 0 or node_id >= self._node_count:
            raise StorageError(f"node id {node_id} out of range")
        with self._cache_lock:
            cached = self._cache.get(node_id)
            if cached is not None:
                return cached
            record = self.buffer.read_record(
                self._offsets[node_id], self._lengths[node_id]
            )
            node = self._decode_node(node_id, record, parent)
            self._cache[node_id] = node
            return node

    def nodes(self, node_ids: Sequence[int]) -> Iterable[StoredNode]:
        """The proxies for ``node_ids``, in order (batched :meth:`node`).

        When every id is already decoded the answer is one C-level pass
        over the proxy cache; otherwise proxies are decoded lazily as
        the caller iterates, so a consumer that checks a deadline per
        candidate is never stuck behind the decode of a whole posting
        list.
        """
        cached = list(map(self._cache.get, node_ids))
        if all(cached):  # a miss is None; proxies are always truthy
            return cached
        return map(self.node, node_ids)

    def clear_node_cache(self) -> None:
        """Drop decoded proxies (page buffer stays managed by capacity)."""
        with self._cache_lock:
            self._cache.clear()

    def buffer_stats(self) -> dict:
        """Page-buffer counters as a plain dict (observability surface
        read by ``XPathEngine.stats()`` for page-backed targets).

        The top-level counters describe the *data* page buffer, as they
        always have; ``by_kind`` breaks I/O out per page kind so index
        savings are attributable (index reads never hide data reads).
        """
        stats = self.buffer.stats
        report = {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "cached_pages": self.buffer.cached_pages,
            "capacity": self.buffer.capacity,
        }
        by_kind = {self.buffer.kind: dict(report)}
        if self.indexes is not None:
            by_kind[self.indexes.buffer.kind] = self.indexes.buffer_stats()
        report["by_kind"] = by_kind
        return report

    # ------------------------------------------------------------------

    def _decode_node(self, node_id: int, record: bytes,
                     parent: Optional[Node]) -> StoredNode:
        kind_value, at = decode_varint(record, 0)
        name_id, at = decode_varint(record, at)
        flags = record[at]
        at += 1
        value: Optional[str] = None
        if flags & _HAS_VALUE:
            value, at = decode_string(record, at)
        parent_id, at = decode_varint(record, at)
        child_ids, at = decode_id_list(record, at)
        kind = NodeKind(kind_value)
        name = self._names[name_id - 1] if name_id else None

        if parent is None and parent_id:
            parent = self.node(parent_id - 1)

        node = StoredNode(
            self, node_id, kind, name, value, parent, child_ids,
            (node_id, 0, 0),
        )

        attr_count, at = decode_varint(record, at)
        for index in range(attr_count):
            attr_name_id, at = decode_varint(record, at)
            attr_value, at = decode_string(record, at)
            attribute = Node(
                NodeKind.ATTRIBUTE,
                name=self._names[attr_name_id - 1] if attr_name_id else None,
                value=attr_value,
            )
            attribute.parent = node
            attribute.document = self  # type: ignore[assignment]
            attribute.sort_key = (node_id, 2, index)
            node._attributes.append(attribute)

        ns_count, at = decode_varint(record, at)
        for _ in range(ns_count):
            prefix, at = decode_string(record, at)
            uri, at = decode_string(record, at)
            node._ns_decls[prefix] = uri
        return node


def _decode_names(blob: bytes) -> List[str]:
    count, at = decode_varint(blob, 0)
    names: List[str] = []
    for _ in range(count):
        name, at = decode_string(blob, at)
        names.append(name)
    return names


def _decode_id_map(blob: bytes) -> Dict[str, int]:
    count, at = decode_varint(blob, 0)
    mapping: Dict[str, int] = {}
    for _ in range(count):
        value, at = decode_string(blob, at)
        node_id, at = decode_varint(blob, at)
        mapping[value] = node_id
    return mapping


def _decode_directory(blob: bytes) -> Tuple[List[int], List[int]]:
    count, at = decode_varint(blob, 0)
    offsets: List[int] = []
    lengths: List[int] = []
    previous = 0
    for _ in range(count):
        delta, at = decode_varint(blob, at)
        length, at = decode_varint(blob, at)
        previous += delta
        offsets.append(previous)
        lengths.append(length)
    return offsets, lengths
