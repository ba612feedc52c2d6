"""Collection catalogs: many stored documents behind one namespace.

A *collection* is a directory holding one shard store per member
document plus a single JSON catalog file (:data:`CATALOG_NAME`) that
names them::

    mycoll/
        collection.json      <- catalog: shard order, fingerprints
        shard-0000.natix     <- ordinary DocumentStore page files
        shard-0001.natix
        ...

Shards are ordinary :class:`~repro.storage.DocumentStore` page files —
anything that can open a stored document can open a shard — and the
catalog pins their *order*: shard ids are dense ranks ``0..n-1`` and the
collection's global document order is ``(shard id, pre-order rank)``.
The catalog also records each shard's structural fingerprint, so a
shard file swapped or rebuilt underneath the catalog is detected at
open time, and the collection-level :func:`collection_fingerprint`
derived from them keys plan caches and request coalescing (two
collections never share compiled plans, even when their shards happen
to hold identical documents — see ``docs/collection.md``).

:func:`split_document` turns one document into per-subtree shard
documents (partitioning the root element's children), which is how the
differential oracle's ``collection`` route and the CLI's ``--shards``
build sharded corpora from single-document inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.dom.document import Document
from repro.dom.node import NodeKind
from repro.dom.parser import parse as parse_xml
from repro.dom.serializer import escape_attribute, serialize
from repro.errors import CollectionError
from repro.index.synopsis import PathSynopsis
from repro.storage import DocumentStore

#: The catalog file inside a collection directory.
CATALOG_NAME = "collection.json"

#: Catalog format version (bumped on incompatible layout changes).
CATALOG_VERSION = 1

#: Shard store file name pattern.
SHARD_PATTERN = "shard-{shard:04d}.natix"


@dataclass(frozen=True)
class ShardInfo:
    """One catalog row: a shard's id, file and structural identity.

    ``synopsis`` mirrors the shard store's DataGuide path synopsis into
    the parent catalog (when the store carries fresh indexes), which is
    what lets the collection layer prove a query's result empty on this
    shard without opening any shard file — see
    :attr:`repro.compiler.cost.PlanEstimates.empty`.  It is
    identity-neutral: two catalogs differing only in mirrored synopses
    compare equal and fingerprint identically.
    """

    shard: int
    path: str  #: file name relative to the collection directory
    fingerprint: str  #: hex structural fingerprint of the store
    node_count: int
    synopsis: Optional[PathSynopsis] = field(
        default=None, compare=False, repr=False
    )

    def to_json(self) -> dict:
        row = {
            "shard": self.shard,
            "path": self.path,
            "fingerprint": self.fingerprint,
            "node_count": self.node_count,
        }
        if self.synopsis is not None:
            row["synopsis"] = self.synopsis.to_rows()
        return row


@dataclass(frozen=True)
class CollectionCatalog:
    """The parsed catalog of one collection directory."""

    directory: Path
    name: str
    shards: Sequence[ShardInfo]

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_path(self, shard: int) -> Path:
        return self.directory / self.shards[shard].path

    def fingerprint(self) -> str:
        """The collection-level fingerprint (hex digest).

        Derived from the catalog identity *and* every shard's
        structural fingerprint in shard order, so it changes when any
        shard changes, when shards are reordered, and between two
        catalogs that merely contain byte-identical documents (the
        directory path salts the digest).  Plan caches and singleflight
        coalescing key on this value.
        """
        digest = hashlib.sha256()
        digest.update(str(self.directory.resolve()).encode())
        digest.update(self.name.encode())
        for info in self.shards:
            digest.update(
                f"{info.shard}:{info.fingerprint}:{info.node_count}".encode()
            )
        return digest.hexdigest()


def write_catalog(catalog: CollectionCatalog) -> Path:
    path = catalog.directory / CATALOG_NAME
    payload = {
        "version": CATALOG_VERSION,
        "name": catalog.name,
        "shards": [info.to_json() for info in catalog.shards],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_catalog(directory: Union[str, os.PathLike]) -> CollectionCatalog:
    """Load and validate the catalog of a collection directory.

    Validation covers the catalog format, dense shard ids, shard file
    existence, and each shard's structural fingerprint against the
    actual store file — a shard rebuilt or replaced underneath the
    catalog raises :class:`~repro.errors.CollectionError` instead of
    silently serving different data than the catalog promises.
    """
    directory = Path(directory)
    path = directory / CATALOG_NAME
    if not path.is_file():
        raise CollectionError(f"no collection catalog at {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise CollectionError(
            f"cannot read collection catalog {path}: {error}"
        ) from error
    if payload.get("version") != CATALOG_VERSION:
        raise CollectionError(
            f"unsupported catalog version {payload.get('version')!r} "
            f"in {path}"
        )
    shards: List[ShardInfo] = []
    for row in payload.get("shards", []):
        synopsis = None
        if row.get("synopsis") is not None:
            try:
                synopsis = PathSynopsis.from_rows(row["synopsis"])
            except (TypeError, ValueError, IndexError):
                synopsis = None  # malformed mirror: no pruning evidence
        shards.append(
            ShardInfo(
                shard=int(row["shard"]),
                path=str(row["path"]),
                fingerprint=str(row["fingerprint"]),
                node_count=int(row["node_count"]),
                synopsis=synopsis,
            )
        )
    if not shards:
        raise CollectionError(f"collection catalog {path} lists no shards")
    shards.sort(key=lambda info: info.shard)
    if [info.shard for info in shards] != list(range(len(shards))):
        raise CollectionError(
            f"collection catalog {path} has non-dense shard ids"
        )
    catalog = CollectionCatalog(
        directory=directory,
        name=str(payload.get("name", directory.name)),
        shards=tuple(shards),
    )
    validated: List[ShardInfo] = []
    for info in catalog.shards:
        shard_path = catalog.shard_path(info.shard)
        if not shard_path.is_file():
            raise CollectionError(
                f"collection shard file missing: {shard_path}"
            )
        with DocumentStore.open(shard_path, buffer_pages=8) as stored:
            actual = stored.fingerprint.hex()
            if actual != info.fingerprint:
                raise CollectionError(
                    f"shard {info.shard} ({shard_path}) does not match "
                    f"the catalog fingerprint (catalog "
                    f"{info.fingerprint[:12]}…, file {actual[:12]}…); "
                    "re-create the collection"
                )
            if info.synopsis is None and stored.index_status == "fresh":
                # Catalogs written before the synopsis mirror existed:
                # lift the synopsis out of the store we just opened
                # anyway, so pruning works without re-creating them.
                info = ShardInfo(
                    shard=info.shard,
                    path=info.path,
                    fingerprint=info.fingerprint,
                    node_count=info.node_count,
                    synopsis=stored.indexes.synopsis,
                )
        validated.append(info)
    return CollectionCatalog(
        directory=catalog.directory,
        name=catalog.name,
        shards=tuple(validated),
    )


def create_collection(
    directory: Union[str, os.PathLike],
    documents: Sequence[Document],
    *,
    name: Optional[str] = None,
    indexes: bool = True,
) -> CollectionCatalog:
    """Write ``documents`` as the shards of a new collection.

    Each document becomes one shard store (structural indexes included
    unless ``indexes=False``), in sequence order — the order *is* the
    collection's global document order.  Returns the written catalog.
    """
    if not documents:
        raise CollectionError("a collection needs at least one document")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    infos: List[ShardInfo] = []
    for shard, document in enumerate(documents):
        file_name = SHARD_PATTERN.format(shard=shard)
        shard_path = directory / file_name
        DocumentStore.write(document, shard_path, indexes=indexes)
        with DocumentStore.open(shard_path, buffer_pages=8) as stored:
            synopsis = None
            if stored.index_status == "fresh":
                synopsis = stored.indexes.synopsis
            infos.append(
                ShardInfo(
                    shard=shard,
                    path=file_name,
                    fingerprint=stored.fingerprint.hex(),
                    node_count=stored.node_count,
                    synopsis=synopsis,
                )
            )
    catalog = CollectionCatalog(
        directory=directory,
        name=name or directory.name,
        shards=tuple(infos),
    )
    write_catalog(catalog)
    return catalog


def split_document(document: Document, shards: int) -> List[Document]:
    """Split one document into per-subtree shard documents.

    The root element's children are partitioned into ``shards``
    contiguous runs (as evenly as possible); each shard document clones
    the root element — name, attributes, namespace declarations — around
    its run, so every shard is a well-formed document whose top-level
    structure mirrors the original.  With fewer children than requested
    shards the result has one shard per child (never an empty shard);
    a childless root yields a single shard.

    Splitting is deterministic: the same document and shard count
    always produce byte-identical shard documents, which is what lets
    the differential oracle compare the multi-process collection
    evaluation against per-shard single-document evaluation.
    """
    if shards < 1:
        raise CollectionError("shard count must be at least 1")
    root_element = None
    for child in document.root.children:
        if child.kind == NodeKind.ELEMENT:
            root_element = child
            break
    if root_element is None:
        raise CollectionError("document has no root element to split")

    open_tag = [f"<{root_element.name}"]
    for prefix, uri in sorted(root_element.namespace_declarations.items()):
        decl = f"xmlns:{prefix}" if prefix else "xmlns"
        open_tag.append(f' {decl}="{escape_attribute(uri)}"')
    for attribute in root_element.attributes:
        open_tag.append(
            f' {attribute.name}="{escape_attribute(attribute.value or "")}"'
        )
    prefix_text = "".join(open_tag)

    children = list(root_element.children)
    if not children:
        return [parse_xml(prefix_text + "/>")]
    shards = min(shards, len(children))
    base, extra = divmod(len(children), shards)
    documents: List[Document] = []
    start = 0
    for shard in range(shards):
        width = base + (1 if shard < extra else 0)
        run = children[start:start + width]
        start += width
        body = "".join(serialize(child) for child in run)
        documents.append(
            parse_xml(f"{prefix_text}>{body}</{root_element.name}>")
        )
    return documents


def create_collection_from_document(
    document: Document,
    directory: Union[str, os.PathLike],
    *,
    shards: int = 4,
    name: Optional[str] = None,
    indexes: bool = True,
) -> CollectionCatalog:
    """Shard one document and write it as a collection (convenience)."""
    return create_collection(
        directory,
        split_document(document, shards),
        name=name,
        indexes=indexes,
    )
