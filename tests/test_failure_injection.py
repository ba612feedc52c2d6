"""Failure injection and robustness tests.

Corrupt storage files, invalid NVM programs, resource edge cases, deep
documents and malformed plan construction: the system must fail loudly
and precisely, never silently mis-answer.
"""

import io

import pytest

from repro import (
    EvalOptions,
    compile_xpath,
    evaluate,
    parse_document,
    serialize,
)
from repro.dom.builder import DocumentBuilder
from repro.errors import (
    CodegenError,
    NVMError,
    StorageError,
    XMLSyntaxError,
    XPathSyntaxError,
)
from repro.storage import DocumentStore
from repro.storage.store import _MAGIC


class TestCorruptStores:
    def _stored_bytes(self, xml="<a><b>x</b></a>"):
        import tempfile, os

        doc = parse_document(xml)
        path = tempfile.mktemp(suffix=".natix")
        DocumentStore.write(doc, path)
        with open(path, "rb") as handle:
            blob = handle.read()
        os.unlink(path)
        return blob

    def _open_blob(self, blob, tmp_path):
        path = tmp_path / "corrupt.natix"
        path.write_bytes(blob)
        return DocumentStore.open(path)

    def test_truncated_file(self, tmp_path):
        blob = self._stored_bytes()
        with pytest.raises(StorageError):
            # Header may survive truncation; force record reads.  The
            # context manager keeps the handle from leaking when the
            # open itself survives and only the reads fail.
            with self._open_blob(blob[: len(blob) // 3], tmp_path) as stored:
                list(stored.iter_nodes())

    def test_wrong_magic(self, tmp_path):
        blob = self._stored_bytes()
        with pytest.raises(StorageError):
            self._open_blob(b"XXXX" + blob[4:], tmp_path)

    def test_wrong_version(self, tmp_path):
        blob = self._stored_bytes()
        with pytest.raises(StorageError):
            self._open_blob(_MAGIC + bytes([99]) + blob[5:], tmp_path)

    def test_flipped_directory_bytes(self, tmp_path):
        blob = bytearray(self._stored_bytes())
        # Flip bytes in the tail (data region) — decoding must raise a
        # StorageError (or produce a well-typed node), never crash with
        # an arbitrary exception.
        for index in range(len(blob) - 12, len(blob)):
            blob[index] ^= 0xFF
        try:
            with self._open_blob(bytes(blob), tmp_path) as stored:
                list(stored.iter_nodes())
        except (StorageError, ValueError):
            pass  # both are controlled decode failures

    def test_out_of_range_node_id(self, tmp_path):
        blob = self._stored_bytes()
        with self._open_blob(blob, tmp_path) as stored:
            with pytest.raises(StorageError):
                stored.node(10**6)


class TestCorruptIndexTrailer:
    """A corrupt index region must degrade the open, never fail it.

    The data pages are untouched by index corruption: the store opens,
    reports ``index_status == "stale"`` and answers queries through
    axis-navigation fallback.  And whatever does fail mid-``open()``
    must close the file handle — the regression here was a handle
    leaked when trailer validation raised inside the constructor.
    """

    def _indexed_store(self, tmp_path):
        document = parse_document("<a><b>x</b><b>y</b></a>")
        path = tmp_path / "indexed.natix"
        DocumentStore.write(document, path)
        return path

    def test_garbage_index_region_falls_back(self, tmp_path):
        path = self._indexed_store(tmp_path)
        blob = bytearray(path.read_bytes())
        # Corrupt the catalog bytes just past the footer-relative region
        # start, keeping the NATXIDX1 footer itself intact.
        with DocumentStore.open(path) as stored:
            store_end = stored.store_end
        for index in range(store_end, min(store_end + 24, len(blob) - 16)):
            blob[index] ^= 0xFF
        path.write_bytes(bytes(blob))
        with DocumentStore.open(path) as stored:
            assert stored.index_status == "stale"
            assert stored.indexes is None
            assert evaluate("count(//b)", stored) == 2.0

    def test_garbage_catalog_body_falls_back(self, tmp_path):
        # Keep the catalog magic and length intact but shred the body:
        # the decoders hit raw IndexError/UnicodeDecodeError on garbage
        # varints, which the load path must wrap — the open still
        # degrades to "stale" instead of crashing.
        path = self._indexed_store(tmp_path)
        blob = bytearray(path.read_bytes())
        with DocumentStore.open(path) as stored:
            store_end = stored.store_end
        body_start = store_end + 9  # past b"NIDX1" + u32 body length
        for index in range(
            body_start, min(body_start + 64, len(blob) - 16)
        ):
            blob[index] ^= 0xFF
        path.write_bytes(bytes(blob))
        with DocumentStore.open(path) as stored:
            assert stored.index_status == "stale"
            assert evaluate("count(//b)", stored) == 2.0

    def test_corrupt_footer_length_falls_back(self, tmp_path):
        path = self._indexed_store(tmp_path)
        blob = bytearray(path.read_bytes())
        # An absurd region length makes region_start negative.
        blob[-16:-8] = (2**48).to_bytes(8, "big")
        path.write_bytes(bytes(blob))
        with DocumentStore.open(path) as stored:
            assert stored.index_status == "stale"
            assert evaluate("count(//b)", stored) == 2.0

    def test_missing_footer_is_not_stale(self, tmp_path):
        path = self._indexed_store(tmp_path)
        blob = path.read_bytes()
        with DocumentStore.open(path) as stored:
            store_end = stored.store_end
        # Strip the whole index region: plain v1 store, no footer.
        path.write_bytes(blob[:store_end])
        with DocumentStore.open(path) as stored:
            assert stored.index_status == "none"
            assert stored.indexes is None

    def test_failed_open_closes_handle(self, tmp_path):
        from repro.storage.store import StoredDocument

        path = tmp_path / "junk.natix"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        handle = open(path, "rb")
        with pytest.raises(StorageError):
            StoredDocument(handle, buffer_pages=4)
        assert handle.closed

    def test_failed_open_with_corrupt_trailer_closes_handle(
        self, tmp_path, monkeypatch
    ):
        # Force the very last constructor step to blow up with an
        # arbitrary exception: the handle must still be closed.
        from repro.storage import store as store_module

        path = self._indexed_store(tmp_path)
        monkeypatch.setattr(
            store_module.StoredDocument,
            "_load_indexes",
            lambda self, buffer_pages: (_ for _ in ()).throw(
                RuntimeError("boom")
            ),
        )
        handle = open(path, "rb")
        with pytest.raises(RuntimeError):
            store_module.StoredDocument(handle, buffer_pages=4)
        assert handle.closed


class TestInvalidNVM:
    def test_validation_rejects_bad_nested_index(self):
        from repro.nvm.isa import Opcode, make
        from repro.nvm.machine import NVMProgram

        program = NVMProgram(
            [make(Opcode.EXEC_NESTED, 0, 3), make(Opcode.RET, 0)],
            (), (), (), 1,
        )
        with pytest.raises(NVMError):
            program.validate()

    def test_assembler_rejects_bad_jump_target(self):
        from repro.nvm.assembler import assemble

        with pytest.raises(NVMError):
            assemble("jump @99")

    def test_root_on_non_node(self):
        from repro.nvm.assembler import assemble
        from repro.nvm.machine import execute
        from repro.engine.iterator import RuntimeState
        from repro.engine.context import ExecutionContext

        doc = parse_document("<a/>")
        program = assemble(
            "load_const r0, c0\nroot r1, r0\nret r1", constants=(1.0,)
        )
        runtime = RuntimeState(regs=[], context=ExecutionContext(doc.root))
        with pytest.raises(NVMError):
            execute(program, runtime)


class TestBuilderMisuse:
    def test_end_without_start(self):
        builder = DocumentBuilder()
        with pytest.raises(XMLSyntaxError):
            builder.end_element()

    def test_finish_with_open_element(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        with pytest.raises(XMLSyntaxError):
            builder.finish()

    def test_finish_without_document_element(self):
        builder = DocumentBuilder()
        builder.comment("only a comment")
        with pytest.raises(XMLSyntaxError):
            builder.finish()

    def test_use_after_finish(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        builder.end_element()
        builder.finish()
        with pytest.raises(XMLSyntaxError):
            builder.start_element("b")

    def test_second_document_element(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        builder.end_element()
        with pytest.raises(XMLSyntaxError):
            builder.start_element("b")

    def test_finish_idempotent(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        builder.end_element()
        assert builder.finish() is builder.finish()


class TestDeepDocuments:
    def test_deep_parse_query_serialize(self):
        depth = 3000
        text = "<d>" * depth + "x" + "</d>" * depth
        doc = parse_document(text)
        # Axis navigation must not hit Python's recursion limit.
        assert evaluate("count(//d)", doc) == float(depth)
        deepest = evaluate("//d[not(d)]", doc)
        assert len(deepest) == 1
        assert evaluate("count(//d[not(d)]/ancestor::d)", doc) == float(
            depth - 1
        )

    def test_wide_documents(self):
        doc = parse_document("<r>" + "<x/>" * 20000 + "</r>")
        assert evaluate("count(/r/x)", doc) == 20000.0
        assert evaluate("count(/r/x[position() mod 1000 = 0])", doc) == 20.0


class TestQueryEdgeCases:
    DOC = parse_document("<a><b/></a>")

    @pytest.mark.parametrize(
        "query",
        [
            "/..",                 # parent of root: empty, not an error
            "//b[0.5]",            # fractional position
            "//b[-1]",             # negative position
            "//b[position() = 0]",
            "(//b)[99]",
            "id('')",
            "substring('', 1)",
            "concat('', '')",
            "//b[. = .]",
            "-(-(-(1)))",
        ],
    )
    def test_no_crash(self, query):
        for engine in ("natix", "naive"):
            # must not raise
            evaluate(query, self.DOC, EvalOptions(engine=engine))

    def test_enormous_position_value(self):
        # (Exponent literals like 1e6 are not XPath; spell it out.)
        assert evaluate("//b[position() < 1000000]", self.DOC) != []

    def test_unparseable_raises_syntax_error(self):
        with pytest.raises(XPathSyntaxError):
            compile_xpath("//b[")


class TestScalarPlanContract:
    def test_plan_kind_mismatch_guarded(self):
        # The physical plan refuses to run a scalar plan as a sequence.
        from repro.engine.plan import PhysicalPlan

        with pytest.raises(ValueError):
            PhysicalPlan(
                root=None, runtime=None, manager=None, result_slot=0,
                kind="sideways",
            )
