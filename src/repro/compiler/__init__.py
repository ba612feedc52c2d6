"""The six-phase XPath compiler (paper section 5.1).

(1) parsing — :mod:`repro.xpath.parser`,
(2) semantic analysis — :mod:`repro.compiler.semantic`,
(3) rewrite (constant folding) — :mod:`repro.compiler.rewrite`,
(4) normalization — :mod:`repro.compiler.normalize`,
(5) translation into the algebra — :mod:`repro.compiler.translate`
    with the improved-translation policies in
    :mod:`repro.compiler.improved`,
(5b) optional plan optimization — :mod:`repro.compiler.optimize`
    (cost model in :mod:`repro.compiler.cost`),
(6) physical plan generation (register layout, NQE iterators) —
    :mod:`repro.compiler.physical`; :mod:`repro.codegen` lowers the
    same plan to Python over the same layout.

:class:`repro.compiler.pipeline.XPathCompiler` orchestrates the phases.
"""

from repro.compiler.pipeline import CompiledQuery, XPathCompiler
from repro.compiler.improved import TranslationOptions

__all__ = ["XPathCompiler", "CompiledQuery", "TranslationOptions"]
