"""Cardinality estimation and cost modelling over logical plans.

The cost-based optimizer (``docs/optimizer.md``) needs two things the
heuristic gates never had: *how many tuples* flow through every operator
of a plan, and *what each operator pays* to produce them.  This module
supplies both, driven by the DataGuide path synopsis
(:class:`repro.index.synopsis.PathSynopsis`).

Cardinalities are **distributions over synopsis entries**, not plain
numbers: a node attribute's estimate says "36 nodes, all on the
``/xdoc/section/item`` path".  Location steps then *walk the DataGuide*
— a child step maps each frontier entry to its child entries, a
descendant step to the entries below it — so a query like
``/xdoc/entry`` is correctly estimated at zero even though the document
holds 216 ``entry`` elements on a deeper path.  Without a synopsis (no
store, or stale indexes) the estimator falls back to conservative
per-axis fanouts, so estimates always exist.

The same walk answers one question exactly: can the plan return
anything but the empty node-set on a document with this synopsis?  A
distribution whose entries are *complete* (its whole support) and
empty proves the stream empty; :attr:`PlanEstimates.empty` reports it
for the plan's result, and collection shard pruning
(``docs/collection.md``) reads nothing else.

Costs separate **data pages**, **index pages** (mirroring the buffer
manager's ``kind`` split) and **CPU** (per-``next()`` plus per-node
visit charges); :meth:`Cost.score` folds them into one comparable
number.  The unit is "one iterator step"; a page fault costs
:attr:`CostModel.page_cost` of them.

Everything here is *advisory*: estimates pick between plans that return
identical answers (index routing, memo placement), never between
different answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.algebra import operators as ops
from repro.algebra import scalar as S
from repro.compiler.translate import TOP_CONTEXT_ATTR
from repro.index.synopsis import (
    KIND_ATTRIBUTE,
    KIND_ELEMENT,
    ROOT_ENTRY,
    PathSynopsis,
)
from repro.xpath.axes import Axis, NodeTestKind

#: Entry-count maps: synopsis entry index -> expected number of stream
#: tuples whose node lies on that path (absolute, summed over the whole
#: stream; ``ROOT_ENTRY`` stands for the document root node).
EntryCounts = Dict[int, float]

#: Axes on which a ``node()`` test also reaches text, comment and PI
#: nodes — leaves the synopsis has no entries for.
_LEAF_AXES = (
    Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF,
    Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING,
)

#: Axes whose result from such a leaf is known: a leaf has no children,
#: descendants or attributes, and only ``node()`` selects it as itself.
_LEAF_KNOWN_AXES = (
    Axis.CHILD, Axis.DESCENDANT, Axis.ATTRIBUTE, Axis.SELF,
    Axis.DESCENDANT_OR_SELF,
)


@dataclass(frozen=True)
class Cost:
    """Page and CPU charges of (part of) a plan."""

    data_pages: float = 0.0
    index_pages: float = 0.0
    cpu: float = 0.0

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(
            self.data_pages + other.data_pages,
            self.index_pages + other.index_pages,
            self.cpu + other.cpu,
        )

    def score(self, model: "CostModel") -> float:
        """Single comparable number (CPU units)."""
        return (self.data_pages + self.index_pages) * model.page_cost + self.cpu


ZERO_COST = Cost()


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the cost formulas.

    The page geometry mirrors the storage layer (small fixed-size node
    records, dense posting/extent arrays); the CPU charges are relative
    — only ratios matter, the unit is one iterator transition.
    """

    #: Stored node records per data page (record slots are small).
    records_per_page: float = 24.0
    #: Posting-list node ids per index page.
    ids_per_index_page: float = 256.0
    #: (pre, post) extents per index page.
    extents_per_index_page: float = 128.0
    #: One page fault costs this many CPU units.
    page_cost: float = 40.0
    #: Visiting (loading + testing) one candidate node.
    cpu_visit: float = 1.0
    #: Producing one output tuple (one ``next()``).
    cpu_next: float = 0.1
    #: One index probe per context tuple (helper call, extent lookup,
    #: two posting-list bisects, slice), in node visits.  Measured on
    #: generated code, not guessed: 1.6–2.1 µs against ~70 ns per
    #: rejected child (docs/optimizer.md has the calibration).
    cpu_bisect: float = 25.0
    #: Default selectivity of a predicate with unknown shape.
    select_selectivity: float = 0.5
    #: Child/NODE steps also enumerate text nodes the synopsis ignores.
    text_fudge: float = 1.25
    #: Fraction of nodes a name test keeps when nothing is known.
    name_test_selectivity: float = 0.3
    #: Rows a ``$variable`` scan yields when nothing is known.
    default_var_rows: float = 4.0
    #: Rows an expression unnest (``id()`` tokenizing etc.) multiplies by.
    default_unnest_fanout: float = 4.0
    #: Per-probe charge of the memo table (hash + copy-out).
    memo_probe_cost: float = 0.5
    #: A memo whose producer costs no more than this (score units) is
    #: cheaper to recompute than to cache: the prune-memo rule drops it.
    memo_drop_threshold: float = 20.0
    #: Per-axis output fanout used when no synopsis applies.
    default_fanouts: Tuple[Tuple[Axis, float], ...] = (
        (Axis.CHILD, 4.0),
        (Axis.DESCENDANT, 16.0),
        (Axis.DESCENDANT_OR_SELF, 17.0),
        (Axis.SELF, 1.0),
        (Axis.PARENT, 1.0),
        (Axis.ATTRIBUTE, 1.0),
        (Axis.ANCESTOR, 2.0),
        (Axis.ANCESTOR_OR_SELF, 3.0),
        (Axis.FOLLOWING_SIBLING, 2.0),
        (Axis.PRECEDING_SIBLING, 2.0),
        (Axis.FOLLOWING, 8.0),
        (Axis.PRECEDING, 8.0),
        (Axis.NAMESPACE, 1.0),
    )

    def fanout(self, axis: Axis) -> float:
        for known, value in self.default_fanouts:
            if known == axis:
                return value
        return 4.0


DEFAULT_MODEL = CostModel()


@dataclass
class Dist:
    """Estimated tuple stream restricted to one node attribute.

    ``rows`` is the expected number of tuples; ``entries`` (when known)
    distributes them over synopsis entries and sums to ``rows``.
    ``complete`` says the entries are the stream's whole support: every
    node lies on one of their paths or — when ``leaves`` is set — is a
    text, comment or PI node, which has no entry.  Unknown entries
    (``None``) are never complete.
    """

    rows: float
    entries: Optional[EntryCounts] = None
    complete: bool = False
    leaves: bool = False

    @property
    def empty(self) -> bool:
        """Provably no node on a document with this synopsis."""
        return self.complete and self.entries == {} and not self.leaves

    def scaled(self, factor: float) -> "Dist":
        if factor == 1.0:
            return self
        entries = (
            {e: c * factor for e, c in self.entries.items()}
            if self.entries is not None
            else None
        )
        return Dist(self.rows * factor, entries, self.complete, self.leaves)


@dataclass
class OpEstimate:
    """Per-operator annotation: output rows and the operator's own cost."""

    label: str
    rows: float
    cost: Cost


@dataclass
class PlanEstimates:
    """Everything one estimation pass learned about a plan."""

    #: id(op) -> that operator's estimate.
    by_op: Dict[int, OpEstimate] = field(default_factory=dict)
    #: id(op) -> the *input* context distribution of each UnnestMap
    #: (including index scans) — what the route enumerator needs.
    unnest_inputs: Dict[int, Dist] = field(default_factory=dict)
    #: id(op) -> cumulative cost of the operator's whole subtree.
    subtree: Dict[int, Cost] = field(default_factory=dict)
    root_rows: float = 0.0
    total: Cost = ZERO_COST
    #: The plan provably returns the empty node-set on every document
    #: with the estimator's synopsis.  Never set for a plan that reads a
    #: variable: evaluating it on a non-empty stream may raise instead.
    empty: bool = False

    def rows_of(self, op: ops.Operator) -> Optional[float]:
        estimate = self.by_op.get(id(op))
        return None if estimate is None else estimate.rows


class PlanEstimator:
    """Bottom-up cardinality + cost estimation of one logical plan.

    A single instance is cheap and stateless between :meth:`estimate`
    calls; ``synopsis`` may be ``None`` (defaults-only mode).
    """

    def __init__(self, synopsis: Optional[PathSynopsis] = None,
                 model: CostModel = DEFAULT_MODEL):
        self.synopsis = synopsis if synopsis and len(synopsis) else None
        self.model = model

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def estimate(self, plan: ops.Operator,
                 at_root: bool = False) -> PlanEstimates:
        """Estimate ``plan``; ``at_root`` binds its free context node to
        the document root (a collection shard's context), so relative
        paths walk the synopsis as well."""
        estimates = PlanEstimates()
        env: Dict[str, Dist] = {}
        if at_root:
            env[TOP_CONTEXT_ATTR] = Dist(1.0, {ROOT_ENTRY: 1.0}, complete=True)
        rows, out_env = self._visit(plan, env, estimates)
        estimates.root_rows = rows
        estimates.total = estimates.subtree.get(id(plan), ZERO_COST)
        result = out_env.get(plan.result_attr)
        estimates.empty = (
            result is not None and result.empty
            and not _reads_variables(plan)
        )
        return estimates

    def navigation_cost(self, in_dist: Dist, axis: Axis,
                        test_kind: NodeTestKind,
                        test_name: Optional[str]) -> Cost:
        """What a plain navigating unnest-map would pay for this step."""
        out, visited = self._step(in_dist, axis, test_kind, test_name)
        return Cost(
            data_pages=visited / self.model.records_per_page,
            cpu=(visited * self.model.cpu_visit
                 + out.rows * self.model.cpu_next),
        )

    def index_scan_cost(self, in_dist: Dist, axis: Axis, name: str) -> Cost:
        """What an index scan (IdxName/IdxDesc) would pay for this step.

        Candidates are the *descendant* name matches below the context —
        both scans slice the posting list by the context's subtree
        interval, the child variant additionally parent-checks each
        candidate.
        """
        model = self.model
        candidates, _ = self._step(
            in_dist, Axis.DESCENDANT, NodeTestKind.NAME, name
        )
        global_count = self._global_count(name)
        # The posting list is decoded once per store open and cached;
        # the extent array is probed per context tuple.
        index_pages = (
            global_count / model.ids_per_index_page
            + in_dist.rows / model.extents_per_index_page
        )
        # Every candidate is re-loaded for the exactness re-test (and,
        # for the child variant, the parent check): a data-page touch.
        check_factor = 2.0 if axis == Axis.CHILD else 1.0
        return Cost(
            data_pages=candidates.rows / model.records_per_page,
            index_pages=index_pages,
            cpu=(in_dist.rows * model.cpu_bisect
                 + candidates.rows * model.cpu_visit * check_factor
                 + candidates.rows * model.cpu_next),
        )

    # ------------------------------------------------------------------
    # recursion
    # ------------------------------------------------------------------

    def _visit(self, op: ops.Operator, env: Dict[str, Dist],
               estimates: PlanEstimates) -> Tuple[float, Dict[str, Dist]]:
        """Returns (stream rows, attr -> distribution) below ``op``."""
        model = self.model
        handler = getattr(self, "_visit_" + type(op).__name__, None)
        children_cost = ZERO_COST
        sub_env = None
        if handler is not None:
            result = handler(op, env, estimates)
            if len(result) == 4:
                # Handlers may name a distinct environment for their
                # subscripts (a Select's predicate sees the *input*
                # stream, not the filtered output).
                rows, out_env, own, sub_env = result
            else:
                rows, out_env, own = result
            for child in op.children():
                children_cost += estimates.subtree.get(id(child), ZERO_COST)
        else:
            # Unknown operator: pass the first child through unchanged.
            rows, out_env = 1.0, dict(env)
            for child in op.children():
                rows, out_env = self._visit(child, env, estimates)
                children_cost += estimates.subtree.get(id(child), ZERO_COST)
            own = Cost(cpu=rows * model.cpu_next)
        own += self._subscript_cost(
            op, out_env if sub_env is None else sub_env, estimates
        )
        estimates.by_op[id(op)] = OpEstimate(op.label(), rows, own)
        estimates.subtree[id(op)] = own + children_cost
        return rows, out_env

    def _subscript_cost(self, op: ops.Operator, env: Dict[str, Dist],
                        estimates: PlanEstimates) -> Cost:
        """Charge plans nested in this operator's subscripts.

        Nested plans see the consumer's environment: their anchoring
        ``χ[alias:outer_attr]`` map then restores the absolute row count
        (the plan runs once per consumer tuple).
        """
        nested_cost = ZERO_COST
        for subscript in op.subscripts():
            for nested in S.nested_plans(subscript):
                self._visit(nested.plan, env, estimates)
                nested_cost += estimates.subtree.get(
                    id(nested.plan), ZERO_COST
                )
        return nested_cost

    # -- leaves ---------------------------------------------------------

    def _visit_SingletonScan(self, op, env, estimates):
        return 1.0, dict(env), ZERO_COST

    def _visit_VarScan(self, op, env, estimates):
        rows = self.model.default_var_rows
        out_env = dict(env)
        out_env[op.attr] = Dist(rows, None)
        return rows, out_env, Cost(cpu=rows * self.model.cpu_next)

    # -- maps -----------------------------------------------------------

    def _map_like(self, op, env, estimates):
        rows, out_env = self._visit(op.child, env, estimates)
        dist: Optional[Dist] = None
        expr = op.expr
        if isinstance(expr, S.SRoot):
            dist = Dist(rows, {ROOT_ENTRY: rows}, complete=True)
        elif isinstance(expr, S.SAttr):
            known = out_env.get(expr.name)
            if known is not None:
                if isinstance(op.child, ops.SingletonScan):
                    # Nested-plan anchor (χ[alias:outer] over □): the
                    # plan runs once per outer tuple — restore the
                    # absolute stream size.
                    rows = known.rows
                dist = known
        out_env = dict(out_env)
        out_env[op.attr] = dist if dist is not None else Dist(rows, None)
        return rows, out_env, Cost(cpu=rows * self.model.cpu_next)

    _visit_MapOp = _map_like
    _visit_MatMap = _map_like

    def _visit_PosMap(self, op, env, estimates):
        rows, out_env = self._visit(op.child, env, estimates)
        out_env = dict(out_env)
        out_env[op.attr] = Dist(rows, None)
        return rows, out_env, Cost(cpu=rows * self.model.cpu_next)

    # -- steps ----------------------------------------------------------

    def _visit_UnnestMap(self, op, env, estimates):
        model = self.model
        rows, out_env = self._visit(op.child, env, estimates)
        in_dist = out_env.get(op.in_attr)
        if in_dist is None:
            in_dist = (
                Dist(rows, {ROOT_ENTRY: rows})
                if self.synopsis is not None and rows <= 1.0
                else Dist(rows, None)
            )
        estimates.unnest_inputs[id(op)] = in_dist
        if isinstance(op, (ops.IndexNameScan, ops.IndexDescendantScan)):
            out, _ = self._step(in_dist, op.axis, op.test_kind, op.test_name)
            own = self.index_scan_cost(in_dist, op.axis, op.test_name)
        else:
            out, visited = self._step(
                in_dist, op.axis, op.test_kind, op.test_name
            )
            own = Cost(
                data_pages=visited / model.records_per_page,
                cpu=(visited * model.cpu_visit
                     + out.rows * model.cpu_next),
            )
        out_env = dict(out_env)
        out_env[op.out_attr] = out
        return out.rows, out_env, own

    # Dispatch is by concrete type name; the index scans subclass
    # UnnestMap and share its handler (it branches on isinstance).
    _visit_IndexNameScan = _visit_UnnestMap
    _visit_IndexDescendantScan = _visit_UnnestMap

    def _visit_ExprUnnestMap(self, op, env, estimates):
        rows, out_env = self._visit(op.child, env, estimates)
        out_rows = rows * self.model.default_unnest_fanout
        out_env = dict(out_env)
        out_env[op.attr] = Dist(out_rows, None)
        return out_rows, out_env, Cost(cpu=out_rows * self.model.cpu_next)

    _visit_Unnest = _visit_ExprUnnestMap

    # -- filters and shapers --------------------------------------------

    def _visit_Select(self, op, env, estimates):
        rows, in_env = self._visit(op.child, env, estimates)
        predicate = op.predicate
        if isinstance(predicate, S.SConst) and predicate.value is True:
            factor = 1.0
        else:
            factor = self.model.select_selectivity
        out_env = {a: d.scaled(factor) for a, d in in_env.items()}
        return (rows * factor, out_env,
                Cost(cpu=rows * self.model.cpu_visit), in_env)

    def _visit_ProjectDup(self, op, env, estimates):
        rows, out_env = self._visit(op.child, env, estimates)
        dist = out_env.get(op.attr)
        out_rows = rows
        if dist is not None and dist.entries is not None:
            # Dedup caps each path at its document node count — a path
            # fully present stays fully present, only the over-counted
            # ones shrink (no global scaling).
            capped = {
                entry: min(count, self._entry_count(entry))
                for entry, count in dist.entries.items()
            }
            out_rows = min(rows, sum(capped.values()))
            out_env = dict(out_env)
            out_env[op.attr] = Dist(
                out_rows, capped, dist.complete, dist.leaves
            )
        elif rows > 0 and out_rows < rows:
            factor = out_rows / rows
            out_env = {a: d.scaled(factor) for a, d in out_env.items()}
        return out_rows, out_env, Cost(cpu=rows * self.model.cpu_visit)

    def _visit_Project(self, op, env, estimates):
        rows, out_env = self._visit(op.child, env, estimates)
        out_env = dict(out_env)
        for new, old in op.renames.items():
            if old in out_env:
                out_env[new] = out_env[old]
        return rows, out_env, Cost(cpu=rows * self.model.cpu_next)

    def _visit_SortOp(self, op, env, estimates):
        rows, out_env = self._visit(op.child, env, estimates)
        cpu = rows * math.log2(rows + 2.0) * self.model.cpu_visit
        return rows, out_env, Cost(cpu=cpu)

    def _visit_TmpCs(self, op, env, estimates):
        rows, out_env = self._visit(op.child, env, estimates)
        out_env = dict(out_env)
        out_env[op.cs_attr] = Dist(rows, None)
        # Materializes one context at a time: a visit + a next per tuple.
        cpu = rows * (self.model.cpu_visit + self.model.cpu_next)
        return rows, out_env, Cost(cpu=cpu)

    def _visit_MemoX(self, op, env, estimates):
        rows, out_env = self._visit(op.child, env, estimates)
        return rows, out_env, Cost(cpu=rows * self.model.memo_probe_cost)

    # -- combinators ----------------------------------------------------

    def _visit_Concat(self, op, env, estimates):
        total = 0.0
        merged: EntryCounts = {}
        entries_known = complete = True
        leaves = False
        for branch in op.inputs:
            rows, branch_env = self._visit(branch, env, estimates)
            total += rows
            dist = branch_env.get(op.result_attr)
            if dist is not None and dist.entries is not None:
                for entry, count in dist.entries.items():
                    merged[entry] = merged.get(entry, 0.0) + count
                complete = complete and dist.complete
                leaves = leaves or dist.leaves
            else:
                entries_known = False
        out_env = dict(env)
        out_env[op.result_attr] = (
            Dist(total, merged, complete, leaves)
            if entries_known and (merged or complete)
            else Dist(total, None)
        )
        return total, out_env, Cost(cpu=total * self.model.cpu_next)

    def _visit_CrossProduct(self, op, env, estimates):
        left_rows, left_env = self._visit(op.left, env, estimates)
        right_rows, right_env = self._visit(op.right, env, estimates)
        rows = left_rows * right_rows
        out_env = dict(left_env)
        out_env.update(right_env)
        factor = rows / right_rows if right_rows > 0 else 0.0
        if op.result_attr in out_env and factor != 1.0:
            out_env[op.result_attr] = out_env[op.result_attr].scaled(factor)
        return rows, out_env, Cost(cpu=rows * self.model.cpu_next)

    def _visit_DJoin(self, op, env, estimates):
        left_rows, left_env = self._visit(op.left, env, estimates)
        # The dependent side sees the left attributes as free variables;
        # its own estimate is already absolute under that environment.
        right_rows, right_env = self._visit(op.right, left_env, estimates)
        out_env = dict(left_env)
        out_env.update(right_env)
        return right_rows, out_env, Cost(
            cpu=(left_rows + right_rows) * self.model.cpu_next
        )

    def _semi_like(self, op, env, estimates):
        left_rows, left_env = self._visit(op.left, env, estimates)
        self._visit(op.right, left_env, estimates)
        factor = self.model.select_selectivity
        out_env = {a: d.scaled(factor) for a, d in left_env.items()}
        return left_rows * factor, out_env, Cost(
            cpu=left_rows * self.model.cpu_visit
        )

    _visit_SemiJoin = _semi_like
    _visit_AntiJoin = _semi_like

    def _visit_Aggregate(self, op, env, estimates):
        rows, _child_env = self._visit(op.child, env, estimates)
        out_env = dict(env)
        out_env[op.attr] = Dist(1.0, None)
        return 1.0, out_env, Cost(cpu=rows * self.model.cpu_visit)

    def _visit_BinaryGroup(self, op, env, estimates):
        left_rows, left_env = self._visit(op.left, env, estimates)
        right_rows, _ = self._visit(op.right, left_env, estimates)
        out_env = dict(left_env)
        out_env[op.attr] = Dist(left_rows, None)
        return left_rows, out_env, Cost(
            cpu=(left_rows + right_rows) * self.model.cpu_visit
        )

    # ------------------------------------------------------------------
    # DataGuide stepping
    # ------------------------------------------------------------------

    def _step(self, in_dist: Dist, axis: Axis, test_kind: NodeTestKind,
              test_name: Optional[str]) -> Tuple[Dist, float]:
        """Estimate one location step: (output dist, nodes visited).

        ``visited`` is what plain navigation enumerates before the node
        test (the whole subtree for descendant axes, all children for
        the child axis) — the basis of the navigation cost.
        """
        if in_dist.empty:
            # Nothing in, nothing out — whatever the axis or test.
            return Dist(0.0, {}, complete=True), 0.0
        synopsis = self.synopsis
        if (synopsis is None or in_dist.entries is None
                or test_kind in (NodeTestKind.COMMENT, NodeTestKind.PI)
                or (test_kind == NodeTestKind.NAME
                    and ":" in (test_name or ""))):
            # The synopsis records no comment/PI paths, and a prefixed
            # name matches by namespace URI, which it does not record.
            return self._default_step(in_dist, axis, test_kind, test_name)

        model = self.model
        out: EntryCounts = {}
        visited = 0.0
        default_rows = 0.0  # contributions with no entry attribution
        complete = in_dist.complete and (
            not in_dist.leaves or axis in _LEAF_KNOWN_AXES
        )
        leaves = test_kind == NodeTestKind.NODE and (
            axis in _LEAF_AXES or (axis == Axis.SELF and in_dist.leaves)
        )

        def emit(entry: int, count: float) -> None:
            if count > 0:
                out[entry] = out.get(entry, 0.0) + count

        for entry, count in in_dist.entries.items():
            share = self._share(entry, count)
            if axis == Axis.CHILD or axis == Axis.ATTRIBUTE:
                wanted = (
                    KIND_ATTRIBUTE if axis == Axis.ATTRIBUTE
                    else KIND_ELEMENT
                )
                for child in self._children(entry):
                    centry = synopsis.entries[child]
                    if centry.kind != wanted:
                        continue
                    visited += centry.count * share
                    if self._matches(centry.name, test_kind, test_name,
                                     centry.kind):
                        emit(child, centry.count * share)
            elif axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
                if axis == Axis.DESCENDANT_OR_SELF and entry != ROOT_ENTRY:
                    sentry = synopsis.entries[entry]
                    visited += count
                    if self._matches(sentry.name, test_kind, test_name,
                                     sentry.kind):
                        emit(entry, count)
                elif axis == Axis.DESCENDANT_OR_SELF:
                    visited += count
                    if test_kind == NodeTestKind.NODE:
                        emit(ROOT_ENTRY, count)
                for below in self._descendant_entries(entry):
                    bentry = synopsis.entries[below]
                    if bentry.kind != KIND_ELEMENT:
                        continue
                    visited += bentry.count * share
                    if self._matches(bentry.name, test_kind, test_name,
                                     bentry.kind):
                        emit(below, bentry.count * share)
            elif axis == Axis.SELF:
                visited += count
                if entry == ROOT_ENTRY:
                    if test_kind == NodeTestKind.NODE:
                        emit(entry, count)
                else:
                    sentry = synopsis.entries[entry]
                    if self._matches(sentry.name, test_kind, test_name,
                                     sentry.kind):
                        emit(entry, count)
            elif axis == Axis.PARENT:
                if entry == ROOT_ENTRY:
                    continue
                parent = synopsis.entries[entry].parent
                visited += count
                reach = min(count, self._entry_count(parent))
                if parent == ROOT_ENTRY:
                    if test_kind == NodeTestKind.NODE:
                        emit(parent, reach)
                else:
                    pentry = synopsis.entries[parent]
                    if self._matches(pentry.name, test_kind, test_name,
                                     pentry.kind):
                        emit(parent, reach)
            elif axis in (Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF):
                chain = entry
                if axis == Axis.ANCESTOR:
                    chain = (
                        ROOT_ENTRY if entry == ROOT_ENTRY
                        else synopsis.entries[entry].parent
                    )
                current = chain
                reach = count
                while True:
                    visited += reach
                    if current == ROOT_ENTRY:
                        if test_kind == NodeTestKind.NODE:
                            emit(current, reach)
                        break
                    aentry = synopsis.entries[current]
                    reach = min(reach, aentry.count)
                    if self._matches(aentry.name, test_kind, test_name,
                                     aentry.kind):
                        emit(current, reach)
                    current = aentry.parent
            elif axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
                if entry == ROOT_ENTRY:
                    continue
                parent = synopsis.entries[entry].parent
                parent_count = max(self._entry_count(parent), 1.0)
                for sibling in self._children(parent):
                    sentry = synopsis.entries[sibling]
                    if sentry.kind != KIND_ELEMENT:
                        continue
                    expected = 0.5 * count * sentry.count / parent_count
                    visited += expected
                    if self._matches(sentry.name, test_kind, test_name,
                                     sentry.kind):
                        emit(sibling, expected)
            else:
                # FOLLOWING / PRECEDING / NAMESPACE: no tree locality the
                # DataGuide can exploit — defaults for this entry.
                partial, partial_visited = self._default_step(
                    Dist(count, None), axis, test_kind, test_name
                )
                visited += partial_visited
                default_rows += partial.rows
                complete = False

        rows = sum(out.values()) + default_rows
        if test_kind == NodeTestKind.NODE and axis in (
            Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF
        ):
            # Text children exist but are not synopsis entries.
            rows *= model.text_fudge
            visited *= model.text_fudge
        if test_kind == NodeTestKind.TEXT:
            # Approximate: one text child per visited element — text
            # nodes have no synopsis entries, so no attribution.
            return Dist(visited, None), visited
        if default_rows:
            return Dist(rows, None), visited
        entries = {e: c for e, c in out.items() if c > 0}
        return Dist(rows, entries, complete, leaves), visited

    def _default_step(self, in_dist: Dist, axis: Axis,
                      test_kind: NodeTestKind,
                      test_name: Optional[str]) -> Tuple[Dist, float]:
        """Synopsis-free fallback: conservative per-axis fanouts."""
        model = self.model
        visited = in_dist.rows * model.fanout(axis)
        rows = visited
        if test_kind == NodeTestKind.NAME and test_name is not None:
            rows *= model.name_test_selectivity
        return Dist(rows, None), visited

    # -- synopsis helpers ----------------------------------------------

    def _children(self, entry: int) -> Tuple[int, ...]:
        return self.synopsis.children_of(entry)

    def _descendant_entries(self, entry: int) -> List[int]:
        below: List[int] = []
        stack = list(self._children(entry))
        while stack:
            current = stack.pop()
            below.append(current)
            stack.extend(self._children(current))
        return below

    def _entry_count(self, entry: int) -> float:
        if entry == ROOT_ENTRY:
            return 1.0
        if self.synopsis is None or entry >= len(self.synopsis.entries):
            return 1.0
        return float(self.synopsis.entries[entry].count)

    def _share(self, entry: int, count: float) -> float:
        """Fraction of the entry's document nodes present in the stream."""
        total = self._entry_count(entry)
        return min(count / total, 1.0) if total > 0 else 0.0

    def _global_count(self, name: str) -> float:
        if self.synopsis is not None:
            return float(self.synopsis.element_count(name))
        return self.model.default_var_rows * self.model.fanout(Axis.DESCENDANT)

    @staticmethod
    def _matches(name: str, test_kind: NodeTestKind,
                 test_name: Optional[str], kind: int) -> bool:
        if test_kind == NodeTestKind.NODE:
            return True
        if test_kind == NodeTestKind.NAME:
            return name == test_name
        if test_kind == NodeTestKind.ANY_NAME:
            return True
        # text()/comment()/pi() never match element or attribute entries.
        return False


def _reads_variables(plan: ops.Operator) -> bool:
    """Whether any operator of ``plan``, nested plans included, reads a
    ``$variable`` (an unbound or mistyped one raises at run time)."""
    return any(
        isinstance(op, ops.VarScan)
        or any(
            isinstance(node, S.SVar)
            for subscript in op.subscripts()
            for node in S.iter_scalar_tree(subscript)
        )
        for op in ops.plan_operators(plan)
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _round(value: float) -> float:
    return round(value, 3)


def explain_with_costs(plan: ops.Operator,
                       estimates: PlanEstimates) -> str:
    """The plan printer's tree, annotated with rows and cost per line."""
    lines: List[str] = []
    _render(plan, 0, lines, estimates)
    return "\n".join(lines)


def _render(op: ops.Operator, depth: int, lines: List[str],
            estimates: PlanEstimates) -> None:
    pad = "  " * depth
    suffix = f"  -> {op.result_attr}" if op.result_attr else ""
    estimate = estimates.by_op.get(id(op))
    note = ""
    if estimate is not None:
        cost = estimate.cost
        note = (
            f"  [rows≈{_round(estimate.rows)}"
            f" pages≈{_round(cost.data_pages + cost.index_pages)}"
            f" cpu≈{_round(cost.cpu)}]"
        )
    lines.append(f"{pad}{op.label()}{suffix}{note}")
    for subscript in op.subscripts():
        for nested in S.nested_plans(subscript):
            lines.append(f"{pad}  [nested {nested.agg}]")
            _render(nested.plan, depth + 2, lines, estimates)
    for child in op.children():
        _render(child, depth + 1, lines, estimates)


def summarize_plan(plan: ops.Operator,
                   estimates: Optional[PlanEstimates]) -> dict:
    """Deterministic JSON-friendly operator tree with estimates.

    The shape is the plan-corpus format (``tests/corpus/plans.json``):
    nested plans appear under ``"nested"``, children under
    ``"children"``; floats are rounded so replays compare exactly.
    """
    node: dict = {"op": plan.label()}
    if plan.result_attr:
        node["attr"] = plan.result_attr
    if estimates is not None:
        estimate = estimates.by_op.get(id(plan))
        if estimate is not None:
            node["rows"] = _round(estimate.rows)
            node["cost"] = {
                "data_pages": _round(estimate.cost.data_pages),
                "index_pages": _round(estimate.cost.index_pages),
                "cpu": _round(estimate.cost.cpu),
            }
    nested_nodes = []
    for subscript in plan.subscripts():
        for nested in S.nested_plans(subscript):
            nested_nodes.append({
                "agg": nested.agg,
                "plan": summarize_plan(nested.plan, estimates),
            })
    if nested_nodes:
        node["nested"] = nested_nodes
    children = [summarize_plan(child, estimates) for child in plan.children()]
    if children:
        node["children"] = children
    return node
