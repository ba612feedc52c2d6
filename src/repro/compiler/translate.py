"""Phase 5: translation of XPath ASTs into the logical algebra.

Implements the complete translation function T[·] of the paper's
section 3 — location paths (3.1), location steps (3.2), predicates
(3.3), filter expressions (3.4), general path expressions (3.5),
function calls including node-set comparisons and ``id()`` (3.6),
constants and variables (3.7) — together with the section-4
improvements selected by
:class:`~repro.compiler.improved.TranslationOptions`.

Attribute naming.  The paper names every step's output ``c_i`` and keeps
an invariant alias ``cn`` ("the node last added").  This translator
generates globally fresh attribute names (``c1``, ``c2``, ...) and tracks
the ``cn`` of each sub-plan as the plan's ``result_attr`` metadata; the
code generator's attribute manager realizes the paper's copy-free
aliasing (section 5.1).  The free context node of the whole expression
is the reserved attribute ``cn``, bound by the execution context; a
top-level ``position()``/``last()`` reads the reserved ``cp_top``/
``cs_top`` attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.algebra import operators as ops
from repro.algebra import scalar as S
from repro.algebra.properties import free_variables
from repro.compiler.improved import TranslationOptions
from repro.compiler.normalize import PredicateInfo, normalize
from repro.errors import TranslationError
from repro.xpath import functions as fnlib
from repro.xpath.axes import Axis
from repro.xpath.datamodel import XPathType
from repro.xpath.xast import (
    BinaryOp,
    Expr,
    FilterExpr,
    FunctionCall,
    Literal,
    LocationPath,
    Number,
    PathExpr,
    Predicate,
    Step,
    UnaryMinus,
    UnionExpr,
    VariableRef,
)

#: Reserved free attributes bound by the execution context.
TOP_CONTEXT_ATTR = "cn"
TOP_POSITION_ATTR = "cp_top"
TOP_SIZE_ATTR = "cs_top"
TOP_ATTRS = (TOP_CONTEXT_ATTR, TOP_POSITION_ATTR, TOP_SIZE_ATTR)


@dataclass(frozen=True)
class ScalarEnv:
    """Context for scalar translation inside one predicate level."""

    #: Attribute holding the context node of this level.
    context_attr: str
    #: Attribute holding ``position()`` at this level.
    cp_attr: str
    #: Attribute holding ``last()`` at this level.
    cs_attr: str
    #: Axis of the location step whose predicate we are inside
    #: (``None`` at the top level and in filter expressions) — drives the
    #: MemoX decision of section 4.2.2.
    outer_axis: Optional[Axis] = None


@dataclass
class TranslationResult:
    """Output of T[·] for a complete expression."""

    kind: str  # 'sequence' or 'scalar'
    plan: Optional[ops.Operator]
    scalar: Optional[S.Scalar]
    result_attr: Optional[str]


class Translator:
    """Stateful translator (fresh-name counter); one instance per query."""

    def __init__(self, options: Optional[TranslationOptions] = None):
        self.options = options or TranslationOptions()
        self._counter = 0

    # ------------------------------------------------------------------

    def fresh(self, prefix: str = "c") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def top_env(self) -> ScalarEnv:
        return ScalarEnv(TOP_CONTEXT_ATTR, TOP_POSITION_ATTR, TOP_SIZE_ATTR)

    def translate(self, expr: Expr) -> TranslationResult:
        """T[·] for a complete, analyzed and normalized expression."""
        env = self.top_env()
        if expr.static_type == XPathType.NODE_SET:
            plan, attr = self.seq_plan(expr, env)
            return TranslationResult("sequence", plan, None, attr)
        # Scalar or dynamically typed (a bare variable): evaluate as a
        # scalar — a node-set-valued variable simply passes through as
        # its (duplicate-free) list value.
        scalar = self.scalar(expr, env)
        return TranslationResult("scalar", None, scalar, None)

    # ------------------------------------------------------------------
    # Sequence-valued translation (node-set expressions)
    # ------------------------------------------------------------------

    def seq_plan(self, expr: Expr, env: ScalarEnv) -> Tuple[ops.Operator, str]:
        """Translate a node-set expression; output is duplicate-free."""
        if isinstance(expr, LocationPath):
            return self._location_path(expr, env)
        if isinstance(expr, PathExpr):
            return self._path_expr(expr, env)
        if isinstance(expr, FilterExpr):
            return self._filter_expr(expr, env)
        if isinstance(expr, UnionExpr):
            return self._union(expr, env)
        if isinstance(expr, VariableRef):
            attr = self.fresh()
            return ops.VarScan(expr.name, attr), attr
        if isinstance(expr, FunctionCall) and expr.name == "id":
            return self._id_call(expr, env)
        raise TranslationError(
            f"{type(expr).__name__} cannot be used as a node-set"
        )

    # -- location paths (3.1, 4.1, 4.2.1) -------------------------------

    def _location_path(
        self, path: LocationPath, env: ScalarEnv
    ) -> Tuple[ops.Operator, str]:
        start_attr = self.fresh()
        # Absolute paths root at the document, not at the local context:
        # deriving the root from the reserved top-level ``cn`` keeps
        # absolute inner paths free of predicate-context variables, so
        # they are translated "like outer paths" (section 4.2.2) and
        # their χ^mat/bound computations are context-independent.
        start_expr: S.Scalar = (
            S.SRoot(S.SAttr(TOP_CONTEXT_ATTR))
            if path.absolute
            else S.SAttr(env.context_attr)
        )
        plan: ops.Operator = ops.MapOp(
            ops.SingletonScan(), start_attr, start_expr, is_result=True
        )
        return self._apply_steps(plan, start_attr, path.steps, env)

    def _apply_steps(
        self,
        plan: ops.Operator,
        current_attr: str,
        steps: List[Step],
        env: ScalarEnv,
    ) -> Tuple[ops.Operator, str]:
        deduped = True  # the single start tuple is trivially duplicate-free
        for step in steps:
            plan, current_attr, deduped = self._apply_step(
                plan, current_attr, step, env, deduped
            )
        # Canonical translation: one final Π^D on cn, unconditionally
        # (3.1.1).  With pushed duplicate elimination (4.1) the Π^D after
        # every ppd step makes the output provably duplicate-free, so the
        # final one is only needed when the proof fails.
        if steps and (not deduped or not self.options.push_dup_elimination):
            plan = ops.ProjectDup(plan, current_attr)
        return plan, current_attr

    def _apply_step(
        self,
        plan: ops.Operator,
        in_attr: str,
        step: Step,
        env: ScalarEnv,
        input_deduped: bool,
    ) -> Tuple[ops.Operator, str, bool]:
        """One location step; returns (plan, out_attr, provably_dedup)."""
        from repro.xpath.axes import ppd

        out_attr = self.fresh()
        if self.options.stacked:
            # Stacked translation (4.2.1): the unnest-map consumes the
            # previous pipeline directly.
            step_plan: ops.Operator = ops.UnnestMap(
                plan, in_attr, out_attr, step.axis, step.test_kind,
                step.test_name,
            )
            step_plan = self._apply_step_predicates(
                step_plan, step, in_attr, out_attr, stacked=True
            )
        else:
            # Canonical translation (3.1.1): a d-join whose dependent side
            # evaluates the step for the context node handed over in
            # ``in_attr`` (a free variable of the dependent side).
            dependent: ops.Operator = ops.UnnestMap(
                ops.SingletonScan(), in_attr, out_attr, step.axis,
                step.test_kind, step.test_name,
            )
            dependent = self._apply_step_predicates(
                dependent, step, in_attr, out_attr, stacked=False
            )
            step_plan = ops.DJoin(plan, dependent)

        if self.options.dedup_after_step(step.axis):
            return ops.ProjectDup(step_plan, out_attr), out_attr, True
        # A non-ppd step preserves duplicate-freeness but cannot create
        # it: duplicate inputs (canonical mode) yield duplicate outputs.
        return step_plan, out_attr, input_deduped and not ppd(step.axis)

    # -- predicates (3.3, 4.3) ------------------------------------------

    def _apply_step_predicates(
        self,
        plan: ops.Operator,
        step: Step,
        in_attr: str,
        out_attr: str,
        stacked: bool,
    ) -> ops.Operator:
        for predicate in step.predicates:
            plan = self._apply_predicate(
                plan,
                predicate,
                context_attr=out_attr,
                group_attr=in_attr if stacked else None,
                outer_axis=step.axis,
            )
        return plan

    def _apply_predicate(
        self,
        plan: ops.Operator,
        predicate: Predicate,
        context_attr: str,
        group_attr: Optional[str],
        outer_axis: Optional[Axis],
    ) -> ops.Operator:
        """Φ[p] — the predicate filtering functor (3.3/4.3.2).

        ``group_attr`` is the input context node attribute c_{i-1} for
        the stacked translation (position counters reset and Tmp^cs_c
        groups on it); ``None`` means each ``open()`` of the pipeline is
        one context (canonical d-join / filter expressions).
        """
        info = self._predicate_info(predicate)
        cp_attr = self.fresh("cp")
        cs_attr = self.fresh("cs")
        env = ScalarEnv(context_attr, cp_attr, cs_attr, outer_axis)

        if info.positional:
            plan = ops.PosMap(plan, cp_attr, context_attr=group_attr)

        if info.dynamic_truth:
            # Runtime dispatch: a numeric value is a position test,
            # anything else converts to boolean (spec 2.4).
            value = self._dynamic_value(predicate.expr, env)
            return ops.Select(
                plan, S.SFunc("pred_truth", (value, S.SAttr(cp_attr)))
            )

        if self.options.mat_expensive:
            clauses = info.ordered_clauses()
        else:
            clauses = list(info.clauses)
            # Canonical clause order (3.3.4): Tmp^cs before any selection
            # when last() occurs; emulate by putting last-clauses after
            # the materialization point but keeping relative order.
            clauses.sort(key=lambda c: c.uses_last)

        materialized = False
        for clause in clauses:
            if clause.uses_last and not materialized:
                plan = ops.TmpCs(plan, cs_attr, cp_attr, group_attr)
                materialized = True
            condition = self.operand_scalar(
                clause.expr, XPathType.BOOLEAN, env
            )
            if self.options.mat_expensive and clause.expensive:
                value_attr = self.fresh("v")
                plan = ops.MatMap(plan, value_attr, condition)
                plan = ops.Select(plan, S.SAttr(value_attr))
            else:
                plan = ops.Select(plan, condition)
        return plan

    @staticmethod
    def _predicate_info(predicate: Predicate) -> PredicateInfo:
        if not isinstance(predicate.info, PredicateInfo):
            raise TranslationError(
                "predicate was not normalized; run the full pipeline"
            )
        return predicate.info

    def _dynamic_value(self, expr: Expr, env: ScalarEnv) -> S.Scalar:
        """A runtime value preserving its dynamic type (for variables)."""
        if expr.static_type in (XPathType.NODE_SET,):
            plan, attr = self.seq_plan_memo(expr, env)
            return S.SNested(plan, "collect")
        return self.scalar(expr, env)

    # -- filter expressions (3.4) ---------------------------------------

    def _filter_expr(
        self, expr: FilterExpr, env: ScalarEnv
    ) -> Tuple[ops.Operator, str]:
        plan, attr = self.seq_plan(expr.primary, env)
        if any(
            self._predicate_info(p).positional for p in expr.predicates
        ):
            # Positional predicates on filter expressions count along the
            # child axis: establish document order first (3.4.2).
            plan = ops.SortOp(plan, attr)
        for predicate in expr.predicates:
            plan = self._apply_predicate(
                plan, predicate, context_attr=attr, group_attr=None,
                outer_axis=None,
            )
        return plan, attr

    # -- general path expressions (3.5) ----------------------------------

    def _path_expr(
        self, expr: PathExpr, env: ScalarEnv
    ) -> Tuple[ops.Operator, str]:
        source_plan, source_attr = self.seq_plan(expr.source, env)
        inner_env = replace(env, context_attr=source_attr)
        return self._apply_steps(
            source_plan, source_attr, expr.path.steps, inner_env
        )

    # -- unions (3.1.3) ----------------------------------------------------

    def _union(
        self, expr: UnionExpr, env: ScalarEnv
    ) -> Tuple[ops.Operator, str]:
        union_attr = self.fresh("u")
        branches: List[ops.Operator] = []
        for operand in expr.operands:
            plan, attr = self.seq_plan(operand, env)
            # The logical rename Π_{u:attr}; the attribute manager makes
            # this a register alias, not a copy.
            branches.append(
                ops.Project(plan, (attr,), renames={union_attr: attr},
                            result_attr=union_attr)
            )
        concat = ops.Concat(branches, union_attr)
        return ops.ProjectDup(concat, union_attr), union_attr

    # -- id() (3.6.3) -----------------------------------------------------

    def _id_call(
        self, call: FunctionCall, env: ScalarEnv
    ) -> Tuple[ops.Operator, str]:
        argument = call.args[0]
        token_attr = self.fresh("t")
        if argument.static_type == XPathType.NODE_SET:
            source_plan, source_attr = self.seq_plan(argument, env)
            tokens: ops.Operator = ops.ExprUnnestMap(
                source_plan,
                token_attr,
                S.STokenize(S.SStringValue(S.SAttr(source_attr))),
            )
        else:
            string_ir = self.operand_scalar(argument, XPathType.STRING, env)
            tokens = ops.ExprUnnestMap(
                ops.SingletonScan(), token_attr, S.STokenize(string_ir)
            )
        out_attr = self.fresh()
        deref = ops.ExprUnnestMap(
            tokens, out_attr, S.SDeref(S.SAttr(token_attr))
        )
        return ops.ProjectDup(deref, out_attr), out_attr

    # ------------------------------------------------------------------
    # Inner paths with memoization (4.2.2)
    # ------------------------------------------------------------------

    def seq_plan_memo(
        self, expr: Expr, env: ScalarEnv
    ) -> Tuple[ops.Operator, str]:
        """seq_plan for a nested path, optionally wrapped in MemoX."""
        plan, attr = self.seq_plan(expr, env)
        if self.options.memoize_inner_path(env.outer_axis):
            if env.context_attr in free_variables(plan):
                plan = ops.MemoX(plan, (env.context_attr,))
        return plan, attr

    # ------------------------------------------------------------------
    # Scalar translation
    # ------------------------------------------------------------------

    def operand_scalar(
        self, expr: Expr, target: XPathType, env: ScalarEnv
    ) -> S.Scalar:
        """Translate an operand and convert it to ``target``."""
        if expr.static_type == XPathType.NODE_SET:
            plan, attr = self.seq_plan_memo(expr, env)
            if target == XPathType.BOOLEAN:
                return S.SNested(plan, "exists")
            if target == XPathType.STRING:
                return S.SNested(plan, "first_string")
            if target == XPathType.NUMBER:
                return S.SConvert(
                    XPathType.NUMBER, S.SNested(plan, "first_string")
                )
            return S.SNested(plan, "collect")
        scalar = self.scalar(expr, env)
        if target in (XPathType.BOOLEAN, XPathType.NUMBER, XPathType.STRING):
            if expr.static_type != target:
                return S.SConvert(target, scalar)
        return scalar

    def scalar(self, expr: Expr, env: ScalarEnv) -> S.Scalar:
        """Translate a non-node-set expression to scalar IR."""
        if isinstance(expr, Number):
            return S.SConst(expr.value)
        if isinstance(expr, Literal):
            return S.SConst(expr.value)
        if isinstance(expr, VariableRef):
            return S.SVar(expr.name)
        if isinstance(expr, UnaryMinus):
            return S.SNeg(self.operand_scalar(expr.operand,
                                              XPathType.NUMBER, env))
        if isinstance(expr, BinaryOp):
            if expr.op in ("and", "or"):
                return S.SBool(
                    expr.op,
                    self.operand_scalar(expr.left, XPathType.BOOLEAN, env),
                    self.operand_scalar(expr.right, XPathType.BOOLEAN, env),
                )
            if expr.op in ("=", "!=", "<", "<=", ">", ">="):
                return self._comparison(expr.op, expr.left, expr.right, env)
            return S.SArith(
                expr.op,
                self.operand_scalar(expr.left, XPathType.NUMBER, env),
                self.operand_scalar(expr.right, XPathType.NUMBER, env),
            )
        if isinstance(expr, FunctionCall):
            return self._function_call(expr, env)
        raise TranslationError(
            f"{type(expr).__name__} cannot be translated as a scalar"
        )

    # -- node-set comparisons (3.6.2) -------------------------------------

    def _comparison(
        self, op: str, left: Expr, right: Expr, env: ScalarEnv
    ) -> S.Scalar:
        left_ns = left.static_type == XPathType.NODE_SET
        right_ns = right.static_type == XPathType.NODE_SET
        dynamic = (
            left.static_type == XPathType.ANY
            or right.static_type == XPathType.ANY
        )
        if dynamic:
            return S.SCmp(
                op, self._dynamic_value(left, env),
                self._dynamic_value(right, env),
            )
        if left_ns and right_ns:
            return self._nodeset_nodeset(op, left, right, env)
        if left_ns or right_ns:
            return self._nodeset_scalar(op, left, right, left_ns, env)
        return S.SCmp(op, self.scalar(left, env), self.scalar(right, env))

    def _nodeset_nodeset(
        self, op: str, left: Expr, right: Expr, env: ScalarEnv
    ) -> S.Scalar:
        left_plan, left_attr = self.seq_plan_memo(left, env)
        right_plan, right_attr = self.seq_plan_memo(right, env)
        left_sv = S.SStringValue(S.SAttr(left_attr))
        right_sv = S.SStringValue(S.SAttr(right_attr))

        if op == "=":
            join: ops.Operator = ops.SemiJoin(
                left_plan, right_plan, S.SCmp("=", left_sv, right_sv)
            )
            return S.SNested(join, "exists")
        if op == "!=":
            if self.options.paper_neq:
                # The paper's anti-join translation (3.6.2); differs from
                # the W3C semantics exactly when every left string-value
                # also occurs on the right but the right has more values.
                join = ops.AntiJoin(
                    left_plan, right_plan, S.SCmp("=", left_sv, right_sv)
                )
            else:
                join = ops.SemiJoin(
                    left_plan, right_plan, S.SCmp("!=", left_sv, right_sv)
                )
            return S.SNested(join, "exists")

        # Relational: compare against max(e2) for < <=, min(e2) for > >=.
        agg = "max" if op in ("<", "<=") else "min"
        bound_attr = self.fresh("m")
        annotated = ops.MatMap(
            left_plan, bound_attr, S.SNested(right_plan, agg)
        )
        selected = ops.Select(
            annotated,
            S.SCmp(
                op,
                S.SConvert(XPathType.NUMBER, left_sv),
                S.SAttr(bound_attr),
            ),
        )
        return S.SNested(selected, "exists")

    def _nodeset_scalar(
        self, op: str, left: Expr, right: Expr, left_ns: bool, env: ScalarEnv
    ) -> S.Scalar:
        nodes_expr, other_expr = (left, right) if left_ns else (right, left)
        other_type = other_expr.static_type

        if other_type == XPathType.BOOLEAN:
            # ns cmp bool: the node-set is converted with boolean() for
            # *every* operator (spec 3.4), so no existential scan —
            # relational operators then compare the two booleans as
            # numbers, which makes operand order significant.
            nodes_scalar = self.operand_scalar(
                nodes_expr, XPathType.BOOLEAN, env
            )
            other_scalar = self.scalar(other_expr, env)
            left_ir, right_ir = (
                (nodes_scalar, other_scalar)
                if left_ns
                else (other_scalar, nodes_scalar)
            )
            return S.SCmp(op, left_ir, right_ir)

        plan, attr = self.seq_plan_memo(nodes_expr, env)
        node_sv = S.SStringValue(S.SAttr(attr))
        if op in ("=", "!=") and other_type == XPathType.STRING:
            node_side: S.Scalar = node_sv
            other_side = self.scalar(other_expr, env)
        else:
            node_side = S.SConvert(XPathType.NUMBER, node_sv)
            other_side = self.operand_scalar(
                other_expr, XPathType.NUMBER, env
            )
        left_ir, right_ir = (
            (node_side, other_side) if left_ns else (other_side, node_side)
        )
        return S.SNested(
            ops.Select(plan, S.SCmp(op, left_ir, right_ir)), "exists"
        )

    # -- function calls (3.6) ---------------------------------------------

    def _function_call(self, call: FunctionCall, env: ScalarEnv) -> S.Scalar:
        name = call.name
        args = call.args

        if name == "position":
            return S.SAttr(env.cp_attr)
        if name == "last":
            return S.SAttr(env.cs_attr)
        if name == "true":
            return S.SConst(True)
        if name == "false":
            return S.SConst(False)
        if name == "not":
            return S.SNot(
                self.operand_scalar(args[0], XPathType.BOOLEAN, env)
            )
        if name == "boolean":
            return self.operand_scalar(args[0], XPathType.BOOLEAN, env)

        if name in ("count", "sum"):
            argument = args[0]
            if argument.static_type == XPathType.NODE_SET:
                plan, _attr = self.seq_plan_memo(argument, env)
                return S.SNested(plan, name)
            # A dynamically typed variable: check and count at runtime.
            return S.SFunc(name, (self._dynamic_value(argument, env),))

        if name == "string":
            if not args:
                return S.SStringValue(S.SAttr(env.context_attr))
            return self.operand_scalar(args[0], XPathType.STRING, env)
        if name == "number":
            if not args:
                return S.SConvert(
                    XPathType.NUMBER,
                    S.SStringValue(S.SAttr(env.context_attr)),
                )
            return self.operand_scalar(args[0], XPathType.NUMBER, env)
        if name in ("string-length", "normalize-space"):
            if not args:
                operand: S.Scalar = S.SStringValue(S.SAttr(env.context_attr))
            else:
                operand = self.operand_scalar(args[0], XPathType.STRING, env)
            return S.SFunc(name, (operand,))

        if name in ("name", "local-name", "namespace-uri"):
            builtin = {
                "name": "name_of",
                "local-name": "local_name_of",
                "namespace-uri": "namespace_uri_of",
            }[name]
            if not args:
                return S.SFunc(builtin, (S.SAttr(env.context_attr),))
            argument = args[0]
            if argument.static_type == XPathType.NODE_SET:
                plan, _attr = self.seq_plan_memo(argument, env)
                return S.SFunc(builtin, (S.SNested(plan, "first_node"),))
            return S.SFunc(builtin, (self._dynamic_value(argument, env),))

        if name == "lang":
            return S.SFunc(
                "lang_of",
                (
                    S.SAttr(env.context_attr),
                    self.operand_scalar(args[0], XPathType.STRING, env),
                ),
            )

        if name == "id":
            raise TranslationError(
                "id() in a scalar position must pass through operand_scalar"
            )

        # Remaining library functions take string/number parameters only
        # (3.6.1): translate arguments with their declared conversions.
        signature = fnlib.lookup(name)
        translated = tuple(
            self.operand_scalar(arg, signature.param_type(index), env)
            for index, arg in enumerate(args)
        )
        return S.SFunc(name, translated)


def translate(
    expr: Expr, options: Optional[TranslationOptions] = None
) -> TranslationResult:
    """Convenience: translate an analyzed + normalized expression."""
    return Translator(options).translate(expr)
