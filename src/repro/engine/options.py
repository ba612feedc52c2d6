"""Per-call evaluation options and the mode values they share with
the engine, the CLIs and the wire protocol.

This module sits *below* the session layer so that
:class:`~repro.engine.session.XPathEngine`, :mod:`repro.api`, the
collection and the server can all import it without a cycle; it is
re-exported unchanged as ``repro.EvalOptions``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from typing import Dict, Mapping, Optional

from repro.engine.governor import CancelToken, ResourceGovernor
from repro.xpath.datamodel import XPathValue

#: Valid values of the ``index`` and ``codegen`` options.
INDEX_MODES = CODEGEN_MODES = ("auto", "off", "force")

#: The ``codegen`` mode of an engine, CLI or shard worker that is not
#: given one: generated Python from a plan's second execution on.
DEFAULT_CODEGEN = "auto"

#: Valid values of the ``optimizer`` option.
OPTIMIZER_MODES = ("heuristic", "cost")


@dataclass(frozen=True)
class EvalOptions:
    """Per-call evaluation options, as one frozen value object.

    Accepted uniformly by :func:`repro.evaluate` /
    :func:`repro.evaluate_concurrent`, every
    :class:`~repro.engine.session.XPathEngine` evaluation method, the
    CLI, the wire protocol and
    :class:`~repro.testing.oracle.DifferentialRunner` (as its
    ``governance``).  Being frozen and order-normalized it is usable
    directly as a cache or coalescing key: two instances built from the
    same settings (namespace mappings in any iteration order) are equal
    and hash alike.

    ``None`` for any field means "use the callee's default": an engine
    evaluates with its configured ``index``/``codegen``/``optimizer``
    mode unless the call overrides it.  ``optimizer`` selects plan
    choice only (``"heuristic"`` gates or the ``"cost"`` model, see
    ``docs/optimizer.md``) — answers are identical either way.
    ``engine`` names a :data:`~repro.api.ENGINE_REGISTRY` strategy and
    is consumed by one-shot :func:`repro.evaluate` (an
    :class:`XPathEngine` *is* the strategy, so its methods ignore the
    field).  ``variables`` may hold unhashable node-sets, so it is
    excluded from the hash (never from equality).
    """

    variables: Optional[Mapping[str, XPathValue]] = field(
        default=None, hash=False
    )
    namespaces: Optional[Mapping[str, str]] = None
    engine: Optional[str] = None
    timeout: Optional[float] = None
    max_tuples: Optional[int] = None
    max_bytes: Optional[int] = None
    cancel: Optional[CancelToken] = field(default=None, hash=False)
    index: Optional[str] = None
    codegen: Optional[str] = None
    optimizer: Optional[str] = None

    def __post_init__(self):
        namespaces = self.namespaces
        if namespaces is not None and not isinstance(namespaces, tuple):
            object.__setattr__(
                self, "namespaces", tuple(sorted(namespaces.items()))
            )
        for name, valid in (
            ("index", INDEX_MODES),
            ("codegen", CODEGEN_MODES),
            ("optimizer", OPTIMIZER_MODES),
        ):
            value = getattr(self, name)
            if value is not None and value not in valid:
                raise ValueError(
                    f"{name} must be one of {valid} or None, got {value!r}"
                )

    def namespace_map(self) -> Optional[Dict[str, str]]:
        """The namespace bindings as a plain dict (or ``None``)."""
        if self.namespaces is None:
            return None
        return dict(self.namespaces)

    def governed(self) -> bool:
        """Whether any resource limit or cancel token is set."""
        return (
            self.timeout is not None
            or self.max_tuples is not None
            or self.max_bytes is not None
            or self.cancel is not None
        )

    def governor(self) -> Optional[ResourceGovernor]:
        """A governor enforcing these limits, or ``None`` when there
        are none (the ungoverned fast path).

        The deadline is anchored *now*, so a governor built when a
        request is submitted also bounds the time it waits in a queue.
        """
        if not self.governed():
            return None
        return ResourceGovernor(
            timeout=self.timeout, max_tuples=self.max_tuples,
            max_bytes=self.max_bytes, cancel=self.cancel,
        )

    def replace(self, **changes) -> "EvalOptions":
        """A copy with the given fields replaced."""
        return _dc_replace(self, **changes)
