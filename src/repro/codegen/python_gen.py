"""Executable Python code generation for the three signalling disciplines.

Given an :class:`~repro.placement.target.ExplicitMonitor` (for the explicit
discipline) or a plain :class:`~repro.lang.ast.Monitor` (for the automatic
ones), the generators emit a self-contained Python class whose methods take
the monitor's parameters and perform real ``threading`` synchronization:

* :func:`generate_python_explicit` — a
  :class:`~repro.runtime.explicit_support.Condvar` per waited-on guard,
  statically placed (conditional/unconditional, signal/broadcast)
  notifications; guards with thread-local variables use the §6 waiter-snapshot
  table (:class:`repro.runtime.explicit_support.GuardWaiters`);
* :func:`generate_python_implicit` — the naive broadcast-everything runtime;
* :func:`generate_python_autosynch` — the AutoSynch-style predicate-tagging
  runtime.

Threaded classes wait and notify through
:class:`~repro.runtime.explicit_support.Condvar`, never
``threading.Condition``; with ``coop=True`` the generators emit generator
methods for the cooperative scheduler instead, which import no condition
variable at all.

Every generated class exposes ``metrics`` (a
:class:`~repro.runtime.explicit_support.MonitorMetrics`) so the harness can
report wake-ups, spurious wake-ups and run-time predicate evaluations in
addition to wall-clock time.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.codegen.pyexpr import python_identifier, to_python
from repro.codegen.pystmt import stmt_to_python
from repro.logic.free_vars import ordered_free_vars
from repro.logic.terms import BOOL, Expr, INT
from repro.lang.ast import Monitor, Skip
from repro.lang.effects import stmt_effects
from repro.placement.target import ExplicitCCR, ExplicitMonitor, Notification


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _field_names(fields) -> FrozenSet[str]:
    return frozenset(decl.name for decl in fields)


def _field_init_lines(fields, field_names: FrozenSet[str], indent: int) -> List[str]:
    pad = "    " * indent
    lines = []
    for decl in fields:
        value = to_python(decl.init, field_names)
        lines.append(f"{pad}self.{python_identifier(decl.name)} = {value}")
    return lines


def _guard_locals(guard: Expr, field_names: FrozenSet[str]) -> List[str]:
    return sorted(var.name for var in ordered_free_vars(guard) if var.name not in field_names)


def _snapshot_expr(local_names: List[str]) -> str:
    entries = ", ".join(f"'{name}': {python_identifier(name)}" for name in local_names)
    return "{" + entries + "}"


def _waiter_predicate_lambda(guard: Expr, field_names: FrozenSet[str]) -> str:
    """A lambda evaluating *guard* against a waiter snapshot dict ``_w``."""
    def var(name: str) -> str:
        if name in field_names:
            return f"self.{python_identifier(name)}"
        return f"_w[{name!r}]"

    from repro.codegen.pyexpr import _render

    return "lambda _w: " + _render(guard, var, python=True)


def materialize_class(source: str, class_name: str):
    """Execute generated source and return the class object."""
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<generated {class_name}>", "exec"), namespace)
    return namespace[class_name]


def _module_preamble(coop: bool, runtimes: bool) -> List[str]:
    """The generated module's header: only threaded classes import
    ``threading`` and Condvar, only automatic-signal classes the runtimes."""
    support = "GuardWaiters, MonitorMetrics" if coop else "Condvar, GuardWaiters, MonitorMetrics"
    return [
        '"""Auto-generated monitor code — do not edit by hand."""',
        *([] if coop else ["import threading"]),
        "",
        f"from repro.runtime.explicit_support import {support}",
        *(["from repro.runtime.implicit import ImplicitRuntime",
           "from repro.runtime.autosynch import AutoSynchRuntime",
           "from repro.runtime.coop import CoopAutoSynchRuntime, CoopImplicitRuntime"]
          if runtimes else []),
        "",
        "",
    ]


# ---------------------------------------------------------------------------
# Explicit-signal generation (Expresso output and hand-written placements)
# ---------------------------------------------------------------------------


def _frozenset_literal(values) -> str:
    if not values:
        return "frozenset()"
    return "frozenset({" + ", ".join(repr(v) for v in sorted(values)) + "})"


def _footprints_literal(footprints: Dict) -> List[str]:
    """Source lines for a ``_coop_footprints`` class attribute (sorted, stable)."""
    lines = ["    _coop_footprints = {"]
    for name in sorted(footprints):
        fp = footprints[name]
        lines.append(
            f"        {name!r}: MethodFootprint("
            f"{_frozenset_literal(fp.reads)}, {_frozenset_literal(fp.writes)}, "
            f"{_frozenset_literal(fp.waits)}, {_frozenset_literal(fp.signals)}),")
    lines.append("    }")
    return lines


def placement_signature(placement) -> Tuple[Tuple, ...]:
    """The decision tuple of a :class:`~repro.placement.algorithm.PlacementResult`.

    One ``(ccr label, needs notification, conditional, broadcast,
    used §4.3)`` row per placement decision, in decision order — the shape
    the fuzzing campaign's placement coverage axis fingerprints, attached to
    coop classes so workers see the decisions without re-running placement.
    """
    return tuple(
        (decision.ccr_label, decision.needs_notification,
         decision.conditional, decision.broadcast,
         decision.used_commutativity)
        for decision in placement.decisions)


def _placement_literal(signature: Tuple[Tuple, ...]) -> List[str]:
    """Source lines for a ``_coop_placement`` class attribute."""
    lines = ["    _coop_placement = ("]
    for row in signature:
        lines.append(f"        {row!r},")
    lines.append("    )")
    return lines


def generate_python_explicit(explicit: ExplicitMonitor, class_name: Optional[str] = None,
                             coop: bool = False, footprints: Optional[Dict] = None,
                             placement: Optional[Tuple[Tuple, ...]] = None) -> str:
    """Generate an explicit-signal monitor class from a placed monitor.

    With ``coop=True`` the emitted methods are *generator functions* targeting
    the cooperative scheduler (:mod:`repro.explore.scheduler`) instead of real
    ``threading`` primitives: they yield ``("acquire",)`` / ``("wait", cond)``
    / ``("signal", cond)`` / ``("broadcast", cond)`` / ``("release",)`` at
    every synchronization point plus ``("commit", label)`` right before each
    CCR body, so the exploration engine controls every interleaving and the
    differential oracle can replay the commit order.

    *footprints* (``{method: MethodFootprint}``) and *placement* (the
    :func:`placement_signature`) are emitted as class attributes of coop
    classes, so parallel workers that rebuild the class from shipped source
    inherit the partial-order-reduction metadata without re-running any
    analysis.
    """
    class_name = class_name or f"{explicit.name}Explicit"
    field_names = _field_names(explicit.fields)
    guard_vars = {guard: name for guard, name in explicit.condition_vars}

    lines: List[str] = _module_preamble(coop, runtimes=False)
    if coop and footprints is not None:
        lines.insert(-2, "from repro.explore.strategies import MethodFootprint")
    lines.append(f"class {class_name}:")
    flavour = "cooperative explicit-signal" if coop else "explicit-signal"
    lines.append(f'    """{flavour.capitalize()} monitor for {explicit.name} (generated)."""')
    lines.append("")
    if coop and footprints is not None:
        lines.extend(_footprints_literal(footprints))
    if coop and placement is not None:
        lines.extend(_placement_literal(placement))
    if coop and (footprints is not None or placement is not None):
        lines.append("")
    lines.append("    def __init__(self):")
    if not coop:
        lines.append("        self._lock = threading.Lock()")
    lines.append("        self.metrics = MonitorMetrics()")
    lines.extend(_field_init_lines(explicit.fields, field_names, 2))
    for guard, cond_name in explicit.condition_vars:
        if not coop:
            lines.append(f"        self._{cond_name} = Condvar(self._lock)")
        if _guard_locals(guard, field_names):
            lines.append(f"        self._{cond_name}_waiters = GuardWaiters()")
    lines.append("")

    for method in explicit.methods:
        params = ", ".join(python_identifier(p.name) for p in method.params)
        signature = f"    def {method.name}(self{', ' + params if params else ''}):"
        lines.append(signature)
        if coop:
            lines.append("        yield (\"acquire\",)")
            lines.append("        self.metrics.operations += 1")
        else:
            lines.append("        with self._lock:")
            lines.append("            self.metrics.operations += 1")
        for ccr in method.ccrs:
            lines.extend(_explicit_ccr_lines(ccr, field_names, guard_vars, coop))
        if coop:
            lines.append("        yield (\"release\",)")
        lines.append("")
    return "\n".join(lines) + "\n"


def _explicit_ccr_lines(ccr: ExplicitCCR, field_names: FrozenSet[str],
                        guard_vars: Dict[Expr, str], coop: bool = False) -> List[str]:
    lines: List[str] = []
    # Coop methods run at method-body level; threaded ones inside `with self._lock:`.
    pad = "        " if coop else "            "
    body_indent = 2 if coop else 3
    if not ccr.guard == _TRUE:
        cond_name = guard_vars[ccr.guard]
        guard_py = to_python(ccr.guard, field_names)
        locals_in_guard = _guard_locals(ccr.guard, field_names)
        if locals_in_guard:
            lines.append(f"{pad}_snapshot = {_snapshot_expr(locals_in_guard)}")
            lines.append(f"{pad}self._{cond_name}_waiters.register(_snapshot)")
        lines.append(f"{pad}self.metrics.predicate_evaluations += 1")
        lines.append(f"{pad}while not {guard_py}:")
        lines.append(f"{pad}    self.metrics.waits += 1")
        if coop:
            lines.append(f"{pad}    yield (\"wait\", \"{cond_name}\")")
        else:
            lines.append(f"{pad}    self._{cond_name}.wait()")
        lines.append(f"{pad}    self.metrics.wakeups += 1")
        lines.append(f"{pad}    self.metrics.predicate_evaluations += 1")
        lines.append(f"{pad}    if not {guard_py}:")
        lines.append(f"{pad}        self.metrics.spurious_wakeups += 1")
        if locals_in_guard:
            lines.append(f"{pad}self._{cond_name}_waiters.deregister(_snapshot)")
    if coop:
        lines.append(f"{pad}yield (\"commit\", \"{ccr.label}\")")
    if not isinstance(ccr.body, Skip):
        lines.extend(stmt_to_python(ccr.body, field_names, indent=body_indent))
    for notification in ccr.notifications:
        lines.extend(_notification_lines(notification, field_names, guard_vars, pad, coop))
    return lines


def _notification_lines(notification: Notification, field_names: FrozenSet[str],
                        guard_vars: Dict[Expr, str], pad: str,
                        coop: bool = False) -> List[str]:
    cond_name = guard_vars.get(notification.predicate)
    if cond_name is None:
        return []
    locals_in_pred = _guard_locals(notification.predicate, field_names)
    counter = "broadcasts" if notification.broadcast else "signals"
    if coop:
        kind = "broadcast" if notification.broadcast else "signal"
        notify_line = f"yield (\"{kind}\", \"{cond_name}\")"
        broadcast_line = f"yield (\"broadcast\", \"{cond_name}\")"
    else:
        notify = "notify_all" if notification.broadcast else "notify"
        notify_line = f"self._{cond_name}.{notify}()"
        broadcast_line = f"self._{cond_name}.notify_all()"
    lines: List[str] = []
    if not notification.conditional:
        lines.append(f"{pad}self.metrics.{counter} += 1")
        lines.append(f"{pad}{notify_line}")
        return lines
    if locals_in_pred:
        # §6: consult the waiter-snapshot table to evaluate a predicate that
        # mentions another thread's locals; wake the whole queue (the woken
        # threads re-check their own guards), which is the fixed conservative
        # strategy the paper describes for local-variable predicates.
        predicate_lambda = _waiter_predicate_lambda(notification.predicate, field_names)
        lines.append(
            f"{pad}if self._{cond_name}_waiters.any_satisfied({predicate_lambda}, self.metrics):"
        )
        lines.append(f"{pad}    self.metrics.broadcasts += 1")
        lines.append(f"{pad}    {broadcast_line}")
        return lines
    predicate_py = to_python(notification.predicate, field_names)
    lines.append(f"{pad}self.metrics.predicate_evaluations += 1")
    lines.append(f"{pad}if {predicate_py}:")
    lines.append(f"{pad}    self.metrics.{counter} += 1")
    lines.append(f"{pad}    {notify_line}")
    return lines


# ---------------------------------------------------------------------------
# Automatic-signal generation (naive implicit and AutoSynch baselines)
# ---------------------------------------------------------------------------


def _method_local_names(monitor: Monitor, method) -> List[str]:
    """Non-parameter thread-local names assigned anywhere in *method*."""
    field_names = set(monitor.field_names())
    params = set(method.param_names())
    names: List[str] = []
    for ccr in method.ccrs:
        for name in sorted(stmt_effects(ccr.body).writes):
            if name not in field_names and name not in params and name not in names:
                names.append(name)
    return names


def _generate_runtime_class(monitor: Monitor, runtime_class: str, class_name: str,
                            coop: bool = False) -> str:
    field_names = _field_names(monitor.fields)
    lines: List[str] = _module_preamble(coop, runtimes=True)
    lines.append(f"class {class_name}:")
    lines.append(f'    """{runtime_class}-backed automatic monitor for {monitor.name}."""')
    lines.append("")
    lines.append("    def __init__(self):")
    lines.append(f"        self._rt = {runtime_class}()")
    lines.append("        self.metrics = self._rt.metrics")
    lines.extend(_field_init_lines(monitor.fields, field_names, 2))
    lines.append("")
    for method in monitor.methods:
        params = ", ".join(python_identifier(p.name) for p in method.params)
        lines.append(f"    def {method.name}(self{', ' + params if params else ''}):")
        # Locals may be set in one CCR and read in a later CCR's guard (e.g. a
        # ticket number), so they live at method scope and the per-CCR body
        # closures update them via ``nonlocal``.
        local_names = _method_local_names(monitor, method)
        for name in local_names:
            lines.append(f"        {python_identifier(name)} = 0")
        emitted = False
        for index, ccr in enumerate(method.ccrs):
            guard_py = to_python(ccr.guard, field_names)
            body_fn = f"_body_{index}"
            lines.append(f"        def {body_fn}():")
            if local_names:
                joined = ", ".join(python_identifier(name) for name in local_names)
                lines.append(f"            nonlocal {joined}")
            body_lines = stmt_to_python(ccr.body, field_names, indent=3)
            lines.extend(body_lines)
            if coop:
                lines.append(f"        yield from self._rt.execute("
                             f"lambda: {guard_py}, {body_fn}, \"{ccr.label}\")")
            else:
                lines.append(f"        self._rt.execute(lambda: {guard_py}, {body_fn})")
            emitted = True
        if not emitted:
            # Keep zero-CCR methods generators in coop mode (the scheduler
            # treats an immediately-exhausted frame as a completed operation).
            lines.append("        yield from ()" if coop else "        pass")
        lines.append("")
    return "\n".join(lines) + "\n"


def generate_python_implicit(monitor: Monitor, class_name: Optional[str] = None,
                             coop: bool = False) -> str:
    """Generate the broadcast-everything automatic monitor."""
    return _generate_runtime_class(monitor,
                                   "CoopImplicitRuntime" if coop else "ImplicitRuntime",
                                   class_name or f"{monitor.name}Implicit", coop)


def generate_python_autosynch(monitor: Monitor, class_name: Optional[str] = None,
                              coop: bool = False) -> str:
    """Generate the AutoSynch-style automatic monitor."""
    return _generate_runtime_class(monitor,
                                   "CoopAutoSynchRuntime" if coop else "AutoSynchRuntime",
                                   class_name or f"{monitor.name}AutoSynch", coop)


from repro.logic import TRUE as _TRUE  # noqa: E402  (import placed to avoid cycle noise)
