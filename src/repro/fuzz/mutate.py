"""Structural mutation and crossover operators on monitor ASTs.

Each operator is a **named, seeded, individually testable transform**: it
takes a candidate (monitor source + workload roles + thread/op bounds), an
operator-local :class:`random.Random`, and optionally a mate (for crossover),
and returns a mutated candidate or ``None`` when it does not apply.  The
campaign records ``(operator name, operator seed, mate id)`` trails, so any
corpus entry can be rebuilt from the campaign seed plus its trail
(:func:`repro.fuzz.corpus.rebuild_source` tests exactly that).

Operators work on the parsed :class:`~repro.lang.ast.Monitor` — not on raw
text — and re-serialize through :func:`~repro.lang.pretty.pretty_monitor`,
which round-trips through the parser; CCR labels are re-assigned on re-parse,
so transforms never have to maintain them.  Every result is validated by a
full parse + check before it is returned: an operator either yields a
well-formed monitor or ``None``.  Every parse goes through
:func:`parse_source`, once per source text, so the campaign worker compiles
a mutant from the monitor its validation already built.
"""

from __future__ import annotations

import dataclasses
import random
import re
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.fuzz.generate import RoleSpec, family_lines
from repro.lang import load_monitor
from repro.lang.ast import CCR, MethodDecl, Monitor, Seq
from repro.lang.pretty import pretty_monitor
from repro.logic.terms import Expr, Ge, Gt, IntConst, Le, Lt
from repro.record import record


@record(frozen=True)
class Candidate:
    """A fuzzing input: monitor source, workload roles, and bounds."""

    name: str
    source: str
    roles: Tuple[RoleSpec, ...]
    threads: int
    ops: int

    def workload(self):
        from repro.fuzz.generate import balanced_workload

        return balanced_workload(self.roles, self.threads, self.ops)


if TYPE_CHECKING:  # for type checkers only (see repro.logic.build)
    #: Operator signature: (candidate, rng, mate) -> mutated candidate or None.
    Operator = Callable[[Candidate, random.Random, Optional[Candidate]],
                        Optional[Candidate]]

#: Growth caps: mutants stay small enough for bounded exploration to bite.
MAX_METHODS = 8
MAX_FIELDS = 10
THREAD_RANGE = (2, 4)
OPS_RANGE = (1, 3)


#: Entries one campaign reuse table holds before it is emptied.
REUSE_LIMIT = 128

#: Checked monitors by source text, shared by the operators and the campaign
#: worker.  Monitors are frozen, so a hit is as good as a parse;
#: ``run_campaign`` empties the table when it returns.
_PARSED: Dict[str, Monitor] = {}


def remember(table: dict, key, value) -> None:
    """Store one reuse-table entry, emptying the table at ``REUSE_LIMIT``."""
    if len(table) >= REUSE_LIMIT:
        table.clear()
    table[key] = value


def parse_source(source: str) -> Optional[Monitor]:
    """The checked monitor *source* loads to (``None`` if it does not load),
    parsed once per text."""
    monitor = _PARSED.get(source)
    if monitor is None:
        try:
            monitor = load_monitor(source)
        except Exception:
            return None
        remember(_PARSED, source, monitor)
    return monitor


def _emit(candidate: Candidate, monitor: Monitor,
          roles: Sequence[RoleSpec], suffix: str,
          threads: Optional[int] = None,
          ops: Optional[int] = None) -> Optional[Candidate]:
    """Serialize a mutated AST and validate it end to end (parse + check)."""
    name = f"{monitor.name}{suffix}" if suffix else monitor.name
    monitor = dataclasses.replace(monitor, name=_legal_name(name))
    source = pretty_monitor(monitor)
    if parse_source(source) is None:
        return None
    live_roles = _prune_roles(roles, monitor)
    if not live_roles:
        return None
    return Candidate(monitor.name, source, live_roles,
                     threads if threads is not None else candidate.threads,
                     ops if ops is not None else candidate.ops)


def _legal_name(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9_]", "", name)
    # Monitor names double as class-ish identifiers in reports; keep bounded.
    return cleaned[:48] or "FuzzMutant"


def _prune_roles(roles: Sequence[RoleSpec], monitor: Monitor) -> Tuple[RoleSpec, ...]:
    """Drop role ops whose method no longer exists, then empty roles."""
    known = set(method.name for method in monitor.methods)
    pruned: List[RoleSpec] = []
    for role in roles:
        kept = tuple(op for op in role if op[0] in known)
        if kept:
            pruned.append(kept)
    return tuple(pruned)


def _fresh_method_name(monitor: Monitor, base: str) -> str:
    existing = {method.name for method in monitor.methods}
    for k in range(1, 100):
        name = f"{base}_c{k}"
        if name not in existing:
            return name
    return f"{base}_cX"


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def clone_method(candidate: Candidate, rng: random.Random,
                 mate: Optional[Candidate] = None) -> Optional[Candidate]:
    """Duplicate one method under a fresh name and call it from a new role.

    The clone contends on the same guards/fields as the original, so it
    multiplies waiter diversity without changing the state space's fields.
    """
    monitor = parse_source(candidate.source)
    if monitor is None or len(monitor.methods) >= MAX_METHODS:
        return None
    method = rng.choice(monitor.methods)
    clone = dataclasses.replace(method,
                                name=_fresh_method_name(monitor, method.name))
    mutated = dataclasses.replace(monitor, methods=monitor.methods + (clone,))
    roles = list(candidate.roles)
    donor = next((role for role in roles
                  if any(op[0] == method.name for op in role)), None)
    if donor is not None:
        roles.append(tuple((clone.name if m == method.name else m, args, per_op)
                           for m, args, per_op in donor))
    else:
        roles.append(((clone.name, (), True),))
    return _emit(candidate, mutated, roles, "Cl")


def add_method(candidate: Candidate, rng: random.Random,
               mate: Optional[Candidate] = None) -> Optional[Candidate]:
    """Graft a freshly instantiated generator family onto the monitor."""
    monitor = parse_source(candidate.source)
    if monitor is None or len(monitor.methods) >= MAX_METHODS - 1:
        return None
    if len(monitor.fields) >= MAX_FIELDS - 1:
        return None
    from repro.fuzz.generate import _FAMILY_NAMES

    family = rng.choice(_FAMILY_NAMES)
    tag = _fresh_tag(monitor)
    _name, lines, family_roles = family_lines(family, rng, tag)
    trimmed = candidate.source.rstrip()
    if not trimmed.endswith("}"):
        return None
    source = trimmed[:-1] + "\n".join(lines) + "\n}"
    merged = parse_source(source)
    if merged is None:
        return None
    return _emit(candidate, merged, tuple(candidate.roles) + tuple(family_roles),
                 "Ad")


def _fresh_tag(monitor: Monitor) -> int:
    taken = set()
    for name in monitor.field_names():
        match = re.search(r"(\d+)$", name)
        if match:
            taken.add(int(match.group(1)))
    tag = 0
    while tag in taken:
        tag += 1
    return tag


def drop_method(candidate: Candidate, rng: random.Random,
                mate: Optional[Candidate] = None) -> Optional[Candidate]:
    """Remove one method (and the role ops that called it)."""
    monitor = parse_source(candidate.source)
    if monitor is None or len(monitor.methods) < 2:
        return None
    victim = rng.choice(monitor.methods)
    remaining = tuple(m for m in monitor.methods if m.name != victim.name)
    mutated = dataclasses.replace(monitor, methods=remaining)
    return _emit(candidate, mutated, candidate.roles, "Dr")


def _rewrite_guard_constant(guard: Expr, delta: int) -> Optional[Expr]:
    """Shift the constant side of the outermost integer comparison by *delta*.

    Results are clamped to [0, 9]: generated fields are unsigned-ish small
    counters, and a negative bound either trivializes or kills the guard
    rather than reshaping it.
    """
    for kind in (Lt, Le, Gt, Ge):
        if isinstance(guard, kind):
            if isinstance(guard.right, IntConst):
                value = guard.right.value + delta
                if not 0 <= value <= 9 or value == guard.right.value:
                    return None
                return dataclasses.replace(guard, right=IntConst(value))
            if isinstance(guard.left, IntConst):
                value = guard.left.value - delta
                if not 0 <= value <= 9 or value == guard.left.value:
                    return None
                return dataclasses.replace(guard, left=IntConst(value))
    return None


def _mutate_guards(candidate: Candidate, rng: random.Random,
                   delta_of, suffix: str) -> Optional[Candidate]:
    monitor = parse_source(candidate.source)
    if monitor is None:
        return None
    editable: List[Tuple[int, int]] = []
    for mi, method in enumerate(monitor.methods):
        for ci, ccr in enumerate(method.ccrs):
            if not ccr.is_trivial() and delta_of(ccr.guard) is not None:
                editable.append((mi, ci))
    if not editable:
        return None
    mi, ci = rng.choice(editable)
    method = monitor.methods[mi]
    ccr = method.ccrs[ci]
    new_guard = delta_of(ccr.guard)
    new_ccr = dataclasses.replace(ccr, guard=new_guard)
    new_method = dataclasses.replace(
        method, ccrs=method.ccrs[:ci] + (new_ccr,) + method.ccrs[ci + 1:])
    mutated = dataclasses.replace(
        monitor,
        methods=monitor.methods[:mi] + (new_method,) + monitor.methods[mi + 1:])
    return _emit(candidate, mutated, candidate.roles, suffix)


def widen_guard(candidate: Candidate, rng: random.Random,
                mate: Optional[Candidate] = None) -> Optional[Candidate]:
    """Relax one numeric guard bound (``x < c`` → ``x < c+1``)."""

    def widen(guard):
        if isinstance(guard, (Lt, Le)):
            return _rewrite_guard_constant(guard, +1)
        if isinstance(guard, (Gt, Ge)):
            return _rewrite_guard_constant(guard, -1)
        return None

    return _mutate_guards(candidate, rng, widen, "Wg")


def narrow_guard(candidate: Candidate, rng: random.Random,
                 mate: Optional[Candidate] = None) -> Optional[Candidate]:
    """Tighten one numeric guard bound (``x < c`` → ``x < c-1``)."""

    def narrow(guard):
        if isinstance(guard, (Lt, Le)):
            return _rewrite_guard_constant(guard, -1)
        if isinstance(guard, (Gt, Ge)):
            return _rewrite_guard_constant(guard, +1)
        return None

    return _mutate_guards(candidate, rng, narrow, "Ng")


def permute_statements(candidate: Candidate, rng: random.Random,
                       mate: Optional[Candidate] = None) -> Optional[Candidate]:
    """Swap two adjacent statements inside one CCR body.

    A swap that moves a local's use before its declaration fails the
    validating re-parse and the operator answers ``None``.
    """
    monitor = parse_source(candidate.source)
    if monitor is None:
        return None
    sites: List[Tuple[int, int]] = []
    for mi, method in enumerate(monitor.methods):
        for ci, ccr in enumerate(method.ccrs):
            if isinstance(ccr.body, Seq) and len(ccr.body.stmts) >= 2:
                sites.append((mi, ci))
    if not sites:
        return None
    mi, ci = rng.choice(sites)
    method = monitor.methods[mi]
    ccr = method.ccrs[ci]
    stmts = list(ccr.body.stmts)
    cut = rng.randrange(len(stmts) - 1)
    stmts[cut], stmts[cut + 1] = stmts[cut + 1], stmts[cut]
    new_ccr = dataclasses.replace(ccr, body=Seq(tuple(stmts)))
    new_method = dataclasses.replace(
        method, ccrs=method.ccrs[:ci] + (new_ccr,) + method.ccrs[ci + 1:])
    mutated = dataclasses.replace(
        monitor,
        methods=monitor.methods[:mi] + (new_method,) + monitor.methods[mi + 1:])
    return _emit(candidate, mutated, candidate.roles, "Pm")


def _rename_identifiers(source: str, names: Sequence[str], suffix: str) -> str:
    for name in sorted(names, key=len, reverse=True):
        source = re.sub(rf"\b{re.escape(name)}\b", f"{name}{suffix}", source)
    return source


def splice(candidate: Candidate, rng: random.Random,
           mate: Optional[Candidate] = None) -> Optional[Candidate]:
    """Crossover: merge the mate's fields/methods into the candidate.

    The mate's identifiers are suffix-renamed first, so the two monitors'
    regions coexist; the spliced workload runs both region's roles.
    """
    if mate is None:
        return None
    monitor = parse_source(candidate.source)
    mate_monitor = parse_source(mate.source)
    if monitor is None or mate_monitor is None:
        return None
    if (len(monitor.methods) + len(mate_monitor.methods) > MAX_METHODS
            or len(monitor.fields) + len(mate_monitor.fields) > MAX_FIELDS):
        return None
    mate_names = list(mate_monitor.field_names())
    mate_names += [method.name for method in mate_monitor.methods]
    renamed_source = _rename_identifiers(mate.source, mate_names, "s")
    renamed = parse_source(renamed_source)
    if renamed is None:
        return None
    ours = set(monitor.field_names()) | {m.name for m in monitor.methods}
    theirs = set(renamed.field_names()) | {m.name for m in renamed.methods}
    if ours & theirs:
        return None
    merged = dataclasses.replace(
        monitor,
        fields=monitor.fields + renamed.fields,
        methods=monitor.methods + renamed.methods,
        constants=monitor.constants + renamed.constants)
    mate_roles = tuple(
        tuple((f"{m}s", args, per_op) for m, args, per_op in role)
        for role in mate.roles)
    return _emit(candidate, merged, tuple(candidate.roles) + mate_roles, "Sp")


def resize_bounds(candidate: Candidate, rng: random.Random,
                  mate: Optional[Candidate] = None) -> Optional[Candidate]:
    """Re-draw the workload's thread/op bounds within the campaign range."""
    choices = [(threads, ops)
               for threads in range(THREAD_RANGE[0], THREAD_RANGE[1] + 1)
               for ops in range(OPS_RANGE[0], OPS_RANGE[1] + 1)
               if (threads, ops) != (candidate.threads, candidate.ops)]
    threads, ops = rng.choice(choices)
    return dataclasses.replace(candidate, threads=threads, ops=ops)


#: The operator registry, keyed by the names recorded in mutation trails.
OPERATORS: Dict[str, Operator] = {
    "add-method": add_method,
    "clone-method": clone_method,
    "drop-method": drop_method,
    "widen-guard": widen_guard,
    "narrow-guard": narrow_guard,
    "permute-statements": permute_statements,
    "splice": splice,
    "resize-bounds": resize_bounds,
}

#: Operators that need a second parent.
CROSSOVER_OPERATORS = frozenset({"splice"})


def apply_operator(name: str, candidate: Candidate, seed: int,
                   mate: Optional[Candidate] = None) -> Optional[Candidate]:
    """Apply one named operator with its own derived RNG (trail-replayable)."""
    operator = OPERATORS[name]
    return operator(candidate, random.Random(seed), mate)
