"""The explicit-signal target language (paper §3.3).

A target-language ``waituntil`` carries two notification sets: ``Signals(w)``
(wake a single thread blocked on the predicate) and ``Broadcasts(w)`` (wake
all of them).  Each notification is a pair ``(p, c)`` with ``c ∈ {?, ✓}``:
``?`` means the predicate is evaluated at run time before notifying, ``✓``
means the notification is unconditional.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.logic import build
from repro.logic.pretty import pretty
from repro.logic.terms import Expr
from repro.lang.ast import FieldDecl, Param, Stmt
from repro.record import record


@record(frozen=True)
class Notification:
    """A placed notification ``(predicate, conditional, broadcast)``.

    ``conditional`` corresponds to the paper's ``?`` marker (evaluate the
    predicate at run time before waking anyone); ``broadcast`` selects
    ``signalAll`` over ``signal``.
    """

    predicate: Expr
    conditional: bool
    broadcast: bool

    @property
    def marker(self) -> str:
        """The paper's ``?`` / ``✓`` marker for this notification."""
        return "?" if self.conditional else "✓"

    def describe(self) -> str:
        kind = "broadcast" if self.broadcast else "signal"
        return f"{kind}[{self.marker}]({pretty(self.predicate)})"


@record(frozen=True)
class ExplicitCCR:
    """A target-language ``waituntil(guard){body; signal(S1); broadcast(S2)}``."""

    guard: Expr
    body: Stmt
    label: str
    notifications: Tuple[Notification, ...] = ()

    @property
    def signals(self) -> Tuple[Notification, ...]:
        """``Signals(w)`` — single-thread notifications."""
        return tuple(n for n in self.notifications if not n.broadcast)

    @property
    def broadcasts(self) -> Tuple[Notification, ...]:
        """``Broadcasts(w)`` — notify-all notifications."""
        return tuple(n for n in self.notifications if n.broadcast)


@record(frozen=True)
class ExplicitMethod:
    """An explicit-signal monitor method."""

    name: str
    params: Tuple[Param, ...]
    ccrs: Tuple[ExplicitCCR, ...]


@record(frozen=True)
class ExplicitMonitor:
    """An explicit-signal monitor: the output of the placement algorithm.

    ``condition_vars`` assigns a condition-variable name to every distinct
    waited-on guard (the §6 code-generation scheme); ``invariant`` records the
    monitor invariant used to justify the placement.
    """

    name: str
    fields: Tuple[FieldDecl, ...]
    methods: Tuple[ExplicitMethod, ...]
    condition_vars: Tuple[Tuple[Expr, str], ...]
    invariant: Expr
    constants: Tuple[Tuple[str, int], ...] = ()

    def condition_var_for(self, guard: Expr) -> Optional[str]:
        """The condition-variable name associated with *guard*, if any."""
        for predicate, name in self.condition_vars:
            if predicate == guard:
                return name
        return None

    def method(self, name: str) -> ExplicitMethod:
        for method in self.methods:
            if method.name == name:
                return method
        raise KeyError(name)

    def ccrs(self) -> Tuple[Tuple[ExplicitMethod, ExplicitCCR], ...]:
        """Every CCR with its enclosing method, as :meth:`Monitor.ccrs`."""
        return tuple((method, ccr) for method in self.methods for ccr in method.ccrs)

    def guards(self) -> Tuple[Expr, ...]:
        """The distinct non-trivial guards in declaration order, as
        :meth:`Monitor.guards`."""
        return tuple(dict.fromkeys(
            ccr.guard for _method, ccr in self.ccrs() if ccr.guard != build.TRUE))

    def total_notifications(self) -> int:
        """Total number of placed notifications (a code-quality metric)."""
        return sum(len(ccr.notifications) for method in self.methods for ccr in method.ccrs)

    def notification_sites(self) -> Tuple[Tuple[str, int], ...]:
        """Every placed notification as a (ccr_label, index) address."""
        sites = []
        for method in self.methods:
            for ccr in method.ccrs:
                for index in range(len(ccr.notifications)):
                    sites.append((ccr.label, index))
        return tuple(sites)

    def without_notification(self, ccr_label: str, index: int) -> "ExplicitMonitor":
        """A copy with one placed notification deleted (mutation testing).

        The exploration engine uses these mutants as injected lost-wakeup
        bugs: a correct placement minus one signal must be caught by the
        differential oracle, which validates the whole detection pipeline.
        """
        methods = []
        found = False
        for method in self.methods:
            ccrs = []
            for ccr in method.ccrs:
                if ccr.label == ccr_label:
                    if not 0 <= index < len(ccr.notifications):
                        raise IndexError(
                            f"{ccr_label} has {len(ccr.notifications)} notifications, "
                            f"cannot drop #{index}")
                    notifications = (ccr.notifications[:index]
                                     + ccr.notifications[index + 1:])
                    ccrs.append(ExplicitCCR(ccr.guard, ccr.body, ccr.label,
                                            notifications))
                    found = True
                else:
                    ccrs.append(ccr)
            methods.append(ExplicitMethod(method.name, method.params, tuple(ccrs)))
        if not found:
            raise KeyError(ccr_label)
        return ExplicitMonitor(
            name=self.name,
            fields=self.fields,
            methods=tuple(methods),
            condition_vars=self.condition_vars,
            invariant=self.invariant,
            constants=self.constants,
        )
