"""The implicit-signal transition relation (paper Figure 4).

Configurations are ``(σ, B, N)`` where ``B`` is the set of blocked
(thread, CCR) pairs and ``N`` the set of notified pairs.  The four rules are:

* (1a) a thread blocks on a false guard it was not blocked on;
* (1b) a notified thread re-checks a still-false guard and goes back to sleep
  (a *spurious* notification — traces avoiding this rule are *normalized*);
* (2a) a non-blocked thread executes a CCR whose guard holds; every blocked
  pair whose guard became true is notified;
* (2b) the minimum notified pair executes its CCR, leaving ``B``/``N``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.lang.ast import CCR, Monitor
from repro.record import record
from repro.semantics.state import MonitorState
from repro.semantics.traces import Event

Pair = Tuple[int, str]


@record(frozen=True)
class Configuration:
    """An immutable ``(σ, B, N)`` configuration."""

    state: MonitorState
    blocked: FrozenSet[Pair]
    notified: FrozenSet[Pair]


@record(frozen=True)
class TraceOutcome:
    """Result of replaying a trace from an initial state."""

    feasible: bool
    final: Optional[Configuration] = None
    used_spurious_wakeup: bool = False

    @property
    def normalized(self) -> bool:
        """Whether the replay is a witness of normalization (no rule 1b used)."""
        return self.feasible and not self.used_spurious_wakeup


class ImplicitSemantics:
    """Executable form of the Figure 4 transition relation for one monitor."""

    def __init__(self, monitor: Monitor):
        self.monitor = monitor
        self._ccrs: Dict[str, CCR] = {ccr.label: ccr for _m, ccr in monitor.ccrs()}
        self._shared_names = monitor.field_names()

    def ccr(self, label: str) -> CCR:
        return self._ccrs[label]

    def initial_configuration(self, state: MonitorState) -> Configuration:
        return Configuration(state, frozenset(), frozenset())

    # -- single step ----------------------------------------------------------

    def step(self, config: Configuration, event: Event) -> Optional[Tuple[Configuration, bool]]:
        """Apply one event; returns (new config, used_rule_1b) or None if infeasible."""
        ccr = self._ccrs.get(event.ccr_label)
        if ccr is None:
            return None
        state = config.state
        guard_holds = bool(state.evaluate(ccr.guard, event.thread))
        pair = event.key

        if not event.entered:
            if guard_holds:
                return None
            if pair not in config.blocked:
                # Rule (1a): newly blocked.
                return (Configuration(state, config.blocked | {pair}, config.notified), False)
            if pair in config.notified:
                # Rule (1b): spurious wake-up, go back to sleep.
                return (Configuration(state, config.blocked, config.notified - {pair}), True)
            return None

        if not guard_holds:
            return None
        if pair in config.blocked:
            # Rule (2b): a previously blocked pair may only run once notified.
            # The paper totally orders notified events and runs the minimum;
            # because that order is chosen so that restriction commutes with
            # subsets (§ Appendix B), the executable model lets any notified
            # pair run, which is the standard "some woken thread wins" reading.
            if pair not in config.notified:
                return None
            new_state = state.run(ccr.body, event.thread, self._shared_names)
            newly_notified = self._notify_all_true(config.blocked - {pair}, new_state)
            notified = (config.notified | newly_notified) - {pair}
            return (Configuration(new_state, config.blocked - {pair}, notified), False)
        # Rule (2a): a fresh thread enters and executes.
        new_state = state.run(ccr.body, event.thread, self._shared_names)
        newly_notified = self._notify_all_true(config.blocked, new_state)
        return (Configuration(new_state, config.blocked, config.notified | newly_notified), False)

    def _notify_all_true(self, blocked: FrozenSet[Pair], state: MonitorState) -> Set[Pair]:
        """N′ of rules 2a/2b: blocked pairs whose guards became true."""
        notified: Set[Pair] = set()
        for thread, label in blocked:
            guard = self._ccrs[label].guard
            if bool(state.evaluate(guard, thread)):
                notified.add((thread, label))
        return notified

    # -- whole traces ---------------------------------------------------------

    def successors(self, config: Configuration, event: Event):
        """All successor configurations for *event* (deterministic: 0 or 1)."""
        step = self.step(config, event)
        return [step] if step is not None else []

    def run_trace(self, state: MonitorState, trace: Sequence[Event]) -> TraceOutcome:
        """Replay *trace* from *state*; feasibility follows Figure 4."""
        config = self.initial_configuration(state)
        used_1b = False
        for event in trace:
            step = self.step(config, event)
            if step is None:
                return TraceOutcome(False)
            config, spurious = step
            used_1b = used_1b or spurious
        return TraceOutcome(True, config, used_1b)
