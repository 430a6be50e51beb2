"""The differential oracle: compiled monitor vs. reference semantics.

A scheduled run of a compiled (coop-mode) monitor produces a *commit order* —
the sequence of (thread, CCR label) pairs in the order their bodies ran under
the virtual monitor lock.  The oracle replays exactly that order through the
implicit-signal reference semantics (the AST interpreter of
:mod:`repro.semantics.state`) and flags every observable disagreement:

* **guard-violation** — the compiled monitor admitted a thread into a CCR
  whose guard is *false* in the reference state (a codegen or placement bug
  that broke mutual exclusion of the guard check);
* **lost-wakeup** — the run deadlocked while some sleeping thread's guard
  *holds* in the reference state: the implicit (automatic-signal) monitor
  would have woken it, so the generated signal placement dropped a required
  notification.  This is the bug class Theorem 4.1 rules out, checked
  executably;
* **state-divergence** — the run completed but the compiled monitor's shared
  fields disagree with the interpreter's (a compiled-body bug);
* **stall** (not a failure) — the run deadlocked but every sleeping guard is
  false in the reference state too: the implicit monitor is equally stuck,
  so the schedule merely exposed an unbalanced workload.

Because the reference replay interprets the original :class:`Monitor` AST,
the oracle cross-checks the entire pipeline — parsing, placement,
instrumentation and Python emission — against Definition 3.4's
"same commit order, same shared state" reading.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.pyexpr import python_identifier
from repro.lang.ast import Monitor
from repro.logic.evaluate import evaluate
from repro.record import record
from repro.semantics.state import MonitorState, Value


@record(frozen=True)
class OracleVerdict:
    """The oracle's judgement of one scheduled run."""

    ok: bool
    kind: Optional[str] = None     # guard-violation | lost-wakeup | state-divergence
    detail: str = ""               # | step-limit | error | stall (ok=True) | None

    def __init__(self, ok: bool, kind: Optional[str] = None, detail: str = "") -> None:
        # Spelled out: an explore pass builds ~2,300 (see ``repro.record``).
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "detail", detail)

    @property
    def is_failure(self) -> bool:
        return not self.ok


class ReferenceReplay:
    """Replay a commit order through the implicit-signal reference semantics."""

    def __init__(self, monitor: Monitor, programs: Sequence[Sequence[Tuple[str, tuple]]]):
        self.monitor = monitor
        self.state = MonitorState.initial(monitor)
        self._shared_names = monitor.field_names()
        self._programs = [list(program) for program in programs]
        # Per thread: (operation index, CCR index within the operation's method).
        self._position: Dict[int, Tuple[int, int]] = {
            tid: (0, 0) for tid in range(len(programs))
        }

    # -- stepping -------------------------------------------------------------

    def commit(self, tid: int, label: str) -> Optional[str]:
        """Replay one commit; returns a failure detail when the guard is false."""
        op_index, ccr_index = self._position[tid]
        program = self._programs[tid]
        if op_index >= len(program):
            raise ValueError(f"thread {tid} committed {label!r} past its program end")
        method_name, args = program[op_index]
        method = self.monitor.method(method_name)
        if ccr_index == 0:
            # Fresh method activation: bind parameters, drop stale locals.
            self.state.locals[tid] = dict(zip(method.param_names(), args))
        ccr = method.ccrs[ccr_index]
        if ccr.label != label:
            try:
                owner, _ccr = self.monitor.ccr_by_label(label)
                origin = f"; {label!r} belongs to method {owner.name!r}"
            except KeyError:
                origin = f"; {label!r} is unknown to the monitor"
            raise ValueError(
                f"thread {tid} committed {label!r} but its program expects "
                f"{ccr.label!r} — scheduler/program mismatch{origin}")
        guard_ok = bool(self.state.evaluate(ccr.guard, tid))
        self.state = self.state.run(ccr.body, tid, self._shared_names)
        if ccr_index + 1 < len(method.ccrs):
            self._position[tid] = (op_index, ccr_index + 1)
        else:
            self._position[tid] = (op_index + 1, 0)
        if not guard_ok:
            return (f"thread {tid} entered {label} while its guard is false "
                    f"in the reference state")
        return None

    # -- queries --------------------------------------------------------------

    def pending(self, tid: int) -> Optional[Tuple[str, object]]:
        """The (label, guard) the thread is about to attempt, if any."""
        op_index, ccr_index = self._position[tid]
        program = self._programs[tid]
        if op_index >= len(program):
            return None
        method = self.monitor.method(program[op_index][0])
        ccr = method.ccrs[ccr_index]
        return ccr.label, ccr.guard

    def pending_guard_true(self, tid: int) -> bool:
        """Would the implicit monitor admit *tid*'s next CCR right now?"""
        entry = self.pending(tid)
        if entry is None:
            return False
        _label, guard = entry
        return bool(evaluate(guard, self._guard_environment(tid)))

    def _guard_environment(self, tid: int) -> Dict[str, Value]:
        """σ(t, ·) for the pending guard, binding parameters when the thread
        blocked before its first commit of the current method."""
        op_index, ccr_index = self._position[tid]
        method_name, args = self._programs[tid][op_index]
        env: Dict[str, Value] = dict(self.state.shared)
        if ccr_index == 0:
            env.update(dict(zip(self.monitor.method(method_name).param_names(), args)))
        else:
            env.update(self.state.locals.get(tid, {}))
        return env

    def shared_mismatches(self, instance) -> List[Tuple[str, Value, Value]]:
        """(field, reference value, compiled value) triples that disagree."""
        mismatches = []
        for name, expected in sorted(self.state.shared.items()):
            actual = getattr(instance, python_identifier(name))
            if expected != actual:
                mismatches.append((name, expected, actual))
        return mismatches


class _TrieNode:
    """One commit-prefix of the reference replay, with its resulting state."""

    __slots__ = ("children", "state", "positions", "violation", "mismatch")

    def __init__(self, state: MonitorState, positions: Dict[int, Tuple[int, int]],
                 violation: Optional[str] = None, mismatch: Optional[str] = None):
        self.children: Dict[Tuple[int, str], "_TrieNode"] = {}
        self.state = state            # reference state AFTER this commit prefix
        self.positions = positions    # per-thread (op, ccr) positions
        self.violation = violation    # guard-violation detail at the last commit
        self.mismatch = mismatch      # commit-mismatch error at the last commit


class OracleCache:
    """Memoized differential oracle for one exploration campaign.

    Systematic exploration replays the same commit prefixes thousands of
    times (DFS siblings share everything up to their divergence; random walks
    repeat hot interleavings).  The cache interns reference-replay states in
    a trie keyed by commit prefix, so judging a run only interprets the
    commits the campaign has never seen in that order — a commit order seen
    verbatim costs a dictionary walk.  Complete verdicts are additionally
    memoized by (commit order, outcome, waiting set): generated coop classes
    mutate shared fields only inside committed CCR bodies, so the commit
    order determines the compiled shared state and the verdict is a pure
    function of the key.
    """

    def __init__(self, monitor: Monitor,
                 programs: Sequence[Sequence[Tuple[str, tuple]]]):
        self.monitor = monitor
        self.programs = programs
        self._stepper = ReferenceReplay(monitor, programs)
        self._root = _TrieNode(self._stepper.state.copy(),
                               dict(self._stepper._position))
        self._verdicts: Dict[tuple, OracleVerdict] = {}
        self.hits = 0
        self.misses = 0

    # -- trie -----------------------------------------------------------------

    def _child(self, node: _TrieNode, commit: Tuple[int, str]) -> _TrieNode:
        child = node.children.get(commit)
        if child is not None:
            return child
        stepper = self._stepper
        stepper.state = node.state.copy()
        stepper._position = dict(node.positions)
        try:
            detail = stepper.commit(*commit)
        except ValueError as exc:
            child = _TrieNode(node.state, node.positions, mismatch=str(exc))
        else:
            child = _TrieNode(stepper.state, dict(stepper._position),
                              violation=detail)
        node.children[commit] = child
        return child

    def _walk(self, commits) -> Tuple[Optional[_TrieNode], Optional[OracleVerdict]]:
        """Follow *commits* through the trie, extending it as needed."""
        node = self._root
        for commit in commits:
            node = self._child(node, commit)
            if node.mismatch is not None:
                return None, OracleVerdict(False, "commit-mismatch", node.mismatch)
            if node.violation is not None:
                return None, OracleVerdict(False, "guard-violation", node.violation)
        return node, None

    def _view(self, node: _TrieNode) -> ReferenceReplay:
        """A ReferenceReplay positioned at *node* (on copied state)."""
        stepper = self._stepper
        stepper.state = node.state.copy()
        stepper._position = dict(node.positions)
        return stepper

    # -- judging --------------------------------------------------------------

    def judge(self, result, instance) -> OracleVerdict:
        """Memoized equivalent of :func:`check_run` for complete runs."""
        key = (tuple(result.commits), result.outcome,
               tuple(sorted(result.waiting.items())))
        cached = self._verdicts.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        verdict = self._judge(result, instance)
        self._verdicts[key] = verdict
        return verdict

    def _judge(self, result, instance) -> OracleVerdict:
        if result.outcome == "error":
            return OracleVerdict(False, "error", result.error or "execution error")
        node, failure = self._walk(result.commits)
        if failure is not None:
            return failure
        if result.outcome == "step-limit":
            return OracleVerdict(False, "step-limit",
                                 f"schedule exceeded {result.steps} steps "
                                 f"without finishing")
        if result.outcome == "deadlock":
            view = self._view(node)
            for tid in sorted(result.waiting):
                if view.pending_guard_true(tid):
                    label, _guard = view.pending(tid)
                    return OracleVerdict(
                        False, "lost-wakeup",
                        f"thread {tid} sleeps on {label} although its guard "
                        f"holds in the reference state — the implicit monitor "
                        f"would wake it")
            return OracleVerdict(True, "stall",
                                 "every sleeping guard is false in the reference "
                                 "state (the implicit monitor is equally stuck)")
        mismatches = self._view(node).shared_mismatches(instance)
        if mismatches:
            rendered = ", ".join(f"{name}: reference={exp!r} compiled={act!r}"
                                 for name, exp, act in mismatches)
            return OracleVerdict(False, "state-divergence", rendered)
        return OracleVerdict(True)

    def judge_partial(self, result) -> OracleVerdict:
        """Judge the commits of a truncated run (merged / sleep-set pruned).

        Only per-commit failure classes (guard violations, commit mismatches)
        apply — completion classes (state divergence, lost wakeups) are
        checked on the full runs that cover the truncated run's subtree.
        """
        _node, failure = self._walk(result.commits)
        return failure if failure is not None else OracleVerdict(True)


def check_run(monitor: Monitor, programs: Sequence[Sequence[Tuple[str, tuple]]],
              instance, result) -> OracleVerdict:
    """Judge one :class:`~repro.explore.scheduler.RunResult` differentially."""
    if result.outcome == "error":
        return OracleVerdict(False, "error", result.error or "execution error")
    reference = ReferenceReplay(monitor, programs)
    try:
        for tid, label in result.commits:
            detail = reference.commit(tid, label)
            if detail is not None:
                return OracleVerdict(False, "guard-violation", detail)
    except ValueError as exc:
        # Wrong or out-of-order commit labels are themselves a pipeline-bug
        # class (mislabelled CCRs, broken emission): classify, don't crash.
        return OracleVerdict(False, "commit-mismatch", str(exc))
    if result.outcome == "step-limit":
        return OracleVerdict(False, "step-limit",
                             f"schedule exceeded {result.steps} steps without finishing")
    if result.outcome == "deadlock":
        for tid in sorted(result.waiting):
            if reference.pending_guard_true(tid):
                label, _guard = reference.pending(tid)
                return OracleVerdict(
                    False, "lost-wakeup",
                    f"thread {tid} sleeps on {label} although its guard holds in "
                    f"the reference state — the implicit monitor would wake it")
        return OracleVerdict(True, "stall",
                             "every sleeping guard is false in the reference state "
                             "(the implicit monitor is equally stuck)")
    mismatches = reference.shared_mismatches(instance)
    if mismatches:
        rendered = ", ".join(f"{name}: reference={exp!r} compiled={act!r}"
                             for name, exp, act in mismatches)
        return OracleVerdict(False, "state-divergence", rendered)
    return OracleVerdict(True)
