"""An incremental CDCL SAT solver: one clause database, queries under assumptions.

A :class:`~repro.smt.solver.Solver` keeps one instance for its lifetime: input
clauses, axioms, learned clauses, theory lemmas and their watch lists persist,
and each query is one :meth:`SatSolver.solve` under assumption literals
(MiniSat style).

* **Two-watched-literal propagation** visits only the clauses whose watched
  literal was just falsified.
* **1UIP learning** resolves a conflict back to the first unique implication
  point of its level and backjumps to the second highest level of the learned
  clause.  Assumptions take decision levels of their own, so a learned clause
  (RUP, like every 1UIP clause) follows from the database alone and stays
  valid for later queries.
* **Query cones**: only the *variables* of a solve are branched on or
  propagated; a clause with any other literal never propagates or conflicts,
  as if that literal were free.  A model needs only the cone's clauses and a
  refutation from part of the database is a refutation, so both answers
  stay sound.
* **Theory checks inside the search**: *check* may reject a complete
  assignment with a clause it falsifies (a theory lemma), which joins the
  database and is resolved like any conflict, without a restart.

Decisions take the unassigned cone variable with the most occurrences in
input clauses (learned clauses, lemmas and the axioms of
:meth:`SatSolver.add_axioms` do not count) plus those
:meth:`SatSolver.add_occurrences` counts, then the lowest id, positive phase
first.  Clauses containing ``x ∨ ¬x`` are dropped on add.
Every solve starts from an empty trail, asserts the unit clauses of its cone
at level 0, and undoes the trail before it returns.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence

Assignment = Dict[int, bool]
Check = Callable[[Assignment], Optional[Sequence[int]]]

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


class SatSolver:
    """CDCL solver over integer literals (positive index = true polarity)."""

    def __init__(self) -> None:
        self._has_empty_clause = False
        self._units: List[int] = []
        self._watched = 0  # clauses of two or more literals, learned included
        # watches[lit] = clauses currently watching literal `lit`.
        self._watches: Dict[int, List[List[int]]] = {}
        self._occurrences: Counter = Counter()
        # Per variable: value, decision level, reason clause (None for
        # decisions and units), and whether the current solve may assign it.
        self._values: List[int] = [_UNASSIGNED]
        self._levels: List[int] = [0]
        self._reasons: List[Optional[List[int]]] = [None]
        self._active = bytearray(1)
        self._trail: List[int] = []          # literals in assignment order
        self._level_starts: List[int] = []   # trail index at each decision
        self._head = 0                       # next trail literal to propagate
        #: Conflicts analysed over the solver's lifetime, lemmas included.
        self.conflicts = 0

    def _grow(self, num_vars: int) -> None:
        extra = num_vars + 1 - len(self._values)
        if extra > 0:
            self._values.extend([_UNASSIGNED] * extra)
            self._levels.extend([0] * extra)
            self._reasons.extend([None] * extra)
            self._active.extend(bytes(extra))

    def add_clause(self, clause: Sequence[int]) -> None:
        """Add a clause between solves; the empty clause makes every solve
        unsat.  Repeated literals are merged and tautologies dropped."""
        literals = list(dict.fromkeys(clause))
        if not literals:
            self._has_empty_clause = True
            return
        self._grow(max(map(abs, literals)))
        if not set(map(operator.neg, literals)).isdisjoint(literals):
            return
        self._occurrences.update(map(abs, literals))
        if len(literals) == 1:
            self._units.append(literals[0])
        else:
            self._attach(literals)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def add_axioms(self, clauses: Iterable[Sequence[int]]) -> None:
        """Add clauses over two or more distinct variables between solves;
        like learned clauses and lemmas, they do not count as occurrences."""
        for clause in clauses:
            self._grow(max(map(abs, clause)))
            self._attach(list(clause))

    def add_occurrences(self, literals: Iterable[int]) -> None:
        """Count one input occurrence for each literal's variable."""
        self._occurrences.update(map(abs, literals))

    def _attach(self, clause: List[int]) -> None:
        self._watched += 1
        self._watches.setdefault(clause[0], []).append(clause)
        self._watches.setdefault(clause[1], []).append(clause)

    @property
    def num_clauses(self) -> int:
        """Clauses in the database: input, axioms, learned and lemmas."""
        return self._watched + len(self._units)

    def solve(self, assumptions: Sequence[int] = (),
              variables: Optional[Iterable[int]] = None,
              check: Optional[Check] = None) -> Optional[Assignment]:
        """An assignment satisfying the clauses and *assumptions*, or None.

        *variables* is the query's cone (default: every variable of an input
        clause); the assignment covers it, the assumptions and the units.
        *check* sees every complete assignment: None accepts it, a clause the
        assignment falsifies rejects it and joins the database.
        """
        if self._has_empty_clause:
            return None
        # Most occurrences first, ties to the lowest id (the sort is stable).
        order = sorted(self._occurrences if variables is None else variables)
        order.sort(key=self._occurrences.__getitem__, reverse=True)
        touched = order + [abs(literal) for literal in assumptions]
        self._grow(max(touched, default=0))
        for var in touched:
            self._active[var] = 1
        try:
            return self._search(assumptions, order, check)
        finally:
            for literal in self._trail:
                self._values[abs(literal)] = _UNASSIGNED
            del self._trail[:], self._level_starts[:]
            self._head = 0
            for var in touched:
                self._active[var] = 0

    def _search(self, assumptions: Sequence[int], order: List[int],
                check: Optional[Check]) -> Optional[Assignment]:
        values = self._values
        for literal in self._units:
            if self._active[abs(literal)]:
                value = values[literal] if literal > 0 else -values[-literal]
                if value == _FALSE:
                    return None
                if value == _UNASSIGNED:
                    self._assign(literal, None)
        conflict = self._propagate()
        cursor = 0  # every variable before it in `order` is assigned
        while True:
            if conflict is not None:
                if not self._learn(conflict):
                    return None
                cursor = 0
                conflict = self._propagate()
                continue
            level = len(self._level_starts)
            if level < len(assumptions):
                literal = assumptions[level]
                value = values[literal] if literal > 0 else -values[-literal]
                if value == _FALSE:
                    return None
                self._level_starts.append(len(self._trail))
                if value == _TRUE:
                    continue  # an empty level keeps levels aligned
            else:
                while cursor < len(order) and values[order[cursor]] != _UNASSIGNED:
                    cursor += 1
                if cursor == len(order):
                    model = {abs(literal): literal > 0 for literal in self._trail}
                    lemma = None if check is None else check(model)
                    if lemma is None:
                        return model
                    conflict = self._add_falsified(lemma)
                    continue
                literal = order[cursor]
                self._level_starts.append(len(self._trail))
            self._assign(literal, None)
            conflict = self._propagate()

    def _assign(self, literal: int, reason: Optional[List[int]]) -> None:
        var = abs(literal)
        self._values[var] = _TRUE if literal > 0 else _FALSE
        self._levels[var] = len(self._level_starts)
        self._reasons[var] = reason
        self._trail.append(literal)

    def _propagate(self) -> Optional[List[int]]:
        """Propagate the unprocessed trail; return a falsified clause, or None
        when the assignment is propagation-complete."""
        trail = self._trail
        values = self._values
        levels = self._levels
        reasons = self._reasons
        active = self._active
        watches = self._watches
        level = len(self._level_starts)
        while self._head < len(trail):
            falsified = -trail[self._head]
            self._head += 1
            watchers = watches.get(falsified)
            if not watchers:
                continue
            keep: List[List[int]] = []
            for position, clause in enumerate(watchers):
                # Normalize so clause[0] is the other watched literal.
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                other = clause[0]
                other_value = values[other] if other > 0 else -values[-other]
                if other_value == _TRUE:
                    keep.append(clause)
                    continue
                for slot in range(2, len(clause)):  # a non-false replacement?
                    literal = clause[slot]
                    if (values[literal] if literal > 0 else -values[-literal]) != _FALSE:
                        clause[1] = literal
                        clause[slot] = falsified
                        watches.setdefault(literal, []).append(clause)
                        break
                else:
                    keep.append(clause)
                    if other_value == _FALSE:
                        # Conflict: restore the untraversed watchers and bail.
                        keep.extend(watchers[position + 1:])
                        watches[falsified] = keep
                        self._head = len(trail)
                        return clause
                    var = abs(other)
                    if active[var]:  # unit under the assignment
                        values[var] = _TRUE if other > 0 else _FALSE
                        levels[var] = level
                        reasons[var] = clause
                        trail.append(other)
            watches[falsified] = keep
        return None

    def _add_falsified(self, clause: Sequence[int]) -> List[int]:
        """Add a clause the assignment falsifies and return it as the conflict,
        watching its two highest-level literals (a unit is learned back)."""
        literals = list(dict.fromkeys(clause))
        literals.sort(key=lambda literal: -self._levels[abs(literal)])
        if len(literals) > 1:
            self._attach(literals)
        elif not literals:
            self._has_empty_clause = True
        return literals

    def _learn(self, conflict: List[int]) -> bool:
        """Learn the 1UIP clause of *conflict*, backjump and assert it; False
        when the conflict holds at level 0 (unsat)."""
        self.conflicts += 1
        levels = self._levels
        top = max((levels[abs(literal)] for literal in conflict), default=0)
        if top == 0:
            return False
        self._backtrack(top)  # a lemma may be falsified below the last level
        learned = self._analyze(conflict, top)
        if len(learned) == 1:
            self._backtrack(0)
            self._units.append(learned[0])
            self._assign(learned[0], None)
        else:
            self._backtrack(levels[abs(learned[1])])
            self._attach(learned)
            self._assign(learned[0], learned)
        return True

    def _analyze(self, conflict: List[int], level: int) -> List[int]:
        """The first-UIP clause: the asserting literal, then the literal of
        the highest remaining level, then the rest."""
        levels = self._levels
        trail = self._trail
        seen = set()
        learned = [0]
        pending = 0  # seen literals of `level` not yet resolved away
        index = len(trail) - 1
        clause = conflict
        while True:
            for literal in clause:
                var = abs(literal)
                if var not in seen and levels[var] > 0:
                    seen.add(var)
                    if levels[var] == level:
                        pending += 1
                    else:
                        learned.append(literal)
            while abs(trail[index]) not in seen:
                index -= 1
            implied = trail[index]
            index -= 1
            pending -= 1
            if pending == 0:
                break
            clause = self._reasons[abs(implied)]
        learned[0] = -implied
        if len(learned) > 2:
            best = max(range(1, len(learned)),
                       key=lambda slot: levels[abs(learned[slot])])
            learned[1], learned[best] = learned[best], learned[1]
        return learned

    def _backtrack(self, level: int) -> None:
        """Undo every decision level above *level*."""
        if len(self._level_starts) <= level:
            return
        mark = self._level_starts[level]
        for literal in self._trail[mark:]:
            self._values[abs(literal)] = _UNASSIGNED
        del self._trail[mark:]
        del self._level_starts[level:]
        self._head = mark
