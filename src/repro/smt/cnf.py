"""CNF conversion of NNF formulas via the Plaisted–Greenbaum encoding.

The solver's boolean engine works on integer literals (DIMACS style: variable
indices start at 1, negative integers denote negation).  :class:`AtomTable`
gives every distinct atom (canonical arithmetic atom or boolean variable) a
variable, and every distinct And/Or node and boolean constant it encodes a
Tseitin variable whose definition clauses :func:`encode` emits once per
table.  A solver that keeps its table and SAT instance therefore loads a
subformula shared by many queries once.

Sharing is sound because NNF nodes occur only positively: a definition
``aux → …`` only constrains ``aux`` from above and is satisfied by
``aux = false``, so one query's definitions never restrict another's.
Asserting a formula's root literal over all definitions is equisatisfiable
with the formula, and its models restricted to atom variables are exactly the
formula's satisfying atom assignments.  The solver encodes a query
conjunct by conjunct and asserts every conjunct's root, so the query's own
conjunction gets no variable and no definition.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.logic.terms import And, BoolConst, Expr, Not, Or, is_atom

Clause = Tuple[int, ...]


class AtomTable:
    """The SAT variable of every atom, and for every encoded node its variable,
    the atoms beneath it (pre-order), their variables and its cone."""

    def __init__(self) -> None:
        self._vars: Dict[Expr, int] = {}
        self._nodes: Dict[Expr, Tuple[int, tuple, Tuple[int, ...], Tuple[int, ...]]] = {}
        #: Argument tuples of the encoded And nodes and of the conjunctions
        #: :meth:`first_conjunction` was asked about.
        self._conjunctions: Set[Tuple[Expr, ...]] = set()
        self.num_vars = 0

    def var_for(self, atom: Expr) -> int:
        var = self._vars.get(atom)
        if var is None:
            var = self._vars[atom] = self.fresh_var()
        return var

    def first_conjunction(self, conjuncts: Tuple[Expr, ...]) -> bool:
        """Whether *conjuncts* is new to the table, as an And node's arguments
        or as an earlier call's; it is not new afterwards."""
        if conjuncts in self._conjunctions:
            return False
        self._conjunctions.add(conjuncts)
        return True

    def fresh_var(self) -> int:
        self.num_vars += 1
        return self.num_vars


class CnfEncodingError(ValueError):
    """Raised when the input formula is not in the expected NNF shape."""


def encode(expr: Expr, table: AtomTable,
           atoms: Optional[Dict[Expr, int]] = None,
           cone: Optional[Set[int]] = None) -> Tuple[int, List[Clause]]:
    """``(root literal, definition clauses of the nodes new to table)``.

    Only the positive direction of each definition is emitted (Plaisted–
    Greenbaum), which the NNF input makes sufficient.  *atoms* receives every
    atom the formula maps through :meth:`AtomTable.var_for` as ``atom ->
    variable`` in first-visit order, left to right: the pre-order of
    :func:`repro.logic.terms.walk` restricted to atoms (boolean constants are
    not atoms here).  *cone* receives every variable of the formula, encoded
    now or earlier.  The solver uses them as the query's theory atoms and its
    branching cone.
    """
    clauses: List[Clause] = []
    root = _encode(expr, table, clauses, {} if atoms is None else atoms,
                   set() if cone is None else cone)
    return root, clauses


def _encode(expr: Expr, table: AtomTable, clauses: List[Clause],
            atoms: Dict[Expr, int], cone: Set[int]) -> int:
    if isinstance(expr, (And, Or, BoolConst)):
        var, keys, values, below = table._nodes.get(expr) or _define(expr, table, clauses)
        if var not in cone:
            atoms.update(zip(keys, values))
            cone.update(below)
        return var
    atom = expr.operand if isinstance(expr, Not) else expr
    if not is_atom(atom):
        raise CnfEncodingError(f"unexpected node {type(expr).__name__} in NNF formula")
    var = atoms[atom] = table.var_for(atom)
    cone.add(var)
    return var if atom is expr else -var


def _define(expr: Expr, table: AtomTable, clauses: List[Clause]) -> tuple:
    """Encode a node new to *table* and return its entry."""
    atoms: Dict[Expr, int] = {}
    cone: Set[int] = set()
    if isinstance(expr, BoolConst):
        # A constant is a variable pinned to the right polarity.
        var = table.fresh_var()
        clauses.append((var,) if expr.value else (-var,))
    else:
        literals = [_encode(arg, table, clauses, atoms, cone) for arg in expr.args]
        var = table.fresh_var()
        if isinstance(expr, And):
            table._conjunctions.add(expr.args)
            # aux -> lit_i  for every conjunct.
            clauses.extend((-var, literal) for literal in literals)
        else:
            # aux -> (lit_1 | ... | lit_n)
            clauses.append((-var, *literals))
    entry = table._nodes[expr] = (var, tuple(atoms), tuple(atoms.values()), (*cone, var))
    return entry
