"""CNF conversion of NNF formulas via the Plaisted–Greenbaum encoding.

The solver's boolean engine works on integer literals (DIMACS style: variable
indices start at 1, negative integers denote negation).  :class:`AtomTable`
assigns an index to every distinct atom (canonical arithmetic atom or boolean
variable); :func:`encode` produces clauses that are equisatisfiable with the
input formula and whose satisfying assignments restricted to atom variables
are exactly the satisfying atom assignments of the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.logic.terms import And, BoolConst, Expr, Not, Or, Var, is_atom


@dataclass
class AtomTable:
    """Bidirectional mapping between atoms and SAT variable indices."""

    _atom_to_var: Dict[Expr, int] = field(default_factory=dict)
    _var_to_atom: Dict[int, Expr] = field(default_factory=dict)
    _next_var: int = 1

    def var_for(self, atom: Expr) -> int:
        if atom not in self._atom_to_var:
            index = self._next_var
            self._next_var += 1
            self._atom_to_var[atom] = index
            self._var_to_atom[index] = atom
        return self._atom_to_var[atom]

    def fresh_var(self) -> int:
        index = self._next_var
        self._next_var += 1
        return index

    def atom_for(self, var: int) -> Expr:
        return self._var_to_atom[var]

    def atoms(self) -> Dict[Expr, int]:
        return dict(self._atom_to_var)

    @property
    def num_vars(self) -> int:
        return self._next_var - 1


Clause = Tuple[int, ...]


class CnfEncodingError(ValueError):
    """Raised when the input formula is not in the expected NNF shape."""


def encode(expr: Expr, table: AtomTable,
           atoms: Optional[Dict[Expr, int]] = None) -> List[Clause]:
    """Encode an NNF formula into CNF clauses over *table*'s variables.

    The returned clause set asserts the formula.  Because the input is in NNF
    only the positive direction of each definition is required
    (Plaisted–Greenbaum), which keeps the encoding small.

    When *atoms* is given, every atom the formula maps through
    :meth:`AtomTable.var_for` is recorded there as ``atom -> variable``, in
    first-visit order, left to right: the pre-order of
    :func:`repro.logic.terms.walk` restricted to atoms.  Boolean constants
    are not recorded; each gets a fresh, pinned variable instead.  The
    solver uses the collected dict as the query's atom set.
    """
    clauses: List[Clause] = []
    root = _encode(expr, table, clauses, {} if atoms is None else atoms)
    clauses.append((root,))
    return clauses


def _encode(expr: Expr, table: AtomTable, clauses: List[Clause],
            atoms: Dict[Expr, int]) -> int:
    if isinstance(expr, BoolConst):
        # Encode constants with a fresh variable pinned to the right polarity;
        # the variable itself is the literal standing for the constant node.
        var = table.fresh_var()
        clauses.append((var,) if expr.value else (-var,))
        return var
    if is_atom(expr):
        var = atoms[expr] = table.var_for(expr)
        return var
    if isinstance(expr, Not):
        operand = expr.operand
        if not is_atom(operand):
            raise CnfEncodingError("negation applied to a non-atom; input must be NNF")
        var = atoms[operand] = table.var_for(operand)
        return -var
    if isinstance(expr, (And, Or)):
        literals = [_encode(arg, table, clauses, atoms) for arg in expr.args]
        aux = table.fresh_var()
        if isinstance(expr, And):
            # aux -> lit_i  for every conjunct.
            for literal in literals:
                clauses.append((-aux, literal))
        else:
            # aux -> (lit_1 | ... | lit_n)
            clauses.append(tuple([-aux] + literals))
        return aux
    raise CnfEncodingError(f"unexpected node {type(expr).__name__} in NNF formula")
