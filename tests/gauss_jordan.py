"""A dense Gauss-Jordan solver over ``Fraction``: the eliminator's
reference.

It shares no code with ``poisdef.linalg``: it reduces the augmented
matrix [columns | target] to reduced row echelon form, pivot by pivot
from the left, with plain ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a dense matrix and its pivot columns."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    top = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        found = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        inv = 1 / Fraction(rows[top][col])
        rows[top] = [v * inv for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[top])]
        pivots.append(col)
        top += 1
    return rows, pivots


def solve(columns: Sequence[Sequence[Fraction]],
          target: Sequence[Fraction]) -> Optional[dict[int, Fraction]]:
    """x with sum of x[j] * columns[j] == target and every free variable
    zero, as {column index: nonzero value}; None when there is none."""
    n_rows = len(target)
    augmented = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])]
                 for i in range(n_rows)]
    reduced, pivots = rref(augmented)
    if len(columns) in pivots:
        return None
    return {col: reduced[row][-1] for row, col in enumerate(pivots)
            if reduced[row][-1]}
