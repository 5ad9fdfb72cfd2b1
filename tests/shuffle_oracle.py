"""Multivector evaluation and the generic shuffle-sum Schouten bracket:
the test oracle.

Both are the definitions stated in the ``poisdef.multivec`` docstring.
``evaluate`` applies a k-derivation to k polynomials, one determinant per
component slot; ``shuffle_sum`` evaluates the bracket on coordinate
functions, which determine a multiderivation in three variables.  The
oracle shares only the ``MultiVec`` container, ``SLOTS`` and the ``Poly``
ring with the package, and its shuffles and permutation signs share no
code with the signed sums of ``linfty``.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Sequence

from poisdef import MultiVec, Poly
from poisdef.algebra import VARIABLE_POLYS
from poisdef.multivec import SLOTS


def shuffles(i: int, j: int) -> list[tuple[int, ...]]:
    """All (i, j)-shuffles as 1-based permutation tuples of {1, ..., i+j}:
    s(1) < ... < s(i) and s(i+1) < ... < s(i+j).  Empty if i or j is
    negative."""
    if i < 0 or j < 0:
        return []
    universe = range(1, i + j + 1)
    return [first + tuple(v for v in universe if v not in first)
            for first in combinations(universe, i)]


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a tuple of distinct values."""
    inversions = sum(1 for a in range(len(perm))
                     for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


def evaluate(mv: MultiVec, args: Sequence[Poly]) -> Poly:
    """Apply the k-derivation mv to k polynomials: each component times the
    determinant whose (r, s) entry is dF_s/dx_{i_r}, (i_1, ..., i_k) the
    component's slot."""
    if len(args) != mv.degree:
        raise ValueError(
            f"degree {mv.degree} multivector takes {mv.degree} "
            f"arguments, got {len(args)}"
        )
    total = Poly.zero()
    for comp, slot in zip(mv.comps, SLOTS.get(mv.degree, ())):
        if comp.is_zero():
            continue
        det = Poly.zero()
        for sigma in permutations(range(len(slot))):
            term = Poly.one()
            for r, s in enumerate(sigma):
                term = term * args[s].diff(slot[r])
            det = det + (term if perm_sign(sigma) > 0 else -term)
        total = total + comp * det
    return total


def _bracket_on_functions(p: MultiVec, q: MultiVec,
                          args: Sequence[Poly]) -> Poly:
    """Evaluate [p, q] on len(args) = deg p + deg q - 1 polynomials."""
    dp, dq = p.degree, q.degree
    n = len(args)
    total = Poly.zero()
    for sigma in shuffles(dq, dp - 1):
        inner = evaluate(q, [args[sigma[m] - 1] for m in range(dq)])
        outer = [inner] + [args[sigma[m] - 1] for m in range(dq, n)]
        term = evaluate(p, outer)
        total = total + (term if perm_sign(sigma) > 0 else -term)
    swap_sign = -1 if ((dp - 1) * (dq - 1)) % 2 else 1
    for sigma in shuffles(dp, dq - 1):
        inner = evaluate(p, [args[sigma[m] - 1] for m in range(dp)])
        outer = [inner] + [args[sigma[m] - 1] for m in range(dp, n)]
        term = evaluate(q, outer)
        sign = perm_sign(sigma) * swap_sign
        total = total - (term if sign > 0 else -term)
    return total


def shuffle_sum(p: MultiVec, q: MultiVec) -> MultiVec:
    """[p, q] rebuilt from its values on coordinate tuples."""
    degree = p.degree + q.degree - 1
    if degree < 0 or degree > 3:
        return MultiVec.zero(degree)
    return MultiVec(degree, tuple(
        _bracket_on_functions(p, q, [VARIABLE_POLYS[i] for i in slot])
        for slot in SLOTS[degree]))
