"""Exact sparse linear algebra over the rationals.

Vectors are dictionaries mapping an index to a nonzero exact rational,
each entry stored on its own as :func:`poisdef.algebra.exact_scalar`
stores a scalar: an ``int`` when it is integral, else a ``Fraction`` with
denominator above 1.  These are the coefficients ``Poly.items()`` hands
out; unlike a polynomial, a vector keeps no common denominator.
One incremental eliminator serves every weight slice in the package, each
a :class:`poisdef.multivec.WeightSlice`.  It does two things: it adds a
vector to the span, and it solves for a target as a combination of the
tagged inputs.  Its pivot set is that of the leftmost-pivot reduced
echelon form, and its solutions are the ones that set every free
variable to zero, so results do not depend on how the elimination is
organised.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Hashable, Mapping, Optional

from .algebra import ScalarLike, exact_scalar

SparseVec = dict[int, ScalarLike]


def _axpy(out: dict, scale: ScalarLike, vec: Mapping) -> None:
    """out += scale * vec, dropping entries that cancel."""
    for key, value in vec.items():
        acc = out.get(key)
        if acc is None:
            out[key] = exact_scalar(scale * value)
        else:
            acc += scale * value
            if acc:
                out[key] = exact_scalar(acc)
            else:
                del out[key]


class Eliminator:
    """Echelon basis of the span of the vectors added so far.

    Each stored vector pivots on its leftmost nonzero index, where it has
    entry 1.  A vector is reduced by the stored vectors at existing pivots
    in increasing order; since a stored vector has no entry left of its
    pivot, the result vanishes at every pivot.  Adding vectors one by one
    therefore keeps exactly the inputs that are not in the span of the
    earlier ones.

    A vector added with a ``tag`` (distinct from earlier tags) also
    records its stored form as a combination of the tagged inputs, which
    is what :meth:`solve` reads.
    """

    def __init__(self) -> None:
        self._rows: dict[int, SparseVec] = {}
        self._combos: dict[int, dict[Hashable, ScalarLike]] = {}
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> list[int]:
        """Pivot indices in increasing order."""
        return list(self._pivots)

    def _eliminate(self, vec: Mapping[int, ScalarLike],
                   combo: Optional[dict]) -> SparseVec:
        out = {i: exact_scalar(v) for i, v in vec.items() if v}
        for pivot in self._pivots:
            coeff = out.get(pivot)
            if coeff:
                _axpy(out, -coeff, self._rows[pivot])
                if combo is not None:
                    _axpy(combo, coeff, self._combos[pivot])
        return out

    def add(self, vec: Mapping[int, ScalarLike],
            tag: Optional[Hashable] = None) -> Optional[int]:
        """Insert vec; return its new pivot, or None if it lies in the span."""
        combo: Optional[dict] = None if tag is None else {}
        out = self._eliminate(vec, combo)
        if not out:
            return None
        pivot = min(out)
        inv = exact_scalar(Fraction(1, out[pivot]))
        self._rows[pivot] = {i: exact_scalar(v * inv) for i, v in out.items()}
        if combo is not None:
            # out = vec - (the stored vectors recorded in combo)
            stored = {t: exact_scalar(-v * inv) for t, v in combo.items()}
            stored[tag] = inv
            self._combos[pivot] = stored
        insort(self._pivots, pivot)
        return pivot

    def solve(self, target: Mapping[int, ScalarLike]) -> Optional[dict]:
        """Coefficients of tagged inputs summing to target, or None.

        Only inputs that became pivots appear, so the answer is the
        solution with every free variable set to zero.  Every stored
        vector must have been added with a tag.
        """
        combo: dict = {}
        if self._eliminate(target, combo):
            return None
        return combo
