"""Exact sparse linear algebra over the rationals, in integers.

A vector is a dictionary mapping an index to a nonzero exact rational, an
``int`` or a ``fractions.Fraction`` (floats raise TypeError): the
coefficients ``Poly.items()`` hands out.  One incremental eliminator
serves every weight slice in the package, each a
:class:`poisdef.multivec.WeightSlice`.  It does two things: it adds a
vector to the span, and it solves for a target as a combination of the
tagged inputs.

The elimination is fraction-free.  A stored row is a primitive ``int``
vector (its content divided out) whose pivot entry is left as it is, and
its record as a combination of the tagged inputs is ``int`` numerators
over one positive denominator, as a ``Poly`` stores its coefficients.  A
vector is reduced by cross-multiplication with the stored rows and its
content is divided out after each step (fraction-free elimination, after
Bareiss 1968), so no step forms a ``Fraction``.

Its pivot set is that of the leftmost-pivot reduced echelon form, and its
solutions are the ones that set every free variable to zero, which are
unique, so results do not depend on how the elimination is organised:
:meth:`Eliminator.solve` returns each value as
:func:`poisdef.algebra.exact_scalar` stores a scalar.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from typing import Hashable, Mapping, Optional

from .algebra import ScalarLike, exact_scalar

SparseVec = dict[int, ScalarLike]

# An integer vector: index -> nonzero int.
IntVec = dict[int, int]


def _integral(vec: Mapping[int, ScalarLike]) -> tuple[IntVec, int, int]:
    """(out, scale, den) with den * out = scale * vec, ``out`` a primitive
    integer vector (empty for the zero vector) and ``den`` positive."""
    lcm = 1
    for value in vec.values():
        if type(value) is not int:
            value = exact_scalar(value)
            if type(value) is not int:
                lcm = math.lcm(lcm, value.denominator)
    out = {i: v.numerator * (lcm // v.denominator)
           for i, v in vec.items() if v}
    content = math.gcd(*out.values()) or 1
    if content > 1:
        out = {i: v // content for i, v in out.items()}
    g = math.gcd(content, lcm)
    return out, lcm // g, content // g


# The tag solve gives its target while it eliminates it.
_TARGET = object()


class Eliminator:
    """Echelon basis of the span of the vectors added so far.

    Each stored row pivots on its leftmost nonzero index.  A vector is
    reduced by the stored rows at existing pivots in increasing order;
    since a stored row has no entry left of its pivot, the result vanishes
    at every pivot.  Adding vectors one by one therefore keeps exactly the
    inputs that are not in the span of the earlier ones.

    A vector added with a ``tag`` (distinct from every earlier tag, else
    ValueError) also records its stored row as a combination of the tagged
    inputs, which is what :meth:`solve` reads: ``_combos[p]`` is
    ``(nums, den)`` with ``den * _rows[p] = sum of nums[t] * input t``.
    """

    def __init__(self) -> None:
        self._rows: dict[int, IntVec] = {}
        self._combos: dict[int, tuple[dict[Hashable, int], int]] = {}
        self._pivots: list[int] = []
        self._tags: set = set()

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> list[int]:
        """Pivot indices in increasing order."""
        return list(self._pivots)

    def _eliminate(self, vec: Mapping[int, ScalarLike],
                   tag: Optional[Hashable]
                   ) -> tuple[IntVec, Optional[dict], int]:
        """Reduce vec, as input ``tag``, by every stored row: (out, combo,
        den) with den * out = sum of combo[t] * input t, ``out`` primitive
        and vanishing at every pivot.  A None tag skips the bookkeeping and
        gives a None combo."""
        out, scale, den = _integral(vec)
        combo = None if tag is None else {tag: scale}
        for pivot in self._pivots:
            a = out.get(pivot)
            if a is None:
                continue
            row = self._rows[pivot]
            b = row[pivot]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            # out <- (b * out - a * row) / content
            if b != 1:
                out = {i: b * v for i, v in out.items()}
            for i, v in row.items():
                acc = out.get(i, 0) - a * v
                if acc:
                    out[i] = acc
                else:
                    del out[i]
            content = math.gcd(*out.values()) or 1
            if content > 1:
                out = {i: v // content for i, v in out.items()}
            if combo is None:
                continue
            # den * row_den * content * out
            #   = b * row_den * combo - a * den * nums
            nums, row_den = self._combos[pivot]
            left, right = b * row_den, a * den
            if left != 1:
                for t in combo:
                    combo[t] *= left
            for t, n in nums.items():
                acc = combo.get(t, 0) - right * n
                if acc:
                    combo[t] = acc
                else:
                    del combo[t]
            den *= row_den * content
            g = math.gcd(den, *combo.values())
            if g > 1:
                den //= g
                for t in combo:
                    combo[t] //= g
        return out, combo, den

    def add(self, vec: Mapping[int, ScalarLike],
            tag: Optional[Hashable] = None) -> Optional[int]:
        """Insert vec; return its new pivot, or None if it lies in the span."""
        if tag is not None:
            if tag in self._tags:
                raise ValueError(f"tag {tag!r} was added before")
            self._tags.add(tag)
        out, combo, den = self._eliminate(vec, tag)
        if not out:
            return None
        pivot = min(out)
        self._rows[pivot] = out
        if combo is not None:
            self._combos[pivot] = (combo, den)
        insort(self._pivots, pivot)
        return pivot

    def solve(self, target: Mapping[int, ScalarLike]) -> Optional[dict]:
        """Coefficients of tagged inputs summing to target, or None.

        Only inputs that became pivots appear, so the answer is the
        solution with every free variable set to zero.  Every stored
        vector must have been added with a tag.
        """
        out, combo, _ = self._eliminate(target, _TARGET)
        if out:
            return None
        # 0 = scale * target + the rest of combo
        scale = combo.pop(_TARGET)
        return {t: exact_scalar(Fraction(-n, scale)) for t, n in combo.items()}
