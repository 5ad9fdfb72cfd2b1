"""Exact sparse linear algebra over the rationals, in integers.

A vector is a dictionary mapping an index to a nonzero exact rational, an
``int`` or a ``fractions.Fraction`` (floats raise TypeError): the
coefficients ``Poly.items()`` hands out.  Every weight slice in the
package is one incremental eliminator, a
:class:`poisdef.multivec.WeightSlice` subclassing :class:`Eliminator`
that indexes vectors by positions in its slice's basis.  It does two
things: it adds a tagged vector to the span, and it solves for a target
as a combination of the inputs.

The elimination is fraction-free.  A stored row is a primitive ``int``
vector (its content divided out) whose pivot entry is left as it is.
Every input is augmented by one column keyed ``(tag,)``, as in the
textbook [A | I] elimination, so each stored row carries its own record
as a combination of the inputs.  An input row is primitive as it enters;
it is reduced by cross-multiplication with the stored rows and its
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
from bisect import bisect_left, insort
from fractions import Fraction
from typing import Hashable, Mapping, Optional

from .algebra import ScalarLike, exact_scalar

SparseVec = dict[int, ScalarLike]

# An integer row: int index or (tag,) column -> nonzero int.
IntVec = dict[Hashable, int]


def _integral(vec: Mapping[int, ScalarLike], tag: Hashable) -> IntVec:
    """vec times L, the lcm of its denominators, with ``(tag,)`` set to L.
    The row is primitive, so it takes no gcd pass: if p^e exactly divides
    L, some denominator holds p^e, and its entry's scaled numerator and
    hence the content are prime to p."""
    lcm = 1
    for value in vec.values():
        if type(value) is not int:
            value = exact_scalar(value)
            if type(value) is not int:
                lcm = math.lcm(lcm, value.denominator)
    out = {i: v.numerator * (lcm // v.denominator)
           for i, v in vec.items() if v}
    out[(tag,)] = lcm
    return out


# The tag solve gives its target while it eliminates it.
_TARGET = object()


class Eliminator:
    """Echelon basis of the span of the vectors added so far.

    Each stored row pivots on its leftmost nonzero ``int`` index.  A vector
    is reduced by the stored rows at the pivots from its smallest index on,
    in increasing order; since a stored row has no entry left of its pivot,
    no step reaches a pivot left of that index and the result vanishes at
    every pivot.  Adding vectors one by one therefore keeps exactly the
    inputs that are not in the span of the earlier ones.

    Each vector is added with a ``tag`` (distinct from every earlier tag,
    else ValueError) and enters as input t times L > 0 with ``(t,)`` set
    to L, so every stored row's ``int`` entries equal the sum of
    ``row[(t,)]`` times input t, which is what :meth:`solve` reads.
    """

    def __init__(self) -> None:
        self._rows: dict[int, IntVec] = {}
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
                   tag: Hashable) -> IntVec:
        """Reduce vec, as input ``tag``, by the stored rows from its
        smallest index on: a primitive row vanishing at every pivot."""
        out = _integral(vec, tag)
        start = bisect_left(self._pivots, min(vec, default=math.inf))
        for pivot in self._pivots[start:]:
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
        return out

    def add(self, vec: Mapping[int, ScalarLike],
            tag: Hashable) -> Optional[int]:
        """Insert vec as input ``tag``; return its new pivot, or None if it
        lies in the span."""
        if tag in self._tags:
            raise ValueError(f"tag {tag!r} was added before")
        self._tags.add(tag)
        out = self._eliminate(vec, tag)
        pivot = min((i for i in out if type(i) is int), default=None)
        if pivot is not None:
            self._rows[pivot] = out
            insort(self._pivots, pivot)
        return pivot

    def solve(self, target: Mapping[int, ScalarLike]) -> Optional[dict]:
        """Coefficients of inputs, by tag, summing to target, or None.

        Only inputs that became pivots appear, so the answer is the
        solution with every free variable set to zero.
        """
        out = self._eliminate(target, _TARGET)
        # 0 = scale * target + the sum of out[(t,)] * input t
        scale = out.pop((_TARGET,))
        if any(type(i) is int for i in out):
            return None
        return {t: exact_scalar(Fraction(-n, scale))
                for (t,), n in out.items()}
