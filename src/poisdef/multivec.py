"""Polynomial multivector fields on affine 3-space and the Schouten bracket.

A degree-k multivector field is a skew k-derivation of the polynomial ring;
in three variables it is determined by its components on the wedge basis

    k=0:  1                  (functions)
    k=1:  dx, dy, dz         (vector fields; dx stands for d/dx)
    k=2:  dy^dz, dz^dx, dx^dy
    k=3:  dx^dy^dz

Components are stored in exactly that order.  Degrees outside 0..3 are
allowed as carriers of the zero multivector, which keeps graded formulas
total when intermediate terms land in degrees that vanish identically.

Sign conventions used throughout the package:

* evaluation: (dx_{i_1} ^ ... ^ dx_{i_k})[F_1, ..., F_k] is the determinant
  of the matrix whose (r, s) entry is dF_s/dx_{i_r}; in particular the
  coordinate volume trivector D satisfies D[x, y, z] = 1.
* the Schouten bracket of P (degree p) and Q (degree q) is the degree
  p+q-1 multivector acting on functions F_1, ..., F_{p+q-1} by

      sum over (q, p-1)-shuffles s of sign(s) *
          P[Q[F_{s(1)}, ..., F_{s(q)}], F_{s(q+1)}, ...]
      - (-1)^((p-1)(q-1)) * (same with P and Q swapped),

  which gives [P, F] = P[F] for a function F and graded antisymmetry
  [P, Q] = -(-1)^((p-1)(q-1)) [Q, P].
* for a bivector B, the Jacobi identity for the bracket {F, G} = B[F, G]
  holds if and only if [B, B] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .algebra import (
    Poly,
    ScalarLike,
    VARIABLE_POLYS,
    WeightSystem,
    poly_str,
)

# Index tuples differentiated by each component slot, per degree.
SLOTS: dict[int, tuple[tuple[int, ...], ...]] = {
    0: ((),),
    1: ((0,), (1,), (2,)),
    2: ((1, 2), (2, 0), (0, 1)),
    3: ((0, 1, 2),),
}

SLOT_NAMES: dict[int, tuple[str, ...]] = {
    0: ("",),
    1: ("dx", "dy", "dz"),
    2: ("dy^dz", "dz^dx", "dx^dy"),
    3: ("dx^dy^dz",),
}


def shuffles(i: int, j: int) -> list[tuple[int, ...]]:
    """All (i, j)-shuffles as 1-based permutation tuples of {1, ..., i+j}.

    A shuffle here is a permutation s with s(1) < ... < s(i) and
    s(i+1) < ... < s(i+j); the tuple lists (s(1), ..., s(i+j)).  Returned
    in lexicographic order of the first block.  Empty if i or j is
    negative; the identity alone if either is zero.
    """
    if i < 0 or j < 0:
        return []
    n = i + j
    result = []
    universe = range(1, n + 1)
    for first in combinations(universe, i):
        taken = set(first)
        second = tuple(v for v in universe if v not in taken)
        result.append(first + second)
    return result


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a tuple of 1-based values."""
    inversions = 0
    n = len(perm)
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b]:
                inversions += 1
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class MultiVec:
    """Immutable multivector field; ``comps`` follows SLOTS[degree] order."""

    degree: int
    comps: tuple[Poly, ...]

    def __post_init__(self):
        expected = len(SLOTS[self.degree]) if self.degree in SLOTS else 0
        if len(self.comps) != expected:
            raise ValueError(
                f"degree {self.degree} needs {expected} components, "
                f"got {len(self.comps)}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "MultiVec":
        n = len(SLOTS[degree]) if degree in SLOTS else 0
        return cls(degree, tuple(Poly.zero() for _ in range(n)))

    @classmethod
    def function(cls, p: Poly) -> "MultiVec":
        return cls(0, (p,))

    @classmethod
    def vector(cls, px: Poly, py: Poly, pz: Poly) -> "MultiVec":
        return cls(1, (px, py, pz))

    @classmethod
    def bivector(cls, p_yz: Poly, p_zx: Poly, p_xy: Poly) -> "MultiVec":
        return cls(2, (p_yz, p_zx, p_xy))

    @classmethod
    def trivector(cls, p: Poly) -> "MultiVec":
        return cls(3, (p,))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __add__(self, other: "MultiVec") -> "MultiVec":
        if not isinstance(other, MultiVec):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add multivectors of degrees {self.degree} and {other.degree}"
            )
        return MultiVec(self.degree,
                        tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "MultiVec":
        return MultiVec(self.degree, tuple(-c for c in self.comps))

    def __sub__(self, other: "MultiVec") -> "MultiVec":
        return self + (-other)

    def __mul__(self, scalar: ScalarLike) -> "MultiVec":
        return MultiVec(self.degree, tuple(c * scalar for c in self.comps))

    __rmul__ = __mul__

    def mul_poly(self, p: Poly) -> "MultiVec":
        return MultiVec(self.degree, tuple(c * p for c in self.comps))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, args: Sequence[Poly]) -> Poly:
        """Apply the k-derivation to k polynomials."""
        if len(args) != self.degree:
            raise ValueError(
                f"degree {self.degree} multivector takes {self.degree} "
                f"arguments, got {len(args)}"
            )
        if self.degree == 0:
            return self.comps[0]
        if self.degree == 1:
            f = args[0]
            return sum(
                (c * f.diff(i) for c, (i,) in zip(self.comps, SLOTS[1]) if c),
                Poly.zero(),
            )
        if self.degree == 2:
            f, g = args
            total = Poly.zero()
            for c, (a, b) in zip(self.comps, SLOTS[2]):
                if c:
                    total = total + c * (f.diff(a) * g.diff(b)
                                         - f.diff(b) * g.diff(a))
            return total
        if self.degree == 3:
            c = self.comps[0]
            if not c:
                return Poly.zero()
            rows = [[arg.diff(i) for arg in args] for i in range(3)]
            det = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            return c * det
        return Poly.zero()

    def __str__(self) -> str:
        return multivec_str(self)


def multivec_str(mv: MultiVec) -> str:
    """Human-readable rendering, e.g. ``(2*z) dy^dz + (x) dx^dy``."""
    if mv.degree == 0:
        return poly_str(mv.comps[0])
    pieces = []
    for comp, name in zip(mv.comps, SLOT_NAMES.get(mv.degree, ())):
        if not comp.is_zero():
            pieces.append(f"({poly_str(comp)}) {name}")
    return " + ".join(pieces) if pieces else "0"


# -- wedge product ------------------------------------------------------------


def wedge(p: MultiVec, q: MultiVec) -> MultiVec:
    """Exterior product; degrees add, and anything above 3 is zero."""
    dp, dq = p.degree, q.degree
    total = dp + dq
    if total > 3 or dp < 0 or dq < 0:
        return MultiVec.zero(total)
    if dp == 0:
        return q.mul_poly(p.comps[0])
    if dq == 0:
        return p.mul_poly(q.comps[0])
    if dp == 1 and dq == 1:
        v, w = p.comps, q.comps
        return MultiVec.bivector(
            v[1] * w[2] - v[2] * w[1],
            v[2] * w[0] - v[0] * w[2],
            v[0] * w[1] - v[1] * w[0],
        )
    if dp == 1 and dq == 2:
        v, b = p.comps, q.comps
        return MultiVec.trivector(v[0] * b[0] + v[1] * b[1] + v[2] * b[2])
    if dp == 2 and dq == 1:
        # graded commutativity: degrees 2 and 1 commute without sign
        return wedge(q, p)
    raise AssertionError("unreachable wedge case")


# -- Schouten bracket ---------------------------------------------------------


def _bracket_on_functions(p: MultiVec, q: MultiVec, args: Sequence[Poly]) -> Poly:
    """Evaluate [p, q] on len(args) = deg p + deg q - 1 polynomials."""
    dp, dq = p.degree, q.degree
    n = len(args)
    total = Poly.zero()
    for sigma in shuffles(dq, dp - 1):
        inner = q.evaluate([args[sigma[m] - 1] for m in range(dq)])
        outer = [inner] + [args[sigma[m] - 1] for m in range(dq, n)]
        term = p.evaluate(outer)
        total = total + (term if perm_sign(sigma) > 0 else -term)
    swap_sign = -1 if ((dp - 1) * (dq - 1)) % 2 else 1
    for sigma in shuffles(dp, dq - 1):
        inner = p.evaluate([args[sigma[m] - 1] for m in range(dp)])
        outer = [inner] + [args[sigma[m] - 1] for m in range(dp, n)]
        term = q.evaluate(outer)
        sign = perm_sign(sigma) * swap_sign
        total = total - (term if sign > 0 else -term)
    return total


def schouten(p: MultiVec, q: MultiVec) -> MultiVec:
    """Schouten bracket of two multivector fields.

    The result has degree deg p + deg q - 1 and is reconstructed from its
    values on coordinate tuples, which determine a multiderivation in
    three variables.
    """
    degree = p.degree + q.degree - 1
    if degree < 0 or degree > 3 or p.is_zero() or q.is_zero():
        return MultiVec.zero(degree)
    comps = []
    for slot in SLOTS[degree]:
        args = [VARIABLE_POLYS[i] for i in slot]
        comps.append(_bracket_on_functions(p, q, args))
    return MultiVec(degree, tuple(comps))


# -- standard fields ----------------------------------------------------------


def poisson_from_potential(h: Poly) -> MultiVec:
    """Exact Poisson bivector of a potential: {F, G} = det(dh, dF, dG).

    Components are (dh/dx, dh/dy, dh/dz) on (dy^dz, dz^dx, dx^dy), so
    {x, y} = dh/dz, {y, z} = dh/dx, {z, x} = dh/dy.
    """
    return MultiVec.bivector(h.diff(0), h.diff(1), h.diff(2))


def euler_field(weights: WeightSystem) -> MultiVec:
    """Weighted Euler vector field w1*x dx + w2*y dy + w3*z dz."""
    w1, w2, w3 = weights.weights
    return MultiVec.vector(
        VARIABLE_POLYS[0] * w1,
        VARIABLE_POLYS[1] * w2,
        VARIABLE_POLYS[2] * w3,
    )


def coordinate_volume() -> MultiVec:
    """The trivector dx^dy^dz normalized by D[x, y, z] = 1."""
    return MultiVec.trivector(Poly.one())


def coboundary(p: MultiVec, potential: Poly) -> MultiVec:
    """Poisson-cohomology differential [pi, p] for the exact bivector of
    the potential; raises the multivector degree by one."""
    return schouten(poisson_from_potential(potential), p)


# -- weight grading -----------------------------------------------------------


def slot_weight_offset(weights: WeightSystem, degree: int, slot: int) -> int:
    """Weight subtracted by the slot's wedge of coordinate derivations."""
    return sum(weights.weights[i] for i in SLOTS[degree][slot])


def multivec_weight_parts(mv: MultiVec,
                          weights: WeightSystem) -> dict[int, MultiVec]:
    """Split into weight-homogeneous pieces.

    A monomial m on slot s has weight wt(m) - wt(s), where wt(s) is the
    sum of the weights of the variables the slot differentiates by.
    """
    if mv.degree not in SLOTS:
        return {}
    buckets: dict[int, list[dict]] = {}
    nslots = len(SLOTS[mv.degree])
    for s, comp in enumerate(mv.comps):
        offset = slot_weight_offset(weights, mv.degree, s)
        for exps, coeff in comp.items():
            w = weights.monomial_weight(exps) - offset
            buckets.setdefault(w, [dict() for _ in range(nslots)])[s][exps] = coeff
    return {
        w: MultiVec(mv.degree, tuple(Poly(t) for t in terms))
        for w, terms in sorted(buckets.items())
    }


# -- import-time convention check ---------------------------------------------


def _convention_self_test() -> None:
    """Cheap exact checks pinning down the sign conventions above."""

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise RuntimeError(f"multivector sign convention violated: {what}")

    x, y, z = VARIABLE_POLYS
    phi = x * x + y * y + z * z
    pi = poisson_from_potential(phi)
    # {x, y} = dphi/dz for the exact bivector of phi.
    check(pi.evaluate([x, y]) == 2 * z, "{x, y} = dphi/dz")
    check(coordinate_volume().evaluate([x, y, z]) == Poly.one(),
          "D[x, y, z] = 1")
    # [P, F] = P[F] for functions; [F, V] = -V[F].
    v = MultiVec.vector(y, Poly.zero(), x * x)
    f = MultiVec.function(x * y)
    v_of_f = MultiVec.function(v.evaluate([x * y]))
    check(schouten(v, f) == v_of_f, "[V, F] = V[F]")
    check(schouten(f, v) == -v_of_f, "[F, V] = -V[F]")
    # graded antisymmetry [P, Q] = -(-1)^((p-1)(q-1)) [Q, P] on samples.
    samples = [f, v, pi, MultiVec.trivector(x + z)]
    for a in samples:
        for b in samples:
            sign = -1 if ((a.degree - 1) * (b.degree - 1)) % 2 else 1
            check(schouten(a, b) == schouten(b, a) * (-sign),
                  f"graded antisymmetry in degrees {a.degree}, {b.degree}")
    # the exact bivector of a potential is Poisson: [pi, pi] = 0.
    check(schouten(pi, pi).is_zero(), "[pi, pi] = 0")


_convention_self_test()
