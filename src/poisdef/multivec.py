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
  p+q-1 multivector acting on functions F_1, ..., F_{p+q-1} by the
  shuffle sum

      sum over (q, p-1)-shuffles s of sign(s) *
          P[Q[F_{s(1)}, ..., F_{s(q)}], F_{s(q+1)}, ...]
      - (-1)^((p-1)(q-1)) * (same with P and Q swapped),

  which gives [P, F] = P[F] for a function F and graded antisymmetry
  [P, Q] = -(-1)^((p-1)(q-1)) [Q, P].  The package never evaluates a
  multivector on functions: the test oracle ``tests/shuffle_oracle.py``
  implements this evaluation and this sum and checks :func:`schouten`
  against them.
* for a bivector B, the Jacobi identity for the bracket {F, G} = B[F, G]
  holds if and only if [B, B] = 0.

:func:`schouten` evaluates the bracket by one vector-calculus formula per
degree pair (Pichereau's 3-D forms).  A vector V = (V1, V2, V3); a
bivector with components on (dy^dz, dz^dx, dx^dy) is read as the vector
b of its components; a trivector t dx^dy^dz is read as the function t;
V(f) = V . grad f.  Then

    [V, F] = V(F)          [B, F] = b x grad F      [T, F] = t grad F
    [V, W]_i = V(W_i) - W(V_i)
    [V, B]_i = V(b_i) + b . d_i V - div(V) b_i
    [V, T] = V(t) - t div V
    [A, B] = a . curl b + b . curl a

and graded antisymmetry gives the pairs in the other order: [F, V] =
-V(F), [F, B] = [B, F], [F, T] = -[T, F], [B, V] = -[V, B], [T, V] =
-[V, T].  A result degree outside 0..3 gives the zero carrier.  The
Poisson differential d = [pi_phi, .] of a potential is this bracket with
its exact bivector, and :func:`coboundary` evaluates it as that bracket.
curl grad phi = 0 turns it into the exact-potential forms
d0 F = grad phi x grad F, d1 V = div(V) grad phi - grad(V . grad phi) and
d2 B = grad phi . curl b, which only :func:`image_rows` writes out.

Each closed form is one sum of products per output component: a list of
(s, p, q) terms, int s, for one
:meth:`poisdef.algebra.Poly.sum_of_products`.  div V and curl b are
formed once per field, so [V, B] takes one product for its div term and
[A, B] three per dot with a curl; a bivector keeps its curl once
:func:`curl` has computed it.  :func:`schouten_sum` puts a whole signed
sum of brackets into one accumulation per component, and
:func:`linear_sum` a sum of exact multiples of fields, over the common
denominator of the multipliers.

Multivector fields are immutable and share their parts: :meth:`MultiVec.zero`
is one object per degree, and multiplying by 1 returns the field itself.

A monomial m on slot s has weight wt(m) - wt(s), wt(s) the sum of the
weights the slot differentiates by.  Every exact elimination in the package
(the Jacobian-ideal and coboundary slices) is a :class:`WeightSlice`, an
eliminator over the positions of its slice's basis.
Their rows come from :func:`image_rows`, which writes the image of each
(slot, x^m) of a slice straight as the slice's index vector, from the
exact-potential forms and from V(phi) for the Jacobian ideal, read off
the exponents of x^m and the terms of phi's partials; :func:`coboundary`
is its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .algebra import (
    Exponents,
    Poly,
    ScalarLike,
    VARIABLE_POLYS,
    WeightSystem,
    exact_scalar,
    monomials_of_weight,
    poly_str,
)
from .linalg import Eliminator, SparseVec

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

    @staticmethod
    def zero(degree: int) -> "MultiVec":
        """The zero of this degree, one object per degree."""
        zero = _ZEROS.get(degree)
        if zero is None:
            n = len(SLOTS[degree]) if degree in SLOTS else 0
            zero = _ZEROS[degree] = MultiVec(degree, (Poly.zero(),) * n)
        return zero

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
        return not any(self.comps)

    def __add__(self, other: "MultiVec") -> "MultiVec":
        return self._combine(other, Poly.__add__)

    def __neg__(self) -> "MultiVec":
        return MultiVec(self.degree, tuple(-c for c in self.comps))

    def __sub__(self, other: "MultiVec") -> "MultiVec":
        return self._combine(other, Poly.__sub__)

    def _combine(self, other: "MultiVec", op) -> "MultiVec":
        """op (Poly.__add__ or Poly.__sub__) applied slot by slot."""
        if not isinstance(other, MultiVec):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"cannot combine multivectors of degrees "
                             f"{self.degree} and {other.degree}")
        return MultiVec(self.degree, tuple(map(op, self.comps, other.comps)))

    def __mul__(self, scalar: ScalarLike) -> "MultiVec":
        if type(scalar) is int:
            # the Koszul signs and unit coefficients of the transfer sums
            if scalar == 1:
                return self
            if scalar == -1:
                return -self
        elif not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return MultiVec(self.degree, tuple(c * scalar for c in self.comps))

    __rmul__ = __mul__

    def mul_poly(self, p: Poly) -> "MultiVec":
        return MultiVec(self.degree, tuple(c * p for c in self.comps))

    def __str__(self) -> str:
        return multivec_str(self)


_ZEROS: dict[int, MultiVec] = {}


def multivec_str(mv: MultiVec) -> str:
    """Human-readable rendering, e.g. ``(2*z) dy^dz + (x) dx^dy``."""
    if mv.degree == 0:
        return poly_str(mv.comps[0])
    pieces = []
    for comp, name in zip(mv.comps, SLOT_NAMES.get(mv.degree, ())):
        if not comp.is_zero():
            pieces.append(f"({poly_str(comp)}) {name}")
    return " + ".join(pieces) if pieces else "0"


# -- vector calculus on components --------------------------------------------

# A vector field and a bivector read as a vector are component triples; a
# function and a trivector are 1-tuples.  A sum of products is a list of
# (s, p, q) terms, int s, for Poly.sum_of_products.
Comps = tuple[Poly, ...]
Terms = list[tuple[int, Poly, Poly]]

_ONE = Poly.one()


def _grad(f: Poly) -> Comps:
    return (f.diff(0), f.diff(1), f.diff(2))


def _div(v: Comps) -> Poly:
    return v[0].diff(0) + v[1].diff(1) + v[2].diff(2)


def _curl(b: Comps) -> Comps:
    return (b[2].diff(1) - b[1].diff(2),
            b[0].diff(2) - b[2].diff(0),
            b[1].diff(0) - b[0].diff(1))


def _cross_terms(u: Comps, v: Comps, s: int) -> list[Terms]:
    """s (u x v), one term list per component."""
    return [[(s, u[1], v[2]), (-s, u[2], v[1])],
            [(s, u[2], v[0]), (-s, u[0], v[2])],
            [(s, u[0], v[1]), (-s, u[1], v[0])]]


def _dot_terms(u: Comps, v: Comps, s: int) -> Terms:
    """s (u . v); V(f) = V . grad f."""
    return [(s, u[0], v[0]), (s, u[1], v[1]), (s, u[2], v[2])]


def _summed(degree: int, rows: list[Terms], divisor: int) -> "MultiVec":
    return MultiVec(degree, tuple(Poly.sum_of_products(r, divisor)
                                  for r in rows))


# -- Schouten bracket ---------------------------------------------------------

# Each closed form returns the term lists of s [P, Q], one per component.


def _vector_function(p: MultiVec, q: MultiVec, s: int) -> list[Terms]:
    """[V, F] = V(F)."""
    return [_dot_terms(p.comps, _grad(q.comps[0]), s)]


def _bivector_function(p: MultiVec, q: MultiVec, s: int) -> list[Terms]:
    """[B, F] = b x grad F."""
    return _cross_terms(p.comps, _grad(q.comps[0]), s)


def _trivector_function(p: MultiVec, q: MultiVec, s: int) -> list[Terms]:
    """[T, F] = t grad F."""
    return [[(s, p.comps[0], g)] for g in _grad(q.comps[0])]


def _vector_vector(p: MultiVec, q: MultiVec, s: int) -> list[Terms]:
    """[V, W]_i = V(W_i) - W(V_i)."""
    v, w = p.comps, q.comps
    return [_dot_terms(v, _grad(w[i]), s) + _dot_terms(w, _grad(v[i]), -s)
            for i in range(3)]


def _vector_bivector(p: MultiVec, q: MultiVec, s: int) -> list[Terms]:
    """[V, B]_i = V(b_i) + b . d_i V - div(V) b_i."""
    v, b = p.comps, q.comps
    div = _div(v)
    return [_dot_terms(v, _grad(b[i]), s)
            + _dot_terms(b, (v[0].diff(i), v[1].diff(i), v[2].diff(i)), s)
            + [(-s, div, b[i])]
            for i in range(3)]


def _vector_trivector(p: MultiVec, q: MultiVec, s: int) -> list[Terms]:
    """[V, T] = V(t) - t div V."""
    v, t = p.comps, q.comps
    return [_dot_terms(v, _grad(t[0]), s) + [(-s, _div(v), t[0])]]


def _bivector_bivector(p: MultiVec, q: MultiVec, s: int) -> list[Terms]:
    """[A, B] = a . curl b + b . curl a."""
    return [_dot_terms(p.comps, curl(q).comps, s)
            + _dot_terms(q.comps, curl(p).comps, s)]


# One closed form per (deg p, deg q) with a result in degrees 0..3; the
# pairs in the other order follow by graded antisymmetry.
_CLOSED_FORMS = {
    (1, 0): _vector_function,
    (2, 0): _bivector_function,
    (3, 0): _trivector_function,
    (1, 1): _vector_vector,
    (1, 2): _vector_bivector,
    (1, 3): _vector_trivector,
    (2, 2): _bivector_bivector,
}


def schouten_sum(terms: Sequence[tuple[int, MultiVec, MultiVec]],
                 divisor: int = 1) -> MultiVec:
    """(sum of s [P, Q] over the (s, P, Q) terms) / divisor, for int
    multipliers s, a positive int divisor and at least one term, every
    term of the same result degree.

    The closed forms of all the terms (see the module docstring) go into
    one Poly.sum_of_products per output component.
    """
    if not terms:
        raise ValueError("schouten_sum needs at least one term")
    degree = terms[0][1].degree + terms[0][2].degree - 1
    rows: list[Terms] = []
    for s, p, q in terms:
        if p.degree + q.degree - 1 != degree:
            raise ValueError(
                f"brackets of degrees {degree} and "
                f"{p.degree + q.degree - 1} in one sum")
        if degree < 0 or degree > 3 or not s or p.is_zero() or q.is_zero():
            continue
        form = _CLOSED_FORMS.get((p.degree, q.degree))
        if form is not None:
            parts = form(p, q, s)
        else:
            # [P, Q] = -(-1)^((p-1)(q-1)) [Q, P]
            odd = (p.degree - 1) * (q.degree - 1) % 2
            parts = _CLOSED_FORMS[(q.degree, p.degree)](
                q, p, s if odd else -s)
        if rows:
            for row, part in zip(rows, parts):
                row += part
        else:
            rows = parts
    if not rows:
        return MultiVec.zero(degree)
    return _summed(degree, rows, divisor)


def linear_sum(degree: int,
               terms: Sequence[tuple[ScalarLike, MultiVec]]) -> MultiVec:
    """The sum of c P over the (c, P) terms, for exact scalar multipliers c
    (a float raises TypeError) and fields P of this degree.

    The multipliers go over their common denominator, and each output
    component is one Poly.sum_of_products of the integer numerators, each
    term a product with 1, divided by it.
    """
    if not terms:
        return MultiVec.zero(degree)
    if any(p.degree != degree for _, p in terms):
        raise ValueError(f"a field of another degree in a sum of degree "
                         f"{degree}")
    scalars = [exact_scalar(c) for c, _ in terms]
    den = lcm(*[c.denominator for c in scalars])
    nums = [c.numerator * (den // c.denominator) for c in scalars]
    return _summed(degree, [[(n, p.comps[k], _ONE)
                             for n, (_, p) in zip(nums, terms)]
                            for k in range(len(SLOTS.get(degree, ())))],
                   den)


def schouten(p: MultiVec, q: MultiVec) -> MultiVec:
    """Schouten bracket of two multivector fields.

    The result has degree deg p + deg q - 1; it is evaluated by the
    closed form of its degree pair (see the module docstring).
    """
    return schouten_sum([(1, p, q)])


def curl(b: MultiVec) -> MultiVec:
    """Curl of a bivector read as a vector, returned as a vector field;
    computed once per bivector object and then kept on it, as a Poly keeps
    its partials."""
    cached = b.__dict__.get("_curl")
    if cached is None:
        if b.degree != 2:
            raise ValueError(f"curl takes a bivector, got degree {b.degree}")
        cached = MultiVec(1, _curl(b.comps))
        object.__setattr__(b, "_curl", cached)
    return cached


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
    """Poisson-cohomology differential d p = [pi, p] for the exact bivector
    pi of the potential; raises the multivector degree by one.

    It is the one bracket of :func:`schouten_sum`, so degrees whose
    result falls outside 0..3 give the zero carrier.  The exact-potential
    forms of the module docstring are written only by :func:`image_rows`.
    """
    return schouten_sum([(1, poisson_from_potential(potential), p)])


# -- slice rows ---------------------------------------------------------------

# A row rule writes the image of x^m on one source slot as a sum of
# (target slot, sign, j, k, l) terms: sign * m_j * x^(m - e_j) times the
# partial d_k d_l phi, with j None for x^m itself, k None for phi's
# gradient component l.  For V = x^m on slot s, B = x^m on slot s (b the
# vector of its components) and F = x^m:
#
#   d0 F:  (grad phi x grad F)_i = d_{i+1} phi m_{i+2} x^(m - e_{i+2})
#                                - d_{i+2} phi m_{i+1} x^(m - e_{i+1})
#   d1 V:  (div(V) grad phi - grad(V . grad phi))_i
#          = d_i phi m_s x^(m - e_s) - d_s phi m_i x^(m - e_i)
#            - d_i d_s phi x^m
#   d2 B:  grad phi . curl b = d_{s+1} phi m_{s+2} x^(m - e_{s+2})
#                            - d_{s+2} phi m_{s+1} x^(m - e_{s+1})
#   V(phi) = d_s phi x^m
#
# with indices mod 3, keyed by (source degree, target degree).
_ROW_RULES = {
    (0, 1): [[(i, 1, (i + 2) % 3, None, (i + 1) % 3) for i in range(3)]
             + [(i, -1, (i + 1) % 3, None, (i + 2) % 3) for i in range(3)]],
    (1, 2): [[(i, 1, s, None, i) for i in range(3)]
             + [(i, -1, i, None, s) for i in range(3)]
             + [(i, -1, None, i, s) for i in range(3)]
             for s in range(3)],
    (2, 3): [[(0, 1, (s + 2) % 3, None, (s + 1) % 3),
              (0, -1, (s + 1) % 3, None, (s + 2) % 3)] for s in range(3)],
    (1, 0): [[(0, 1, None, None, s)] for s in range(3)],
}


def image_rows(potential: Poly, source_degree: int, source_weight: int,
               target: "WeightSlice"
               ) -> Iterator[tuple[tuple[int, Exponents], SparseVec]]:
    """((slot, m), row) for each (slot, x^m) of the source weight slice,
    in :func:`slice_basis` order, row the image of x^m on that slot as
    ``target``'s index vector with the values ``target.vector`` gives.

    The image is the coboundary [pi_phi, x^m] when the target degree is
    one above the source degree, and V(phi) when a vector field V goes to
    a slice of functions (the Jacobian ideal).  Each row is written
    straight from the exact-potential forms on exponents
    (``_ROW_RULES``, the only place they are written), and
    :func:`coboundary`, the bracket itself, is its test oracle; the terms
    of phi's partials are read once per call, as integers over one common
    denominator.
    """
    basis = slice_basis(target.weights, source_degree, source_weight)
    if not basis:
        return
    rules = _ROW_RULES.get((source_degree, target.degree))
    if rules is None:
        raise ValueError(f"no row rule from degree {source_degree} to "
                         f"degree {target.degree}")
    grad = _grad(potential)
    items = {(k, l): (grad[l] if k is None else grad[l].diff(k)).items()
             for rule in rules for *_, k, l in rule}
    den = lcm(*[c.denominator for terms in items.values() for _, c in terms])
    partials = {key: [(e, c.numerator * (den // c.denominator))
                      for e, c in terms]
                for key, terms in items.items()}
    rules = [[(target._slot_index[out], sign, j, partials[(k, l)])
              for out, sign, j, k, l in rule] for rule in rules]
    for slot, m in basis:
        row: dict[int, int] = {}
        get = row.get
        for index, sign, j, terms in rules[slot]:
            if j is None:
                scale, (a, b, c) = sign, m
            else:
                e = m[j]
                if not e:
                    continue
                scale = sign * e
                lowered = list(m)
                lowered[j] = e - 1
                a, b, c = lowered
            for (a2, b2, c2), n in terms:
                i = index[(a + a2, b + b2, c + c2)]
                row[i] = get(i, 0) + scale * n
        if den == 1:
            yield (slot, m), {i: v for i, v in row.items() if v}
        else:
            yield (slot, m), {i: exact_scalar(Fraction(v, den))
                              for i, v in row.items() if v}


# -- weight grading -----------------------------------------------------------


def slot_weight_offset(weights: WeightSystem, degree: int, slot: int) -> int:
    """Weight subtracted by the slot's wedge of coordinate derivations."""
    return sum(weights.weights[i] for i in SLOTS[degree][slot])


def multivec_weight_parts(mv: MultiVec,
                          weights: WeightSystem) -> dict[int, MultiVec]:
    """Split into weight-homogeneous pieces, in increasing weight."""
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


def slice_basis(weights: WeightSystem, degree: int,
                weight: int) -> list[tuple[int, Exponents]]:
    """(slot, monomial) basis of a weight slice of degree-k multivectors,
    slot by slot in canonical monomial order; empty outside degrees 0..3."""
    if degree not in SLOTS:
        return []
    return [(slot, m) for slot in range(len(SLOTS[degree]))
            for m in monomials_of_weight(
                weights, weight + slot_weight_offset(weights, degree, slot))]


class WeightSlice(Eliminator):
    """One weight slice of degree-k multivectors: an
    :class:`poisdef.linalg.Eliminator` whose indices are positions in
    ``basis``, the format :meth:`vector` writes a multivector in."""

    def __init__(self, weights: WeightSystem, degree: int, weight: int):
        super().__init__()
        self.weights = weights
        self.degree = degree
        self.basis = slice_basis(weights, degree, weight)
        # position in ``basis`` of each monomial, slot by slot
        self._slot_index: list[dict[Exponents, int]] = [
            {} for _ in SLOTS.get(degree, ())]
        for i, (slot, m) in enumerate(self.basis):
            self._slot_index[slot][m] = i

    def vector(self, mv: MultiVec) -> SparseVec:
        """Coordinates of a multivector of this slice on ``basis``."""
        return {index[exps]: coeff
                for index, comp in zip(self._slot_index, mv.comps)
                for exps, coeff in comp.items()}
