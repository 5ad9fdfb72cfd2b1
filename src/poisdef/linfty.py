"""Homotopy transfer of the Poisson graded Lie algebra to its cohomology.

Multivector fields form a graded Lie algebra g under the Schouten bracket,
with grading |P| = (multivector degree of P) - 1 and differential
d = [pi, .] for the exact Poisson bivector pi of the potential.  Its
cohomology H carries a transferred L-infinity structure (higher brackets
ell_n) together with an L-infinity quasi-isomorphism (Taylor coefficients
f_n) from H into g.  This module computes both, order by order, using the
canonical basis representatives of :mod:`poisdef.cohomology` and the
canonical coboundary solver.

Conventions (graded skew-symmetric, Koszul signs chi):

* ell_1 = 0 and f_1 realizes a class as its canonical representative;
* ell_2([a], [b]) = [ [f_1 a, f_1 b] ] is the induced bracket, and
  f_2 is the explicit homotopy table :func:`f2_table`;
* for n >= 3 the obstruction combination is

      T_n(x_1, ..., x_n) = S_n - U_n,

      S_n = sum over j + k = n + 1 (j, k >= 2) and (k, n-k)-shuffles s of
            chi(s) * (-1)^(k*(j-1)) * f_j(ell_k(x_{s(1..k)}), x_{s(k+1..n)}),
      U_n = sum over s + t = n (s, t >= 1) and (s, t)-shuffles tau with
            tau(1) = 1 of chi(tau) * e_{s,t}(tau) *
            [f_s(x_{tau(1..s)}), f_t(x_{tau(s+1..n)})],
      e_{s,t}(tau) = (-1)^(s-1) *
            (-1)^((t-1) * (|x_{tau(1)}| + ... + |x_{tau(s)}|)),

  which is closed, and the recursion reads both halves off the one
  splitting T_n = f_1(c) + [pi, y] of :func:`poisdef.cohomology.decompose`:

      ell_n = -c   and   f_n = y,   so that   d f_n = T_n + f_1(ell_n).

  On tuples of bivector classes (degree-1 inputs) T_n vanishes
  identically for n >= 3, which gives ell_n = 0 and f_n = 0.

The same chi-weighted sums give the generalized Jacobi combination

    J_n = sum over i + j = n + 1 (i, j >= 2) and (i, n-i)-shuffles s of
          chi(s) * (-1)^(i*(j-1)) * ell_j(ell_i(x_{s(1..i)}), x_{s(i+1..n)}),

which must vanish for an L-infinity structure, and the morphism residual

    E_n = d(f_n(x)) - f_1(ell_n(x)) - T_n(x),

which must vanish for an L-infinity morphism; both are exposed for
verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from .algebra import Poly
from .cohomology import (
    BasisLabel,
    CohClass,
    CohomologyError,
    decompose,
    f1,
    project,
    realize,
)
from .multivec import (
    MultiVec,
    coboundary,
    euler_field,
    poisson_from_potential,
    schouten,
    schouten_sum,
)
from .singularity import SingularityData


class ArityCapExceededError(CohomologyError):
    """A transfer computation needed a bracket above the arity cap."""


def koszul_chi(perm: Sequence[int], degrees: Sequence[int]) -> int:
    """Permutation sign times Koszul sign: the weight of graded skew sums.

    ``perm`` lists (s(1), ..., s(n)) with 1-based values; ``degrees`` are
    the degrees of the original symbols x_1, ..., x_n.  Each pair of
    symbols the permutation inverts contributes 1 + |x_a| |x_b| to the
    exponent of -1:

        x_1 ^ ... ^ x_n = chi * x_{s(1)} ^ ... ^ x_{s(n)}

    in the graded skew-symmetric convention.
    """
    exponent = 0
    n = len(perm)
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b]:
                exponent += 1 + degrees[perm[a] - 1] * degrees[perm[b] - 1]
    return -1 if exponent % 2 else 1


def f2_table(data: SingularityData, a: BasisLabel, b: BasisLabel) -> MultiVec:
    """The closed-form homotopy f_2 on a pair of basis labels.

    Total in both arguments: out-of-order pairs are folded through graded
    symmetry f_2(b, a) = chi * f_2(a, b).  The value is a multivector of
    degree |a| + |b| (degrees above 3 are identically zero carriers).
    """
    if b.sort_key() < a.sort_key():
        chi = koszul_chi((2, 1), (a.g_degree, b.g_degree))
        return f2_table(data, b, a) * chi
    ga, gb = a.g_degree, b.g_degree
    degree = ga + gb
    phi = data.phi
    pair = (a.kind, b.kind)
    if pair == ("Cas", "B"):
        i = a.indices[0]
        (r,) = b.indices
        if i == 0:
            return MultiVec.zero(degree)
        value = (phi ** (i - 1)) * Poly.monomial(data.basis[r]) * i
        return MultiVec.function(value)
    if pair == ("Cas", "Top"):
        i = a.indices[0]
        j, s = b.indices
        if data.special or s != 0 or i == 0:
            return MultiVec.zero(degree)
        scale = Fraction(i, data.weights.total - data.d)
        factor = (phi ** (i + j - 1)) * scale
        return euler_field(data.weights).mul_poly(factor)
    if pair == ("Eul", "B"):
        i = a.indices[0]
        (r,) = b.indices
        if i == 0:
            return MultiVec.zero(degree)
        total = data.weights.total
        scale = Fraction(data.basis_weight(r) - total, total) - i
        factor = (phi ** (i - 1)) * Poly.monomial(data.basis[r]) * scale
        return euler_field(data.weights).mul_poly(factor)
    if pair == ("A", "B"):
        i, k = a.indices
        (r,) = b.indices
        factor = (phi ** i) * Poly.monomial(data.basis[k])
        return poisson_from_potential(Poly.monomial(data.basis[r])).mul_poly(factor)
    # every other pair of basis classes has vanishing homotopy
    return MultiVec.zero(degree)


def _canonical(labels: Sequence[BasisLabel]) -> tuple[Optional[tuple], int]:
    """Sort a label tuple into canonical order, tracking the Koszul sign.

    Returns (sorted tuple, chi) with value(labels) = chi * value(sorted);
    (None, 0) when the value is forced to vanish because a label of even
    degree repeats.
    """
    n = len(labels)
    order = sorted(range(n), key=lambda i: labels[i].sort_key())
    perm = tuple(i + 1 for i in order)
    key = tuple(labels[i] for i in order)
    for i in range(n - 1):
        if key[i] == key[i + 1] and key[i].g_degree % 2 == 0:
            return None, 0
    degrees = [lab.g_degree for lab in labels]
    return key, koszul_chi(perm, degrees)


@dataclass
class TransferState:
    """Memoized engine for the transferred brackets and homotopies.

    One state per potential; values of ell_n and f_n on canonical label
    tuples are cached, and every request is reduced to the cache through
    graded symmetry, whose canonical order and Koszul sign are cached per
    requested tuple.  ``arity_cap`` bounds the bracket arity that may be
    demanded (requests above it raise ArityCapExceededError).
    """

    data: SingularityData
    arity_cap: int = 4
    _ell_memo: dict = field(default_factory=dict, repr=False)
    _f_memo: dict = field(default_factory=dict, repr=False)
    _canonical_memo: dict = field(default_factory=dict, repr=False)

    # -- label-tuple level -------------------------------------------------

    def ell_labels(self, labels: Sequence[BasisLabel]) -> CohClass:
        """ell_n on basis labels; graded-symmetric and memoized."""
        return self._on_labels(
            labels, self._ell_memo,
            lambda lab: CohClass.zero(lab.g_degree + 1),
            lambda a, b: project(schouten(realize(a, self.data),
                                          realize(b, self.data)), self.data),
            CohClass.zero)

    def f_labels(self, labels: Sequence[BasisLabel]) -> MultiVec:
        """f_n on basis labels; graded-symmetric and memoized."""
        return self._on_labels(
            labels, self._f_memo,
            lambda lab: realize(lab, self.data),
            lambda a, b: f2_table(self.data, a, b),
            MultiVec.zero)

    def _on_labels(self, labels: Sequence[BasisLabel], memo: dict,
                   unary, binary, zero):
        """ell_n or f_n: ``unary(label)`` at arity 1, ``binary(a, b)`` on
        canonical pairs, :meth:`_compute_stage` above; ``zero(k)`` builds the
        zero of output degree k.  Canonical tuples are memoized in ``memo``."""
        n = len(labels)
        if n < 1:
            raise ValueError("bracket arity must be at least 1")
        if n > self.arity_cap:
            raise ArityCapExceededError(
                f"arity {n} exceeds the configured cap {self.arity_cap}"
            )
        if n == 1:
            return unary(labels[0])
        labels = tuple(labels)
        canonical = self._canonical_memo.get(labels)
        if canonical is None:
            canonical = self._canonical_memo[labels] = _canonical(labels)
        key, chi = canonical
        if key is None:
            return zero(sum(lab.g_degree for lab in labels) + 2 - n)
        value = memo.get(key)
        if value is None:
            if n == 2:
                value = memo[key] = binary(*key)
            else:
                self._compute_stage(key)
                value = memo[key]
        return value * chi

    def _compute_stage(self, key: tuple[BasisLabel, ...]) -> None:
        """Fill the caches at one canonical tuple of arity >= 3."""
        n = len(key)
        t_value = compute_T(self, n, [CohClass.single(lab) for lab in key])
        # On tuples of bivector classes the obstruction vanishes identically
        # for n >= 3, which is what makes the order-by-order deformation
        # formula close; fail loudly if it ever does not.
        if all(lab.g_degree == 1 for lab in key) and not t_value.is_zero():
            raise CohomologyError(
                f"obstruction T_{n} expected to vanish on bivector-class "
                f"tuple {tuple(str(l) for l in key)} but did not"
            )
        t_class, y = decompose(t_value, self.data)
        self._ell_memo[key] = -t_class
        self._f_memo[key] = y

    # -- multilinear level ---------------------------------------------------

    def ell(self, classes: Sequence[CohClass]) -> CohClass:
        """ell_n extended multilinearly to rational class combinations."""
        return _multilinear(self.ell_labels, classes, CohClass.zero)

    def f(self, classes: Sequence[CohClass]) -> MultiVec:
        """f_n extended multilinearly to rational class combinations."""
        return _multilinear(self.f_labels, classes, MultiVec.zero)


def _multilinear(on_labels, classes: Sequence[CohClass], zero):
    """Extend a map on label tuples multilinearly to class combinations;
    ``zero(k)`` builds the zero of output degree k, the value when some
    class is zero."""
    result = None
    for combo in product(*[c.coeffs for c in classes]):
        coeff = 1
        for _, value in combo:
            coeff *= value
        term = on_labels([lab for lab, _ in combo]) * coeff
        result = term if result is None else result + term
    if result is None:
        return zero(sum(c.g_degree for c in classes) + 2 - len(classes))
    return result


def _unshuffles(classes: Sequence[CohClass], i: int):
    """Yield (chi(s), x_{s(1..i)}, x_{s(i+1..n)}) for each (i, n-i)-shuffle
    s of the classes x_1, ..., x_n, first blocks in lexicographic order."""
    n = len(classes)
    degrees = [c.g_degree for c in classes]
    for first in combinations(range(n), i):
        rest = tuple(k for k in range(n) if k not in first)
        sigma = [k + 1 for k in first + rest]
        yield (koszul_chi(sigma, degrees), [classes[k] for k in first],
               [classes[k] for k in rest])


def _nested_sum(state: TransferState, outer, classes: Sequence[CohClass],
                zero):
    """The sum S_n (``outer = state.f``) or J_n (``outer = state.ell``) of
    the module docstring; ``zero(k)`` builds the zero of output degree k."""
    n = len(classes)
    total = zero(sum(c.g_degree for c in classes) + 3 - n)
    for i in range(2, n):
        outer_sign = -1 if (i * (n - i)) % 2 else 1    # (-1)^(i*(j-1))
        for chi, first, rest in _unshuffles(classes, i):
            total = total + outer([state.ell(first)] + rest) * (chi * outer_sign)
    return total


def compute_T(state: TransferState, n: int,
              classes: Sequence[CohClass]) -> MultiVec:
    """The order-n obstruction T_n = S_n - U_n (see module docstring).

    Needs brackets and homotopies of arity at most n - 1, so it is the
    quantity that drives the transfer recursion at arity n.
    """
    if len(classes) != n:
        raise ValueError(f"expected {n} classes, got {len(classes)}")
    # S_n: homotopy applied after a lower bracket
    total = _nested_sum(state, state.f, classes, MultiVec.zero)
    # U_n: Schouten bracket of two lower homotopies.  The (s, t)-shuffles
    # tau with tau(1) = 1 are x_1 put in front of the (s-1, t)-shuffles of
    # x_2..x_n, and x_1 in front adds no inversion to chi.  All of its
    # brackets are one Schouten sum, signs included.
    brackets = []
    for s in range(1, n):
        for chi, first, rest in _unshuffles(classes[1:], s - 1):
            left = [classes[0]] + first
            exponent = (s - 1) + (n - s - 1) * sum(c.g_degree for c in left)
            sign = -1 if exponent % 2 else 1
            brackets.append((chi * sign, state.f(left), state.f(rest)))
    return total - schouten_sum(brackets) if brackets else total


def check_E(state: TransferState, n: int,
            classes: Sequence[CohClass]) -> MultiVec:
    """Residual of the order-n morphism equation; zero when it holds.

    Computes d(f_n(x)) - f_1(ell_n(x)) - T_n(x) exactly.  At n = 1 this
    is just d of the canonical representative.
    """
    f_value = state.f(list(classes))
    residual = coboundary(f_value, state.data.phi)
    ell_value = state.ell(list(classes))
    residual = residual - f1(ell_value, state.data)
    residual = residual - compute_T(state, n, classes)
    return residual


def jacobiator(state: TransferState, n: int,
               classes: Sequence[CohClass]) -> CohClass:
    """The order-n generalized Jacobi combination of the brackets.

    Vanishes identically when (ell_k) is an L-infinity structure.
    """
    if len(classes) != n:
        raise ValueError(f"expected {n} classes, got {len(classes)}")
    return _nested_sum(state, state.ell, classes, CohClass.zero)
