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

* ell_1 = 0, f_1 realizes a class as its canonical representative, and
  f_2 is the explicit homotopy table :func:`_f2_table` on canonical pairs;
* for n >= 2 the obstruction combination is

      T_n(x_1, ..., x_n) = S_n - U_n,

      S_n = sum over j + k = n + 1 (j, k >= 2) and (k, n-k)-shuffles s of
            chi(s) * (-1)^(k*(j-1)) * f_j(ell_k(x_{s(1..k)}), x_{s(k+1..n)}),
      U_n = sum over s + t = n (s, t >= 1) and (s, t)-shuffles tau with
            tau(1) = 1 of chi(tau) * e_{s,t}(tau) *
            [f_s(x_{tau(1..s)}), f_t(x_{tau(s+1..n)})],
      e_{s,t}(tau) = (-1)^(s-1) *
            (-1)^((t-1) * (|x_{tau(1)}| + ... + |x_{tau(s)}|)),

  which is closed.  Every stage, at one canonical tuple (the reordering of
  :meth:`TransferState._canonical_key`), reads ell_n, and f_n for n >= 3,
  off the one splitting T_n = f_1(c) + [pi, y] of
  :func:`poisdef.cohomology.decompose`, T_n evaluated by its caller:

      ell_n = -c   and   f_n = y,   so that   d f_n = T_n + f_1(ell_n);

  ell_2 is the induced bracket [ [f_1 a, f_1 b] ] = -[T_2(a, b)].  On
  tuples of bivector classes (degree-1 inputs) T_n vanishes identically
  for n >= 3, which gives ell_n = 0 and f_n = 0.

The same chi-weighted sums give the generalized Jacobi combination

    J_n = sum over i + j = n + 1 (i, j >= 2) and (i, n-i)-shuffles s of
          chi(s) * (-1)^(i*(j-1)) * ell_j(ell_i(x_{s(1..i)}), x_{s(i+1..n)}),

which must vanish for an L-infinity structure, and the morphism residual

    E_n = d(f_n(x)) - f_1(ell_n(x)) - T_n(x),

which must vanish for an L-infinity morphism.
:meth:`TransferState.E_labels` and :meth:`~TransferState.J_labels` evaluate
them, and the verification suites call those.

Label-level evaluation: T_n, E_n and J_n are multilinear, so they are
evaluated on tuples of basis labels (:meth:`TransferState.T_labels`,
:meth:`~TransferState.E_labels`, :meth:`~TransferState.J_labels`); only
:func:`compute_T`, :meth:`~TransferState.ell` and :meth:`~TransferState.f`
extend to class combinations.  The unshuffle blocks and signs of S_n, U_n
and J_n depend only on the degree pattern of the inputs; :func:`_nested_plan`
and :func:`_bracket_plan` build them once per pattern from
:func:`_unshuffles`, the one shuffle enumerator.  A label-level term reads
ell and f through the canonical-order memos, unsigned, with the Koszul sign
of the reordering folded into its integer multiplier, and expands only the
few labels of each inner ell_i; all the f_j(ell_i(..), ..) terms of T_n go
into one product sum per component and all its brackets into one
:func:`poisdef.multivec.schouten_sum`.  The class-level sums, which
enumerate the shuffles afresh on every call, are the test oracle
``tests/transfer_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from typing import Optional, Sequence

from .cohomology import (
    BasisLabel,
    CohClass,
    CohomologyError,
    decompose,
    f1,
    realize,
)
from .multivec import (
    MultiVec,
    coboundary,
    euler_field,
    linear_sum,
    poisson_from_potential,
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


def _f2_table(data: SingularityData, a: BasisLabel, b: BasisLabel) -> MultiVec:
    """The closed-form homotopy f_2 on a canonical pair of basis labels
    (a.sort_key() <= b.sort_key()); :meth:`TransferState.f_labels` signs
    every other order onto it.  The value is a multivector of degree
    |a| + |b| (degrees above 3 are identically zero carriers).
    """
    ga, gb = a.g_degree, b.g_degree
    degree = ga + gb
    phi = data.phi
    pair = (a.kind, b.kind)
    if pair == ("Cas", "B"):
        i = a.indices[0]
        (r,) = b.indices
        if i == 0:
            return MultiVec.zero(degree)
        value = (phi ** (i - 1)) * data.basis_polys[r] * i
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
        factor = (phi ** (i - 1)) * data.basis_polys[r] * scale
        return euler_field(data.weights).mul_poly(factor)
    if pair == ("A", "B"):
        i, k = a.indices
        (r,) = b.indices
        u = data.basis_polys
        return poisson_from_potential(u[r]).mul_poly((phi ** i) * u[k])
    # every other pair of basis classes has vanishing homotopy
    return MultiVec.zero(degree)


def _unshuffles(degrees: Sequence[int], i: int):
    """Yield (chi(s), first, rest) for each (i, n-i)-shuffle s of n inputs
    of these degrees, where first and rest are the 0-based index tuples
    s(1..i) - 1 and s(i+1..n) - 1; first blocks in lexicographic order."""
    n = len(degrees)
    for first in combinations(range(n), i):
        rest = tuple(k for k in range(n) if k not in first)
        yield koszul_chi([k + 1 for k in first + rest], degrees), first, rest


@cache
def _nested_plan(degrees: tuple[int, ...]) -> tuple:
    """The terms of S_n and J_n on inputs of these degrees, as (sign, first,
    rest) with sign = chi(s) * (-1)^(i*(j-1)): the inner ell_i takes the
    inputs at the indices ``first`` and the outer map the rest."""
    n = len(degrees)
    plan = []
    for i in range(2, n):
        outer_sign = -1 if (i * (n - i)) % 2 else 1
        plan += [(chi * outer_sign, first, rest)
                 for chi, first, rest in _unshuffles(degrees, i)]
    return tuple(plan)


@cache
def _bracket_plan(degrees: tuple[int, ...]) -> tuple:
    """The terms of U_n on inputs of these degrees, as (sign, left, right)
    with sign = chi(tau) * e_{s,t}(tau): the bracket of f_s on the inputs
    at the indices ``left`` with f_t on those at ``right``.

    The (s, t)-shuffles tau with tau(1) = 1 are x_1 put in front of the
    (s-1, t)-shuffles of x_2..x_n, and x_1 in front adds no inversion to
    chi.
    """
    n = len(degrees)
    plan = []
    for s in range(1, n):
        for chi, first, rest in _unshuffles(degrees[1:], s - 1):
            left = (0,) + tuple(k + 1 for k in first)
            exponent = (s - 1) + (n - s - 1) * sum(degrees[k] for k in left)
            plan.append((-chi if exponent % 2 else chi, left,
                         tuple(k + 1 for k in rest)))
    return tuple(plan)


@dataclass
class TransferState:
    """Memoized engine for the transferred brackets and homotopies.

    One state per potential; values of ell_n and f_n on canonical label
    tuples are cached, and every request is reduced to the cache through
    graded symmetry, whose canonical order and Koszul sign are cached per
    requested tuple.  ``arity_cap`` bounds the bracket arity that may be
    demanded (requests above it raise ArityCapExceededError).

    T_n, E_n and J_n are evaluated on tuples of basis labels
    (:meth:`T_labels`, :meth:`E_labels`, :meth:`J_labels`) from the shuffle
    plans of their degree pattern; :meth:`ell` and :meth:`f` extend ell_n
    and f_n to class combinations.
    """

    data: SingularityData
    arity_cap: int = 4
    _ell_memo: dict = field(default_factory=dict, repr=False)
    _f_memo: dict = field(default_factory=dict, repr=False)
    _canonical_memo: dict = field(default_factory=dict, repr=False)

    # -- label-tuple level -------------------------------------------------

    def ell_labels(self, labels: Sequence[BasisLabel]) -> CohClass:
        """ell_n on basis labels; graded-symmetric and memoized."""
        value, chi = self._lookup(tuple(labels), self._ell_memo)
        return value * chi

    def f_labels(self, labels: Sequence[BasisLabel]) -> MultiVec:
        """f_n on basis labels; graded-symmetric and memoized."""
        value, chi = self._lookup(tuple(labels), self._f_memo)
        return value * chi

    def _lookup(self, labels: tuple[BasisLabel, ...], memo: dict):
        """(value, chi) with ell_n (``memo`` is the ell memo) or f_n (the f
        memo) of the label tuple equal to chi * value, chi = +-1: ell_1 = 0
        and f_1 = realize at arity 1, :func:`_f2_table` for f_2 on canonical
        pairs, and :meth:`_compute_stage` from T_n(key) for every other
        canonical tuple.  Canonical tuples are memoized in ``memo``."""
        n = len(labels)
        if n < 1:
            raise ValueError("bracket arity must be at least 1")
        if n > self.arity_cap:
            raise ArityCapExceededError(
                f"arity {n} exceeds the configured cap {self.arity_cap}"
            )
        ell = memo is self._ell_memo
        if n == 1:
            if ell:
                return CohClass.zero(labels[0].g_degree + 1), 1
            return realize(labels[0], self.data), 1
        key, chi = self._canonical_key(labels)
        if key is None:
            degree = sum(lab.g_degree for lab in labels) + 2 - n
            return (CohClass.zero(degree) if ell
                    else MultiVec.zero(degree)), 1
        value = memo.get(key)
        if value is None:
            if n == 2 and not ell:
                value = memo[key] = _f2_table(self.data, *key)
            else:
                self._compute_stage(key, self.T_labels(key))
                value = memo[key]
        return value, chi

    def _canonical_key(self, labels: tuple[BasisLabel, ...]
                       ) -> tuple[Optional[tuple], int]:
        """(key, chi) with key the label tuple in canonical order and
        value(labels) = chi * value(key), or (None, 0) when a label of even
        degree repeats and the value vanishes; cached per tuple.  The one
        rule that reorders labels and signs the reordering."""
        canonical = self._canonical_memo.get(labels)
        if canonical is not None:
            return canonical
        n = len(labels)
        order = sorted(range(n), key=lambda i: labels[i].sort_key())
        key = tuple(labels[i] for i in order)
        for i in range(n - 1):
            if key[i] == key[i + 1] and key[i].g_degree % 2 == 0:
                canonical = self._canonical_memo[labels] = None, 0
                return canonical
        degrees = [lab.g_degree for lab in labels]
        chi = koszul_chi([i + 1 for i in order], degrees)
        canonical = self._canonical_memo[labels] = key, chi
        return canonical

    def _compute_stage(self, key: tuple[BasisLabel, ...],
                       t_value: MultiVec) -> None:
        """Fill the caches at one canonical tuple of arity >= 2 from its
        T_n, ``t_value``, evaluated by the caller."""
        n = len(key)
        # T_n (n >= 3) vanishes on bivector-class tuples, which makes the
        # order-by-order deformation formula close; fail loudly if not.
        if (n > 2 and all(lab.g_degree == 1 for lab in key)
                and not t_value.is_zero()):
            raise CohomologyError(
                f"obstruction T_{n} expected to vanish on bivector-class "
                f"tuple {tuple(str(l) for l in key)} but did not")
        t_class, y = decompose(t_value, self.data)
        self._ell_memo[key] = -t_class
        if n > 2:
            self._f_memo[key] = y

    def _nested_terms(self, labels: tuple[BasisLabel, ...],
                      degrees: tuple[int, ...], memo: dict) -> list:
        """(c, value) for the nonzero terms c * value of S_n (``memo`` is
        the f memo) or J_n (the ell memo): the outer map on each label of
        each inner ell_i, c an exact scalar."""
        lookup = self._lookup
        ell_memo = self._ell_memo
        terms = []
        for sign, first, rest in _nested_plan(degrees):
            inner, chi = lookup(tuple([labels[k] for k in first]), ell_memo)
            if inner.coeffs:
                sign *= chi
                rest = tuple([labels[k] for k in rest])
                for label, coeff in inner.coeffs:
                    value, chi = lookup((label,) + rest, memo)
                    if not value.is_zero():
                        terms.append((coeff * (sign * chi), value))
        return terms

    def T_labels(self, labels: Sequence[BasisLabel]) -> MultiVec:
        """The obstruction T_n = S_n - U_n on basis labels (module
        docstring): S_n as one product sum per output component, U_n as one
        Schouten sum."""
        labels = tuple(labels)
        degrees = tuple([lab.g_degree for lab in labels])
        degree = sum(degrees) + 3 - len(labels)
        total = linear_sum(degree, self._nested_terms(labels, degrees,
                                                      self._f_memo))
        lookup = self._lookup
        f_memo = self._f_memo
        brackets = []
        for sign, left, right in _bracket_plan(degrees):
            p, chi_p = lookup(tuple([labels[k] for k in left]), f_memo)
            q, chi_q = lookup(tuple([labels[k] for k in right]), f_memo)
            brackets.append((sign * chi_p * chi_q, p, q))
        return total - schouten_sum(brackets) if brackets else total

    def E_labels(self, labels: Sequence[BasisLabel]) -> MultiVec:
        """The morphism residual d(f_n(x)) - f_1(ell_n(x)) - T_n(x) on basis
        labels; zero when the order-n morphism equation holds.  A fresh pair
        in either order fills its stage from this T_2 (f_2 is the table, so
        E_2 stays a check); a tuple of arity >= 3 is checked against the
        T_n of its canonical tuple, which fills the stage."""
        labels = tuple(labels)
        t_value = self.T_labels(labels)
        if len(labels) == 2 <= self.arity_cap:
            key, chi = self._canonical_key(labels)
            if key is not None and key not in self._ell_memo:
                self._compute_stage(key, t_value * chi)
        residual = coboundary(self.f_labels(labels), self.data.phi)
        residual = residual - f1(self.ell_labels(labels), self.data)
        return residual - t_value

    def J_labels(self, labels: Sequence[BasisLabel]) -> CohClass:
        """The generalized Jacobi combination J_n on basis labels."""
        labels = tuple(labels)
        degrees = tuple([lab.g_degree for lab in labels])
        coeffs: dict = {}
        for c, value in self._nested_terms(labels, degrees, self._ell_memo):
            for label, v in value.coeffs:
                coeffs[label] = coeffs.get(label, 0) + c * v
        return CohClass.make(sum(degrees) + 3 - len(labels), coeffs)

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
    class is zero, where k is the sum of the class degrees plus 2 - n."""
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


def compute_T(state: TransferState, n: int,
              classes: Sequence[CohClass]) -> MultiVec:
    """The order-n obstruction T_n = S_n - U_n (see module docstring),
    extended multilinearly from :meth:`TransferState.T_labels`.

    Needs brackets and homotopies of arity at most n - 1, so it is the
    quantity that drives the transfer recursion at arity n.
    """
    if len(classes) != n:
        raise ValueError(f"expected {n} classes, got {len(classes)}")
    # the output degree is one above that of ell_n and f_n
    return _multilinear(state.T_labels, classes,
                        lambda k: MultiVec.zero(k + 1))
