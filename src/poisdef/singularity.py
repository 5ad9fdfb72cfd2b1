"""Milnor algebra of a weight-homogeneous isolated singularity.

For a weight-homogeneous potential phi with an isolated critical point at
the origin, the quotient of the polynomial ring by the Jacobian ideal
(dphi/dx, dphi/dy, dphi/dz) is a finite-dimensional graded algebra.  This
module computes its dimension (the Milnor number) and a canonical graded
monomial basis of it, one weight slice (a degree-0
:class:`poisdef.multivec.WeightSlice`) of the Jacobian ideal at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .algebra import (
    Exponents,
    Poly,
    WeightSystem,
    _exponents_of_weight,
    weighted_degree,
)
from .multivec import WeightSlice, image_rows

# Largest Milnor number analysed, so that no potential can demand an
# unbounded elimination; x^17+y^17+z^17 (mu = 4096) is the largest
# Fermat potential inside it.
MAX_MILNOR = 4096

# Largest number of monomials, summed over the weight slices the isolation
# check eliminates.  Under skewed weights the Milnor budget does not bound
# that work: x*z+y^4097 with weights (1, 1, 4096) has mu = 4096 but passes
# 200000 monomials by slice 631, while x^17+y^17+z^17 sweeps 43680.
MAX_SLICE_MONOMIALS = 65536


class SingularityError(ValueError):
    """Raised when a potential fails the preconditions of this module."""


class NotIsolatedError(SingularityError):
    """Raised when the critical point of the potential is not isolated."""


def jacobian_slice_reduction(phi: Poly, weights: WeightSystem,
                             degree: int) -> WeightSlice:
    """Eliminate the weight-``degree`` slice of the Jacobian ideal of phi:
    the image V(phi) of the vector fields V of weight degree - d, each
    row tagged by its (slot, m), as the coboundary slices are."""
    d = weighted_degree(phi, weights)
    if d is None:
        raise SingularityError("potential must be weight-homogeneous and nonzero")
    reduction = WeightSlice(weights, 0, degree)
    for tag, row in image_rows(phi, 1, degree - d, reduction):
        reduction.add(row, tag)
    return reduction


@dataclass
class SingularityData:
    """Everything downstream modules need about one potential.

    ``basis`` lists the canonical monomial basis u_0 = 1, u_1, ..., of the
    quotient by the Jacobian ideal in increasing (weight, revlex) order;
    ``special`` records whether d equals |w| (the weight of the potential
    equals the sum of the variable weights), which changes the cohomology
    bases downstream.  The two private fields are caches that equality
    ignores: the coboundary slice solvers and the class representatives
    (see :mod:`poisdef.cohomology`).
    """

    phi: Poly
    weights: WeightSystem
    d: int
    mu: int
    basis: tuple[Exponents, ...]
    socle: int
    _coboundary_slices: dict[tuple[int, int], WeightSlice] = field(
        default_factory=dict, repr=False, compare=False)
    _realized: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def special(self) -> bool:
        return self.d == self.weights.total

    @cached_property
    def basis_polys(self) -> tuple[Poly, ...]:
        """The basis monomials as polynomials, built once per potential."""
        return tuple(Poly.monomial(m) for m in self.basis)

    def basis_weight(self, index: int) -> int:
        return self.weights.monomial_weight(self.basis[index])


def milnor_basis(phi: Poly, weights: WeightSystem) -> SingularityData:
    """Milnor number and canonical monomial basis of the quotient algebra,
    or NotIsolatedError.

    The quotient by the Jacobian ideal of a weight-homogeneous potential
    with an isolated critical point is concentrated in weights 0 to
    3d - 2|w| (d the degree of phi, |w| the sum of the weights); the
    non-pivot monomials of those slices span it.  The slices strictly
    above that socle degree, up to socle + max(d, |w|), must vanish; the
    first nonzero one witnesses a non-isolated critical locus.  The count
    is cross-checked against the product formula prod_i (d - w_i) / w_i;
    a formula value above MAX_MILNOR, or swept slices holding more than
    MAX_SLICE_MONOMIALS monomials in all, raises SingularityError before
    any slice is eliminated.
    """
    d = weighted_degree(phi, weights)
    if d is None or phi.is_zero():
        raise SingularityError("potential must be weight-homogeneous and nonzero")
    if d == 0:
        raise SingularityError("potential must be nonconstant")
    w1, w2, w3 = weights.weights
    expected = Fraction(d - w1, w1) * Fraction(d - w2, w2) * Fraction(d - w3, w3)
    if expected > MAX_MILNOR:
        raise SingularityError(
            f"Milnor number {expected} (product formula) exceeds the budget "
            f"of {MAX_MILNOR}"
        )
    socle = 3 * d - 2 * weights.total
    swept = range(0, socle + max(d, weights.total) + 1)
    size = 0
    for degree in swept:
        size += sum(1 for _ in _exponents_of_weight(weights, degree))
        if size > MAX_SLICE_MONOMIALS:
            raise SingularityError(
                f"the weight slices 0..{swept[-1]} hold more than the budget "
                f"of {MAX_SLICE_MONOMIALS} monomials (passed at slice {degree})"
            )
    basis: list[Exponents] = []
    for degree in swept:
        reduction = jacobian_slice_reduction(phi, weights, degree)
        missing = len(reduction.basis) - reduction.rank
        if degree <= socle:
            # the non-pivot monomials span the quotient, slice by slice
            pivots = set(reduction.pivots)
            basis += [m for i, (_, m) in enumerate(reduction.basis)
                      if i not in pivots]
        elif missing:
            raise NotIsolatedError(
                f"Jacobian ideal misses {missing} monomial(s) in weight "
                f"{degree}, above the socle degree {socle}: the critical "
                "point is not isolated",
            )
    mu = len(basis)
    if expected != mu:
        raise NotIsolatedError(
            f"slice count {mu} disagrees with the product formula "
            f"{expected}: the critical point is not isolated",
        )
    if mu == 0:
        raise NotIsolatedError(
            "Milnor number is zero: the potential has no critical point "
            "at the origin (it is regular there)",
        )
    if basis[0] != (0, 0, 0):
        raise AssertionError("the constant monomial must represent u_0 = 1")
    return SingularityData(phi=phi, weights=weights, d=d, mu=mu,
                           basis=tuple(basis), socle=socle)
