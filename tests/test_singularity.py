"""Milnor data: quotient bases, ranks, isolation detection."""

from __future__ import annotations

import json
from collections import Counter

import pytest
import sympy

from poisdef import (
    cli,
    NotIsolatedError,
    SingularityError,
    WeightSystem,
    milnor_basis,
    monomials_of_weight,
    parse_poly,
    poisson_from_potential,
    poly_str,
    project,
)
import poisdef.singularity as singularity
from poisdef.algebra import monomial_key

SYM_VARS = sympy.symbols("x y z")


def brute_force_monomials(weights: tuple[int, int, int],
                          weight: int) -> list[tuple[int, int, int]]:
    """All exponent triples of the given weight, by exhaustive search."""
    if weight < 0:
        return []
    bound = weight + 1
    return [
        (a, b, c)
        for a in range(bound) for b in range(bound) for c in range(bound)
        if a * weights[0] + b * weights[1] + c * weights[2] == weight
    ]


def sympy_slice_rank(phi_text: str, weights: tuple[int, int, int],
                     weight: int) -> tuple[int, int]:
    """Independent (dimension, rank) of one weight slice of the Jacobian ideal.

    Enumerates slice monomials by brute force and row-reduces the products
    (monomial * partial derivative) with sympy, sharing no code with the
    package's own linear algebra.
    """
    phi = sympy.Poly(sympy.sympify(phi_text.replace("^", "**")), *SYM_VARS)
    slice_monoms = brute_force_monomials(weights, weight)
    index = {m: i for i, m in enumerate(slice_monoms)}
    rows = []
    for v in SYM_VARS:
        dphi = sympy.Poly(phi.diff(v), *SYM_VARS)
        monoms = dphi.monoms()
        if not monoms:
            continue
        partial_weights = {
            sum(e * w for e, w in zip(m, weights)) for m in monoms
        }
        assert len(partial_weights) == 1, "partial not weight-homogeneous"
        need = weight - partial_weights.pop()
        for fac in brute_force_monomials(weights, need):
            product = sympy.Poly(
                sympy.prod(s ** e for s, e in zip(SYM_VARS, fac))
                * dphi.as_expr(), *SYM_VARS)
            row = [sympy.Rational(0)] * len(slice_monoms)
            for mono, coeff in zip(product.monoms(), product.coeffs()):
                row[index[mono]] = coeff
            rows.append(row)
    rank = sympy.Matrix(rows).rank() if rows else 0
    return len(slice_monoms), rank


# -- reference potentials (frozen textbook values) -------------------------------


def test_quadric_milnor_data(quadric):
    assert quadric.mu == 1
    assert quadric.d == 2
    assert not quadric.special
    assert [poly_str(p) for p in quadric.basis_polys] == ["1"]
    assert quadric.socle == 0


def test_cubic_milnor_data(cubic):
    assert cubic.mu == 8
    assert cubic.d == 3
    assert cubic.special
    assert [poly_str(p) for p in cubic.basis_polys] == [
        "1", "x", "y", "z", "x*y", "x*z", "y*z", "x*y*z"]
    assert cubic.socle == 3  # 3d - 2|w| = 9 - 6


def test_brieskorn_milnor_data(brieskorn):
    assert brieskorn.mu == 8
    assert brieskorn.d == 30
    assert not brieskorn.special
    assert [poly_str(p) for p in brieskorn.basis_polys] == [
        "1", "z", "y", "z^2", "y*z", "z^3", "y*z^2", "y*z^3"]
    assert brieskorn.socle == 28  # 3*30 - 2*31


@pytest.mark.parametrize("phi_text,weights,mu", [
    ("x^2 + y^2 + z^2", (1, 1, 1), 1),
    ("x^3 + y^3 + z^3", (1, 1, 1), 8),
    ("x^2 + y^3 + z^5", (15, 10, 6), 8),
    ("x^4 + y^4 + z^4", (1, 1, 1), 27),
    ("x^2 + y^2 + z^5", (5, 5, 2), 4),
])
def test_product_formula_and_mu(phi_text, weights, mu):
    """mu equals the product of (d - w_i)/w_i and milnor_basis agrees."""
    phi = parse_poly(phi_text)
    w = WeightSystem(weights)
    d = w.monomial_weight(next(iter(phi.exponents())))
    product = (d - weights[0]) * (d - weights[1]) * (d - weights[2])
    denominator = weights[0] * weights[1] * weights[2]
    assert product % denominator == 0
    assert product // denominator == mu
    assert milnor_basis(phi, w).mu == mu


@pytest.mark.parametrize("phi_text,weights", [
    ("x^2 + y^3 + z^5", (15, 10, 6)),
    ("x^3 + y^3 + z^3", (1, 1, 1)),
])
def test_slice_ranks_match_independent_oracle(phi_text, weights):
    data = milnor_basis(parse_poly(phi_text), WeightSystem(weights))
    for weight in range(0, data.socle + 1):
        red = singularity.jacobian_slice_reduction(data.phi, data.weights,
                                                   weight)
        dim, rank = sympy_slice_rank(phi_text, weights, weight)
        assert len(red.basis) == dim
        assert red.rank == rank


@pytest.fixture
def slice_builds(monkeypatch):
    """Counts Jacobian slice eliminations by weight, from here on."""
    calls = Counter()
    original = singularity.jacobian_slice_reduction

    def counting(phi, weights, degree):
        calls[degree] += 1
        return original(phi, weights, degree)

    monkeypatch.setattr(singularity, "jacobian_slice_reduction", counting)
    return calls


def test_milnor_basis_eliminates_each_slice_once(slice_builds):
    """The isolation check and the basis share one pass over the slices."""
    data = milnor_basis(parse_poly("x^2 + y^3 + z^5"),
                        WeightSystem((15, 10, 6)))
    window_end = data.socle + max(data.d, data.weights.total)
    assert slice_builds == Counter(range(window_end + 1))


def test_basis_defect_counts_match_oracle(brieskorn):
    """Quotient dimension per slice equals dim - rank from the oracle."""
    by_weight: dict[int, int] = {}
    for m in brieskorn.basis:
        w = brieskorn.weights.monomial_weight(m)
        by_weight[w] = by_weight.get(w, 0) + 1
    for weight, count in sorted(by_weight.items()):
        dim, rank = sympy_slice_rank("x^2 + y^3 + z^5", (15, 10, 6), weight)
        assert dim - rank == count


# -- isolation detection ---------------------------------------------------------


def test_equality_ignores_the_slice_cache():
    """Two analyses of one potential stay equal after one warms its cache."""
    phi = parse_poly("x^2+y^3+z^5")
    weights = WeightSystem((15, 10, 6))
    warm, cold = milnor_basis(phi, weights), milnor_basis(phi, weights)
    assert warm == cold
    project(poisson_from_potential(phi), warm)
    assert warm._coboundary_slices and not cold._coboundary_slices
    assert warm == cold


def test_not_isolated_xyz():
    with pytest.raises(NotIsolatedError):
        milnor_basis(parse_poly("x*y*z"), WeightSystem((1, 1, 1)))


def test_not_isolated_square():
    with pytest.raises(NotIsolatedError):
        milnor_basis(parse_poly("x^2 + y^2"), WeightSystem((1, 1, 1)))


def test_regular_point_rejected():
    with pytest.raises(SingularityError):
        milnor_basis(parse_poly("x + y + z"), WeightSystem((1, 1, 1)))


@pytest.mark.parametrize("phi_text,message", [
    ("x^2 + y^3", "weight-homogeneous and nonzero"),
    ("0", "weight-homogeneous and nonzero"),
    ("5", "nonconstant"),
])
def test_potential_must_be_homogeneous_and_nonconstant(phi_text, message):
    with pytest.raises(SingularityError, match=message):
        milnor_basis(parse_poly(phi_text), WeightSystem((1, 1, 1)))


def test_jacobian_slice_needs_a_homogeneous_potential():
    with pytest.raises(SingularityError, match="weight-homogeneous"):
        singularity.jacobian_slice_reduction(
            parse_poly("x^2 + y^3"), WeightSystem((1, 1, 1)), 2)


def test_milnor_budget_checked_before_elimination(monkeypatch, slice_builds):
    """The product formula is compared with MAX_MILNOR before any slice
    is eliminated; a value at the budget is still analysed."""
    with pytest.raises(SingularityError, match="budget"):
        milnor_basis(parse_poly("x^40 + y^40 + z^40"),
                     WeightSystem((1, 1, 1)))
    assert not slice_builds
    monkeypatch.setattr(singularity, "MAX_MILNOR", 8)
    assert milnor_basis(parse_poly("x^3 + y^3 + z^3"),
                        WeightSystem((1, 1, 1))).mu == 8
    with pytest.raises(SingularityError, match="budget"):
        milnor_basis(parse_poly("x^2 + y^3 + z^7"), WeightSystem((21, 14, 6)))


def test_slice_budget_checked_before_elimination(monkeypatch, capsys,
                                                slice_builds):
    """Skewed weights pass the Milnor budget (mu = 4096) but not the slice
    budget, which refuses before any slice is eliminated; a sum at the
    budget is still analysed."""
    code = cli.main(["analyze", "--phi", "x*z+y^4097", "--weights",
                     "1,1,4096", "--weight-cap", "0"])
    out, err = capsys.readouterr()
    assert code == 1 and not out
    error = json.loads(err)["error"]
    assert error["type"] == "SingularityError"
    assert "65536 monomials" in error["message"]
    assert not slice_builds
    cubic = (parse_poly("x^3 + y^3 + z^3"), WeightSystem((1, 1, 1)))
    monkeypatch.setattr(singularity, "MAX_SLICE_MONOMIALS", 84)  # 1+3+...+28
    assert milnor_basis(*cubic).mu == 8
    monkeypatch.setattr(singularity, "MAX_SLICE_MONOMIALS", 83)
    with pytest.raises(SingularityError, match="monomials"):
        milnor_basis(*cubic)


def test_monomial_slice_enumeration():
    w = WeightSystem((15, 10, 6))
    assert monomials_of_weight(w, 0) == [(0, 0, 0)]
    assert monomials_of_weight(w, 1) == []
    got = monomials_of_weight(w, 30)
    assert sorted(got) == sorted(brute_force_monomials((15, 10, 6), 30))
    unit = WeightSystem((1, 1, 1))
    assert len(monomials_of_weight(unit, 4)) == 15  # C(4+2, 2)
    for skewed in ((1, 6, 1), (7, 2, 3)):
        for weight in (0, 5, 13):
            assert monomials_of_weight(WeightSystem(skewed), weight) == sorted(
                brute_force_monomials(skewed, weight), key=monomial_key)
