"""Acceptance criteria: one test per criterion, every assertion exact.

Each test prints and checks a single criterion; the verbose pytest line
for each test is the criterion's pass/fail line.  All residual checks
compare against exact zero — there are no tolerances.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from poisdef import (
    CohClass,
    NotIsolatedError,
    SuiteConfig,
    WeightSystem,
    build_deformation,
    coboundary,
    enumerate_basis,
    first_order_class,
    gamma_classes,
    gauge_apply,
    jacobi_residual,
    mc_image,
    milnor_basis,
    parse_label,
    parse_poly,
    poisson_from_potential,
    poly_str,
    realize,
    schouten,
)
from poisdef.singularity import jacobian_slice_reduction
from poisdef.suites import (
    random_family,
    random_gauge_series,
    run_schouten_suite,
    run_tables_suite,
    run_transfer_suite,
)
from test_singularity import sympy_slice_rank


def _passed(report: dict, name: str) -> dict:
    """The named check from a suite report; must exist."""
    for check in report["checks"]:
        if check["name"] == name:
            return check
    raise AssertionError(f"check {name!r} missing from {report['suite']}")


@pytest.fixture(scope="module")
def seeded_families(brieskorn):
    """Twenty seeded random families on x^2+y^3+z^5, on its degree-1
    labels under the default cocycle cap (phi power <= 2)."""
    rng = random.Random(0)
    labels = enumerate_basis(brieskorn, 1, SuiteConfig().cocycle_cap(brieskorn))
    families = [random_family(rng, labels, order=3) for _ in range(20)]
    series = [build_deformation(brieskorn, fam, 3) for fam in families]
    return list(zip(families, series))


# -- criterion 1: Milnor data -----------------------------------------------------


def test_criterion_01_milnor_data(quadric, cubic, brieskorn):
    # frozen reference values
    assert quadric.mu == 1
    assert cubic.mu == 8
    assert brieskorn.mu == 8
    assert [poly_str(p) for p in cubic.basis_polys] == [
        "1", "x", "y", "z", "x*y", "x*z", "y*z", "x*y*z"]
    # independent slice-rank oracle on every slice up to the socle
    for data, text, weights in [
            (cubic, "x^3 + y^3 + z^3", (1, 1, 1)),
            (brieskorn, "x^2 + y^3 + z^5", (15, 10, 6))]:
        total_defect = 0
        for weight in range(0, data.socle + 1):
            red = jacobian_slice_reduction(data.phi, data.weights, weight)
            dim, rank = sympy_slice_rank(text, weights, weight)
            assert len(red.basis) == dim
            assert red.rank == rank
            total_defect += dim - rank
        assert total_defect == data.mu
    # product cross-check: mu = prod (d - w_i) / w_i
    for data in (quadric, cubic, brieskorn):
        w = data.weights.weights
        product = (data.d - w[0]) * (data.d - w[1]) * (data.d - w[2])
        assert product == data.mu * w[0] * w[1] * w[2]
    # non-isolated input is rejected
    with pytest.raises(NotIsolatedError):
        milnor_basis(parse_poly("x*y*z"), WeightSystem((1, 1, 1)))
    print("criterion 01 PASS: Milnor data exact (mu = 1, 8, 8; oracle ranks)")


# -- criterion 2: the structure bivector is Poisson ---------------------------------


def test_criterion_02_structure_self_bracket(quadric, cubic, brieskorn):
    for data in (quadric, cubic, brieskorn):
        pi = poisson_from_potential(data.phi)
        assert schouten(pi, pi).is_zero()
    print("criterion 02 PASS: [pi, pi] = 0 exactly for all three potentials")


# -- criterion 3: cocycle bases under weight cap 3d ---------------------------------


def test_criterion_03_cocycle_bases(quadric, cubic, brieskorn):
    for data in (quadric, cubic, brieskorn):
        cap = 3 * data.d
        for g in (-1, 0, 1, 2):
            for lab in enumerate_basis(data, g, cap):
                image = coboundary(realize(lab, data), data.phi)
                assert image.is_zero(), f"{lab} not a cocycle"
        degree0 = [str(lab) for lab in enumerate_basis(data, 0, cap)]
        if data.special:
            assert degree0 == [f"Eul({i})" for i in range(cap // data.d + 1)]
        else:
            assert degree0 == []
    print("criterion 03 PASS: all representatives exact cocycles; "
          "degree-0 family matches the balanced/unbalanced split")


# -- criterion 4: closed bracket identities ------------------------------------------


def test_criterion_04_bracket_identities(cubic, brieskorn):
    config = SuiteConfig(order=2, seed=0)
    for data in (cubic, brieskorn):
        report = run_schouten_suite(data, config)
        gens = 3 * data.mu  # phi powers 0..2 times u_0..u_(mu-1)
        pairs = gens * (gens + 1) // 2
        check = _passed(report, "hamiltonian_pair_brackets_vanish")
        assert check["pass"] and check["cases"] == pairs
        check = _passed(report, "hamiltonian_exact_brackets_are_coboundaries")
        assert check["pass"] and check["cases"] == gens * (data.mu - 1)
        check = _passed(report, "exact_pair_brackets_vanish")
        n_exact = data.mu - 1
        assert check["pass"] and check["cases"] == n_exact * (n_exact + 1) // 2
    print("criterion 04 PASS: all three bracket identity families exact "
          "on both reference potentials")


# -- criterion 5: order-2 morphism equation on all basis pairs ------------------------


def test_criterion_05_order2_equation(brieskorn, brieskorn_state,
                                       cubic, cubic_state):
    config = SuiteConfig(order=2, seed=0)
    for data, state in ((brieskorn, brieskorn_state), (cubic, cubic_state)):
        report = run_tables_suite(data, config, state)
        assert report["status"] == "pass"
        check = _passed(report, "order2_morphism_equation_on_basis_pairs")
        assert check["pass"] and check["cases"] > 100
    print("criterion 05 PASS: order-2 morphism equation exact on every "
          "basis pair (generic and balanced potentials)")


# -- criterion 6: obstruction vanishing and Jacobi identities --------------------------


def test_criterion_06_transfer_obstructions(brieskorn, brieskorn_state):
    config = SuiteConfig(order=3, seed=0)
    report = run_transfer_suite(brieskorn, config, brieskorn_state)
    assert report["status"] == "pass"
    check = _passed(report, "order3_obstruction_vanishes_on_degree1_triples")
    h1 = enumerate_basis(brieskorn, 1, 2 * brieskorn.d)
    expected = len(list(itertools.combinations_with_replacement(h1, 3)))
    assert check["cases"] == expected and expected > 1000
    for name in ("order3_obstructions_are_cocycles",
                 "order4_obstructions_are_cocycles",
                 "order3_morphism_equation_on_sampled_tuples",
                 "order4_morphism_equation_on_sampled_tuples",
                 "order3_jacobi_identity_on_sampled_tuples",
                 "order4_jacobi_identity_on_sampled_tuples"):
        assert _passed(report, name)["pass"]
    print("criterion 06 PASS: T3 = 0 on all degree-1 triples; obstructions "
          "are exact cocycles; order-3/4 equations and Jacobi hold")


# -- criterion 7: closed-form ternary bracket value -----------------------------------


def test_criterion_07_ternary_witness(quadric_state, brieskorn_state):
    phi_bar = parse_label("Cas(1)")
    vol_bar = parse_label("Top(0,0)")
    # x^2+y^2+z^2: 2*2/(3-2) = 4, in this package's recorded sign convention
    value = quadric_state.ell_labels((phi_bar, phi_bar, vol_bar))
    assert value == CohClass.single(phi_bar, Fraction(4))
    # x^2+y^3+z^5: 2*30/(31-30) = 60
    value = brieskorn_state.ell_labels((phi_bar, phi_bar, vol_bar))
    assert value == CohClass.single(phi_bar, Fraction(60))
    print("criterion 07 PASS: l3(phi,phi,vol) = 4*phi and 60*phi exactly "
          "(positive sign per the package convention)")


# -- criterion 8: random families satisfy Maurer-Cartan --------------------------------


def test_criterion_08_random_families_poisson(seeded_families):
    assert len(seeded_families) == 20
    for _fam, series in seeded_families:
        residual = jacobi_residual(series)
        for n in range(1, 4):
            assert residual.coefficient(n).is_zero()
    print("criterion 08 PASS: 20 seeded families Poisson to order 3 exactly")


# -- criterion 9: dual route, class recovery, gauge invariance -------------------------


def test_criterion_09_consistency_and_gauge(brieskorn, brieskorn_state,
                                            seeded_families):
    for fam, series in seeded_families:
        gamma = gamma_classes(fam, brieskorn, 3)
        image = mc_image(brieskorn_state, gamma, 3)
        assert series.coefficient(0) == poisson_from_potential(brieskorn.phi)
        for n in range(1, 4):
            assert series.coefficient(n) == image.coefficient(n)
        assert first_order_class(series, brieskorn) == gamma.coefficient(1)
    # gauge invariance at order 2 with ten seeded vector-field series
    rng = random.Random(1)
    fam, _ = seeded_families[0]
    base = build_deformation(brieskorn, fam, 2)
    base_class = first_order_class(base, brieskorn)
    for _ in range(10):
        xi = random_gauge_series(rng, 2)
        gauged = gauge_apply(base, xi)
        assert jacobi_residual(gauged).is_zero()
        assert first_order_class(gauged, brieskorn) == base_class
    print("criterion 09 PASS: builder = anchor + Maurer-Cartan image; "
          "first-order class recovered; gauge leaves it fixed (10 seeds)")


# -- criterion 10: truncations are prefixes --------------------------------------------


def test_criterion_10_truncation_prefixes(brieskorn, seeded_families):
    for fam, series in seeded_families:
        for m in (1, 2):
            trunc = build_deformation(brieskorn, fam, m)
            for n in range(1, m + 1):
                assert trunc.coefficient(n) == series.coefficient(n)
    print("criterion 10 PASS: order-1/2 builds are exact prefixes of "
          "the order-3 builds for all 20 families")
