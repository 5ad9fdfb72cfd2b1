"""Suite runners: structure, determinism, and pass status."""

from __future__ import annotations

import random

import pytest

from poisdef import (
    SUITE_NAMES,
    BasisLabel,
    MultiVec,
    Poly,
    SuiteConfig,
    WeightSystem,
    enumerate_basis,
    milnor_basis,
    parse_poly,
)
from poisdef.multivec import SLOTS
from poisdef.suites import (
    all_basis_labels,
    random_family,
    random_fraction,
    random_gauge_series,
    random_multivector,
    random_polynomial,
    run_suite,
    run_suites,
)

SMALL = SuiteConfig(order=2, seed=5)


def test_unknown_suite_rejected(quadric):
    with pytest.raises(ValueError):
        run_suite("nope", quadric, SMALL)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_on_quadric(quadric, name):
    report = run_suite(name, quadric, SMALL)
    assert report["suite"] == name
    assert report["status"] == "pass"
    assert report["counts"]["fail"] == 0
    assert report["counts"]["pass"] == len(report["checks"])
    for check in report["checks"]:
        assert check["pass"] is True
        assert isinstance(check["name"], str)
        assert check["cases"] >= 0  # empty sweeps are vacuously true
    assert any(check["cases"] >= 1 for check in report["checks"])


def test_reports_are_deterministic(quadric):
    first = run_suites(SUITE_NAMES, quadric, SMALL)
    second = run_suites(SUITE_NAMES, quadric, SMALL)
    assert first == second


def test_seed_changes_samples_not_status(quadric):
    alt = SuiteConfig(order=2, seed=99)
    report = run_suite("deform", quadric, alt)
    assert report["status"] == "pass"


def test_suites_pass_on_brieskorn_small_caps(brieskorn, brieskorn_state):
    config = SuiteConfig(order=2, weight_cap=brieskorn.d, seed=1)
    for name in SUITE_NAMES:
        report = run_suite(name, brieskorn, config, brieskorn_state)
        assert report["status"] == "pass", report


def test_deform_suite_brackets_the_anchor_once(brieskorn, brieskorn_state,
                                               monkeypatch):
    """Every family's series is anchored at pi_phi, so the deform suite
    evaluates [pi_phi, pi_phi] once, not once per family."""
    import poisdef.suites as suites
    brackets = []
    original = suites.schouten

    def counting_schouten(p, q):
        brackets.append((p.degree, q.degree))
        return original(p, q)

    monkeypatch.setattr(suites, "schouten", counting_schouten)
    config = SuiteConfig(order=2, weight_cap=brieskorn.d, seed=1)
    report = run_suite("deform", brieskorn, config, brieskorn_state)
    assert report["status"] == "pass", report
    assert brackets == [(2, 2)]


@pytest.mark.parametrize("name, cap", [("cubic", 2), ("brieskorn", 30)])
def test_deform_suite_builds_no_slice_above_the_weight_cap(request, monkeypatch,
                                                          name, cap):
    """``--weight-cap`` bounds the labels of sampled families, so every
    cohomology slice the deform suite solves against is under the cap."""
    import poisdef.cohomology as cohomology
    data = request.getfixturevalue(name)
    weights = []
    original = cohomology._slice_solver

    def recording_slice_solver(data, degree, weight):
        weights.append(weight)
        return original(data, degree, weight)

    monkeypatch.setattr(cohomology, "_slice_solver", recording_slice_solver)
    report = run_suite("deform", data, SuiteConfig(weight_cap=cap))
    assert report["status"] == "pass", report
    assert weights and max(weights) <= cap


def test_special_gauge_checks_present(cubic, cubic_state):
    config = SuiteConfig(order=2, weight_cap=cubic.d, seed=2)
    report = run_suite("gauge", cubic, config, cubic_state)
    names = [check["name"] for check in report["checks"]]
    assert "class_level_gauge_preserves_maurer_cartan" in names
    assert report["status"] == "pass"


def test_ternary_witness_present_for_generic_only(quadric, cubic, cubic_state):
    report = run_suite("transfer", quadric, SMALL)
    names = [check["name"] for check in report["checks"]]
    assert "ternary_bracket_closed_form_on_potential_volume" in names
    config = SuiteConfig(order=2, weight_cap=cubic.d, seed=2)
    report = run_suite("transfer", cubic, config, cubic_state)
    names = [check["name"] for check in report["checks"]]
    assert "ternary_bracket_closed_form_on_potential_volume" not in names


# -- samplers -------------------------------------------------------------------


def test_random_fraction_determinism():
    a = [random_fraction(random.Random(3)) for _ in range(5)]
    b = [random_fraction(random.Random(3)) for _ in range(5)]
    assert a == b
    assert all(f != 0 for f in a)


def test_random_polynomial_bounds():
    rng = random.Random(7)
    for _ in range(10):
        p = random_polynomial(rng, max_terms=3)
        for exps in p.exponents():
            assert all(0 <= e <= 2 for e in exps)


def test_random_multivector_shape():
    rng = random.Random(9)
    for degree in (0, 1, 2, 3):
        mv = random_multivector(rng, degree)
        assert mv.degree == degree


def test_random_family_validity(brieskorn, cubic):
    """Every entry of a sampled family names one of the labels it was
    given: the degree-1 basis under the cap, here at caps 0, 2 and the
    default."""
    rng = random.Random(11)
    for data in (brieskorn, cubic):
        for cap in (0, 2, None):
            labels = enumerate_basis(
                data, 1, SuiteConfig(weight_cap=cap).cocycle_cap(data))
            assert labels
            for _ in range(10):
                fam = random_family(rng, labels, order=3)
                fam.validate(data)  # must not raise
                drawn = ([(n, BasisLabel("A", (l, i))) for (n, l, i), _v in fam.c]
                         + [(n, BasisLabel("B", (r,))) for (n, r), _v in fam.cbar])
                assert drawn
                for n, label in drawn:
                    assert 1 <= n <= 3
                    assert label in labels


def test_random_family_empty_when_no_h1(quadric):
    rng = random.Random(13)
    labels = enumerate_basis(quadric, 1, SuiteConfig().cocycle_cap(quadric))
    assert labels == []
    fam = random_family(rng, labels, order=3)
    assert fam.c == () and fam.cbar == ()


def test_random_gauge_series_shape():
    rng = random.Random(15)
    xi = random_gauge_series(rng, 3)
    assert xi.order_cap == 3
    assert all(c.degree == 1 for c in xi.coeffs)


def test_all_basis_labels_sorted_by_degree(brieskorn):
    labels = all_basis_labels(brieskorn, brieskorn.d)
    degrees = [lab.g_degree for lab in labels]
    assert degrees == sorted(degrees)


@pytest.mark.parametrize("phi", ["x^2+y^2+z^2", "x^3+y^3+z^3"])
def test_warm_caches_and_shared_zeros_leave_reports_alone(phi):
    """The reference pass run twice on one SingularityData, the second time
    with every representative and slice solver cached, gives the report of
    the fresh run, and no suite has written into a shared zero."""
    config = SuiteConfig(order=3, weight_cap=2, arity_cap=4, seed=0)
    data = milnor_basis(parse_poly(phi), WeightSystem((1, 1, 1)))
    fresh = run_suites(SUITE_NAMES, data, config)
    assert data._realized and data._coboundary_slices
    assert run_suites(SUITE_NAMES, data, config) == fresh
    zero = Poly.zero()
    assert zero.is_zero() and len(zero) == 0 and zero == Poly()
    assert str(zero) == "0" and all(zero.diff(i) is zero for i in range(3))
    for degree in range(-1, 6):
        mv = MultiVec.zero(degree)
        assert mv.degree == degree and mv.is_zero()
        assert mv.comps == (zero,) * len(SLOTS.get(degree, ()))
