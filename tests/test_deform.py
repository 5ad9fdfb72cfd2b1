"""Truncated deformations, Maurer-Cartan checks, and gauge actions."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from poisdef import (
    CoeffFamily,
    InvalidFamilyError,
    MultiVec,
    NuSeries,
    Poly,
    SuiteConfig,
    build_deformation,
    enumerate_basis,
    first_order_class,
    gamma_classes,
    gauge_apply,
    gauge_special,
    jacobi_residual,
    mc_image,
    parse_label,
    poisson_from_potential,
)
from poisdef.cohomology import CohClass
from poisdef.deform import MAX_PHI_POWER
from poisdef.suites import random_family, random_gauge_series
from shuffle_oracle import evaluate, shuffle_sum


def _degree1(data):
    """The labels the deform suite samples families on at default caps."""
    return enumerate_basis(data, 1, SuiteConfig().cocycle_cap(data))


# -- families --------------------------------------------------------------------


def test_family_json_round_trip():
    fam = CoeffFamily.make(
        {(1, 0, 1): Fraction(3, 2), (2, 1, 4): -2},
        {(1, 1): 1, (3, 7): Fraction(-5, 3)},
    )
    payload = json.loads(json.dumps(fam.to_json_dict()))
    assert CoeffFamily.from_json_dict(payload) == fam


def test_family_drops_zero_entries():
    fam = CoeffFamily.make({(1, 0, 1): 0}, {(1, 1): Fraction(0)})
    assert fam == CoeffFamily.make({}, {})


def test_family_refuses_inexact_coefficients():
    with pytest.raises(TypeError):
        CoeffFamily.make({(1, 0, 1): 0.1}, {})
    with pytest.raises(TypeError):
        CoeffFamily.make({}, {(1, 1): 0.5})
    fam = CoeffFamily.make({(1, 0, 1): Fraction(6, 3)}, {(1, 1): Fraction(1, 2)})
    assert fam.c == (((1, 0, 1), 2),) and type(fam.c[0][1]) is int
    assert fam.to_json_dict() == {"c": [[1, 0, 1, "2"]],
                                  "cbar": [[1, 1, "1/2"]]}


def test_family_values_are_bounded_like_literals():
    """An int value of the JSON form has at most MAX_COEFFICIENT_BITS bits,
    as a family file's numbers and "p/q" strings do."""
    fam = CoeffFamily.from_json_dict({"c": [[1, 0, 1, 2 ** 1024]]})
    assert fam.c == (((1, 0, 1), 2 ** 1024),)
    for value in (2 ** 1024 + 1, -2 ** 1024 - 1, 10 ** 400):
        with pytest.raises(InvalidFamilyError, match="1024-bit limit"):
            CoeffFamily.from_json_dict({"cbar": [[1, 1, value]]})


def test_family_refuses_unknown_keys():
    """A misspelled table is refused by name, not read as an empty one."""
    with pytest.raises(InvalidFamilyError, match="'C'"):
        CoeffFamily.from_json_dict({"C": [[1, 0, 1, "3/2"]], "cbar": []})
    with pytest.raises(InvalidFamilyError, match="'cbars', 'note'"):
        CoeffFamily.from_json_dict({"c": [], "cbars": [], "note": "x"})
    assert CoeffFamily.from_json_dict({"c": []}) == CoeffFamily.make({}, {})


def test_family_refuses_repeated_indices():
    """A repeated entry is refused, not read as the last of its kind."""
    with pytest.raises(InvalidFamilyError, match=r"c entry \[1, 0, 1, '-3/2'\]"):
        CoeffFamily.from_json_dict(
            {"c": [[1, 0, 1, "3/2"], [1, 0, 1, "-3/2"]]})
    with pytest.raises(InvalidFamilyError, match="repeats the indices"):
        CoeffFamily.from_json_dict({"cbar": [[1, 2, "1"], [1, 2, "5"]]})
    fam = CoeffFamily.from_json_dict(
        {"c": [[1, 0, 1, "3/2"]], "cbar": [[1, 2, 1], [2, 2, 5]]})
    assert fam.cbar == (((1, 2), 1), ((2, 2), 5))


def test_family_validation(brieskorn):
    CoeffFamily.make({(1, 0, 1): 1}, {(1, 7): 1}).validate(brieskorn)
    with pytest.raises(InvalidFamilyError):
        CoeffFamily.make({(1, 0, 0): 1}, {}).validate(brieskorn)  # u_0 excluded
    with pytest.raises(InvalidFamilyError):
        CoeffFamily.make({(0, 0, 1): 1}, {}).validate(brieskorn)  # order >= 1
    with pytest.raises(InvalidFamilyError):
        CoeffFamily.make({}, {(1, 8): 1}).validate(brieskorn)  # r < mu
    with pytest.raises(InvalidFamilyError):
        CoeffFamily.make({}, {(1, 0): 1}).validate(brieskorn)  # r >= 1
    CoeffFamily.make({(1, MAX_PHI_POWER, 1): 1}, {}).validate(brieskorn)


def test_family_validation_special(cubic):
    CoeffFamily.make({(1, 0, 0): 1}, {}).validate(cubic)  # u_0 allowed


# -- building deformations ---------------------------------------------------------


def test_empty_family_gives_trivial_series(brieskorn):
    series = build_deformation(brieskorn, CoeffFamily.make({}, {}), 3)
    assert series.coefficient(0) == poisson_from_potential(brieskorn.phi)
    assert all(series.coefficient(n).is_zero() for n in range(1, 4))
    assert jacobi_residual(series).is_zero()


def test_unit_family_frozen_coefficients(brieskorn):
    """Hand-checked coefficients for c[1,0,1] = cbar[1,1] = 1."""
    fam = CoeffFamily.make({(1, 0, 1): 1}, {(1, 1): 1})
    series = build_deformation(brieskorn, fam, 3)
    z = Poly.variable(2)
    pi = poisson_from_potential(brieskorn.phi)
    pi_z = poisson_from_potential(z)
    assert series.coefficient(1) == pi.mul_poly(z) + pi_z
    assert series.coefficient(2) == pi_z.mul_poly(z)
    assert series.coefficient(3).is_zero()
    assert jacobi_residual(series).is_zero()


def test_deformed_bracket_values(brieskorn):
    """The order-1 deformed bracket {x,y} picks up nu * d/dz contributions."""
    fam = CoeffFamily.make({}, {(1, 1): 1})  # add the exact bivector of z
    series = build_deformation(brieskorn, fam, 2)
    x, y = Poly.variable(0), Poly.variable(1)
    base = evaluate(series.coefficient(0), [x, y])
    correction = evaluate(series.coefficient(1), [x, y])
    assert base == brieskorn.phi.diff(2)
    assert correction == Poly.one()  # {x,y}_z = dz/dz = 1


@pytest.mark.parametrize("seed", range(6))
def test_random_families_poisson(brieskorn, seed):
    rng = random.Random(seed)
    fam = random_family(rng, _degree1(brieskorn), order=3)
    series = build_deformation(brieskorn, fam, 3)
    assert jacobi_residual(series).is_zero()


def test_special_random_families_poisson(cubic):
    rng = random.Random(23)
    for _ in range(4):
        fam = random_family(rng, _degree1(cubic), order=3)
        series = build_deformation(cubic, fam, 3)
        assert jacobi_residual(series).is_zero()


def test_truncation_prefix_property(brieskorn):
    rng = random.Random(5)
    fam = random_family(rng, _degree1(brieskorn), order=3)
    full = build_deformation(brieskorn, fam, 3)
    for m in (1, 2):
        trunc = build_deformation(brieskorn, fam, m)
        for n in range(1, m + 1):
            assert trunc.coefficient(n) == full.coefficient(n)


# -- dual route: pair form vs Maurer-Cartan image ------------------------------------


@pytest.mark.parametrize("name", ["brieskorn", "cubic"])
def test_build_matches_mc_image(request, name):
    """The pair form and the anchored Maurer-Cartan image agree; the
    balanced cubic also exercises A labels on u_0."""
    data = request.getfixturevalue(name)
    state = request.getfixturevalue(f"{name}_state")
    rng = random.Random(31)
    for _ in range(4):
        fam = random_family(rng, _degree1(data), order=3)
        series = build_deformation(data, fam, 3)
        gamma = gamma_classes(fam, data, 3)
        assert mc_image(state, gamma, 3) == series


def test_first_order_class_recovery(brieskorn):
    fam = CoeffFamily.make({(1, 1, 2): Fraction(7, 2)}, {(1, 3): -1})
    series = build_deformation(brieskorn, fam, 2)
    cls = first_order_class(series, brieskorn)
    assert cls.coefficient(parse_label("A(1,2)")) == Fraction(7, 2)
    assert cls.coefficient(parse_label("B(3)")) == -1


def test_gamma_classes_layout(brieskorn):
    fam = CoeffFamily.make({(2, 0, 1): 5}, {(1, 2): 3})
    gamma = gamma_classes(fam, brieskorn, 3)
    assert gamma.coefficient(1) == CohClass.single(parse_label("B(2)"), 3)
    assert gamma.coefficient(2) == CohClass.single(parse_label("A(0,1)"), 5)
    assert gamma.coefficient(3).is_zero()


# -- gauge action --------------------------------------------------------------------


def test_gauge_preserves_poisson_and_class(brieskorn):
    rng = random.Random(41)
    fam = random_family(rng, _degree1(brieskorn), order=2)
    base = build_deformation(brieskorn, fam, 2)
    base_class = first_order_class(base, brieskorn)
    for _ in range(4):
        xi = random_gauge_series(rng, 2)
        gauged = gauge_apply(base, xi)
        assert jacobi_residual(gauged).is_zero()
        assert first_order_class(gauged, brieskorn) == base_class


def test_gauge_by_hamiltonian_field_shifts_exact_part(brieskorn):
    """Gauging by a coboundary preimage changes representatives only."""
    base = build_deformation(brieskorn, CoeffFamily.make({(1, 0, 1): 1}, {}), 2)
    v = MultiVec.vector(Poly.variable(1), Poly.zero(), Poly.zero())
    xi = NuSeries(order_cap=2, coeffs=(v, MultiVec.zero(1)))
    gauged = gauge_apply(base, xi)
    assert jacobi_residual(gauged).is_zero()
    assert first_order_class(gauged, brieskorn) == \
        first_order_class(base, brieskorn)
    # the representative itself moved at order 1
    assert gauged.coefficient(1) != base.coefficient(1)


def test_gauge_identity_when_xi_zero(brieskorn):
    base = build_deformation(brieskorn, CoeffFamily.make({(1, 0, 1): 1}, {}), 2)
    xi = NuSeries(order_cap=2,
                  coeffs=(MultiVec.zero(1), MultiVec.zero(1)))
    gauged = gauge_apply(base, xi)
    assert gauged.coeffs == base.coeffs


def _fields(degree, m):
    """An unanchored order-m series of zero multivectors."""
    return NuSeries(order_cap=m, coeffs=(MultiVec.zero(degree),) * m)


def _classes(degree, m):
    return NuSeries(order_cap=m, coeffs=(CohClass.zero(degree),) * m)


def _base(data, m):
    return build_deformation(data, CoeffFamily.make({}, {}), m)


# (call on (data, state), message): every input check of the deform module
_BAD_DEFORM_INPUTS = [
    pytest.param(lambda d, s: build_deformation(d, CoeffFamily.make({}, {}), 0),
                 "at least 1", id="build_order_zero"),
    pytest.param(lambda d, s: jacobi_residual(_fields(2, 2)),
                 "anchored", id="jacobi_unanchored"),
    pytest.param(lambda d, s: gauge_apply(_fields(2, 2), _fields(1, 2)),
                 "anchored", id="gauge_apply_unanchored"),
    pytest.param(lambda d, s: gauge_apply(_base(d, 3), _fields(1, 2)),
                 "reach the truncation order", id="gauge_apply_short_xi"),
    pytest.param(lambda d, s: gauge_apply(_base(d, 2), _fields(2, 2)),
                 "vector fields", id="gauge_apply_xi_bivectors"),
    pytest.param(lambda d, s: mc_image(s, _classes(1, 2), 0),
                 "outside", id="mc_image_order_zero"),
    pytest.param(lambda d, s: mc_image(s, _classes(1, 2), 3),
                 "outside", id="mc_image_order_above_cap"),
    pytest.param(lambda d, s: mc_image(s, _classes(0, 2), 2),
                 "degree-1", id="mc_image_degree0_classes"),
    pytest.param(lambda d, s: mc_image(s, _fields(2, 2), 2),
                 "degree-1", id="mc_image_bivectors"),
    pytest.param(lambda d, s: gauge_special(s, _classes(1, 3), _classes(0, 2)),
                 "reach the truncation order", id="gauge_special_short_xi"),
    pytest.param(lambda d, s: gauge_special(s, _classes(1, 2), _classes(1, 2)),
                 "degree-0", id="gauge_special_xi_degree1"),
    pytest.param(lambda d, s: gauge_special(s, _classes(0, 2), _classes(0, 2)),
                 "degree-1", id="gauge_special_gamma_degree0"),
]


@pytest.mark.parametrize("call, message", _BAD_DEFORM_INPUTS)
def test_gauge_rejects_wrong_degree(brieskorn, brieskorn_state, call, message):
    """Each malformed argument of the deform module raises ValueError."""
    with pytest.raises(ValueError, match=message):
        call(brieskorn, brieskorn_state)


def test_special_gauge_action(cubic, cubic_state):
    """Class-level gauge by degree-0 classes preserves Maurer-Cartan."""
    rng = random.Random(43)
    fam = random_family(rng, _degree1(cubic), order=2)
    gamma = gamma_classes(fam, cubic, 2)
    for _ in range(3):
        coeffs = tuple(
            CohClass.single(parse_label("Eul(0)"), Fraction(rng.randint(-3, 3)))
            + CohClass.single(parse_label("Eul(1)"), Fraction(rng.randint(-3, 3)))
            for _ in range(2)
        )
        xi = NuSeries(order_cap=2, coeffs=coeffs)
        gauged_gamma = gauge_special(cubic_state, gamma, xi)
        assert gauged_gamma.coefficient(1) == gamma.coefficient(1)
        assert jacobi_residual(
            mc_image(cubic_state, gauged_gamma, 2)).is_zero()


def test_special_gauge_trivial_for_generic(brieskorn, brieskorn_state):
    """With no degree-0 classes the class-level gauge must act trivially."""
    fam = CoeffFamily.make({(1, 0, 1): 1}, {})
    gamma = gamma_classes(fam, brieskorn, 2)
    zero_xi = NuSeries(
        order_cap=2, coeffs=(CohClass.zero(0), CohClass.zero(0)))
    gauged = gauge_special(brieskorn_state, gamma, zero_xi)
    assert all(gauged.coefficient(n) == gamma.coefficient(n)
               for n in (1, 2))


# -- series mechanics ------------------------------------------------------------------


def test_series_validation():
    with pytest.raises(ValueError):
        NuSeries(order_cap=0, coeffs=())
    with pytest.raises(ValueError):
        NuSeries(order_cap=2, coeffs=(MultiVec.zero(1),))
    series = NuSeries(order_cap=1, coeffs=(MultiVec.zero(1),))
    with pytest.raises(ValueError):
        series.coefficient(0)  # no anchor
    with pytest.raises(ValueError):
        series.coefficient(2)  # beyond the cap


def test_jacobi_residual_flags_bad_series(brieskorn):
    """Dropping a required order-2 cross term breaks Maurer-Cartan."""
    fam = CoeffFamily.make({(1, 0, 1): 1}, {(1, 2): 1})
    good = build_deformation(brieskorn, fam, 2)
    assert jacobi_residual(good).is_zero()
    assert not good.coefficient(2).is_zero()
    naive = NuSeries(order_cap=2,
                     coeffs=(good.coefficient(1), MultiVec.zero(2)),
                     anchor=good.anchor)
    residual = jacobi_residual(naive)
    assert residual.coefficient(1).is_zero()  # first order is a cocycle
    assert not residual.coefficient(2).is_zero()  # missing correction


@st.composite
def bivector_series(draw):
    """An anchored series of random (not necessarily Poisson) bivectors."""
    monomials = st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-9, max_value=9, max_denominator=4))

    def bivector():
        return MultiVec(2, tuple(
            sum((Poly.monomial(e, c) for e, c in
                 draw(st.lists(monomials, max_size=3))), Poly.zero())
            for _ in range(3)))

    m = draw(st.integers(1, 3))
    return NuSeries(order_cap=m, coeffs=tuple(bivector() for _ in range(m)),
                    anchor=bivector())


@given(bivector_series())
def test_jacobi_residual_matches_shuffle_sum(series):
    """2 sum pi_a . curl pi_b equals sum [pi_a, pi_b] by the shuffle sum."""
    residual = jacobi_residual(series)
    for n in range(1, series.order_cap + 1):
        expected = MultiVec.zero(3)
        for a in range(n + 1):
            expected = expected + shuffle_sum(series.coefficient(a),
                                              series.coefficient(n - a))
        assert residual.coefficient(n) == expected


@st.composite
def gauge_inputs(draw):
    """A random anchored bivector series (not Poisson) and a vector-field
    series of the same order with fractional coefficients."""
    series = draw(bivector_series())
    monomials = st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6))

    def field():
        return MultiVec(1, tuple(
            Poly(dict(draw(st.lists(monomials, min_size=1, max_size=2))))
            for _ in range(3)))

    xi = NuSeries(order_cap=series.order_cap,
                  coeffs=tuple(field() for _ in range(series.order_cap)))
    return series, xi


@given(gauge_inputs())
def test_gauge_apply_matches_shuffle_sum(inputs):
    """e^{ad xi}(pi) equals sum_k ad_xi^k(pi) / k! with every bracket the
    shuffle sum, built term by term."""
    series, xi = inputs
    m = series.order_cap
    power = [series.coefficient(n) for n in range(m + 1)]   # ad_xi^0(pi)
    expected = list(power)
    for k in range(1, m + 1):
        power = [MultiVec.zero(2)] + [
            sum((shuffle_sum(xi.coefficient(a), power[n - a])
                 for a in range(1, n + 1)), MultiVec.zero(2))
            for n in range(1, m + 1)]
        expected = [e + p * Fraction(1, factorial(k))
                    for e, p in zip(expected, power)]
    gauged = gauge_apply(series, xi)
    assert gauged.anchor == series.anchor
    assert list(gauged.coeffs) == expected[1:]


def test_jacobi_residual_rejects_non_bivectors():
    series = NuSeries(order_cap=1, coeffs=(MultiVec.zero(1),),
                      anchor=MultiVec.zero(2))
    with pytest.raises(ValueError, match="bivector"):
        jacobi_residual(series)
