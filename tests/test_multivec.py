"""Multivector calculus: Schouten bracket, coboundary operator."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisdef import (
    MultiVec,
    Poly,
    WeightSystem,
    coboundary,
    coordinate_volume,
    euler_field,
    multivec_str,
    parse_poly,
    poisson_from_potential,
    schouten,
)
from poisdef.multivec import SLOTS, linear_sum, schouten_sum
from shuffle_oracle import evaluate, shuffle_sum

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@st.composite
def polys(draw, max_terms=3):
    terms = draw(st.lists(st.tuples(exponents, rationals), max_size=max_terms))
    total = Poly.zero()
    for exps, coeff in terms:
        total = total + Poly.monomial(exps, coeff)
    return total


@st.composite
def multivecs(draw, degree):
    comps = tuple(draw(polys()) for _ in SLOTS[degree])
    return MultiVec(degree, comps)


X, Y, Z = (Poly.variable(i) for i in range(3))


# -- structural basics ---------------------------------------------------------



def test_component_counts():
    assert len(SLOTS[0]) == 1
    assert len(SLOTS[1]) == 3
    assert len(SLOTS[2]) == 3
    assert len(SLOTS[3]) == 1
    with pytest.raises(ValueError, match="degree 2 needs 3 components, got 1"):
        MultiVec(2, (Poly.one(),))


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_sum_and_difference_need_one_degree(op):
    """+ and - share one combine, whose message names both degrees."""
    v, b = euler_field(WeightSystem((1, 1, 1))), coordinate_volume()
    with pytest.raises(ValueError,
                       match="cannot combine multivectors of degrees 1 and 3"):
        op(v, b)


def test_schouten_sum_needs_terms_of_one_degree():
    v = euler_field(WeightSystem((1, 1, 1)))
    f = MultiVec.function(Poly.variable(0))
    with pytest.raises(ValueError, match="at least one term"):
        schouten_sum([])
    with pytest.raises(ValueError, match="brackets of degrees"):
        schouten_sum([(1, v, f), (1, v, v)])


def test_multivec_str_round_readable():
    pi = poisson_from_potential(parse_poly("x^2 + y^2 + z^2"))
    assert multivec_str(pi) == "(2*x) dy^dz + (2*y) dz^dx + (2*z) dx^dy"


# -- evaluation convention (frozen hand-computed values) ------------------------


def test_bivector_evaluation_convention():
    b = MultiVec.bivector(Poly.zero(), Poly.zero(), Poly.one())  # dx^dy
    assert evaluate(b, [X, Y]) == Poly.one()
    assert evaluate(b, [Y, X]) == Poly.constant(-1)
    assert evaluate(b, [X * Y, X]) == X * Fraction(-1)


def test_poisson_from_potential_convention():
    # {x,y} = d phi/dz, {y,z} = d phi/dx, {z,x} = d phi/dy
    phi = parse_poly("x^2 + y^3 + z^5")
    pi = poisson_from_potential(phi)
    assert evaluate(pi, [X, Y]) == phi.diff(2)
    assert evaluate(pi, [Y, Z]) == phi.diff(0)
    assert evaluate(pi, [Z, X]) == phi.diff(1)


def test_volume_and_euler_evaluation():
    assert evaluate(coordinate_volume(), [X, Y, Z]) == Poly.one()
    e = euler_field(WeightSystem((15, 10, 6)))
    assert evaluate(e, [X]) == X * 15
    assert evaluate(e, [Y]) == Y * 10
    assert evaluate(e, [Z]) == Z * 6


# -- Schouten bracket ----------------------------------------------------------


def multivecs_or_zero(degree):
    return st.one_of(st.just(MultiVec.zero(degree)), multivecs(degree))


@pytest.mark.parametrize("dq", range(4))
@pytest.mark.parametrize("dp", range(4))
@settings(max_examples=12)
@given(data=st.data())
def test_schouten_matches_shuffle_sum(dp, dq, data):
    """The closed form of each degree pair equals the generic shuffle sum."""
    p = data.draw(multivecs_or_zero(dp))
    q = data.draw(multivecs_or_zero(dq))
    assert schouten(p, q) == shuffle_sum(p, q)


def test_schouten_matches_shuffle_sum_on_fixed_samples():
    """Every ordered pair of fixed samples in degrees 0-3; w has nonzero
    divergence, so the div V terms of [V, B] and [V, T] are pinned."""
    samples = [
        MultiVec.function(X * Y),
        MultiVec.vector(Y, Poly.zero(), X * X),
        MultiVec.vector(Z, X * Y, Poly.one()),
        MultiVec.bivector(X * Z, Y, X + Y * Y),
        MultiVec.trivector(Y * Z + X),
        poisson_from_potential(X * X + Y * Y + Z * Z),
        MultiVec.trivector(X + Z),
    ]
    for p in samples:
        for q in samples:
            assert schouten(p, q) == shuffle_sum(p, q)


@given(multivecs(1), polys())
def test_vector_on_function(v, f):
    fv = MultiVec.function(f)
    expected = sum(
        (v.comps[i] * f.diff(i) for i in range(3)), Poly.zero())
    assert schouten(v, fv) == MultiVec.function(expected)
    assert schouten(fv, v) == MultiVec.function(expected) * Fraction(-1)


@given(multivecs(1), multivecs(1))
def test_vector_bracket_is_commutator(v, w):
    lhs = schouten(v, w)
    for f in (X, Y * Z, X * X):
        fv = MultiVec.function(f)
        expected = schouten(v, schouten(w, fv)) - schouten(w, schouten(v, fv))
        assert schouten(lhs, fv) == expected


@given(multivecs(1), multivecs(2))
def test_graded_antisymmetry_vector_bivector(v, b):
    # (p-1)(q-1) = 0 here, so [v,b] = -[b,v]
    assert schouten(v, b) == schouten(b, v) * Fraction(-1)


@given(multivecs(2), multivecs(2))
def test_graded_antisymmetry_bivectors(a, b):
    # (p-1)(q-1) = 1 here, so [a,b] = +[b,a]
    assert schouten(a, b) == schouten(b, a)


@given(multivecs(1), multivecs(1), multivecs(1))
def test_jacobi_identity_vector_fields(u, v, w):
    total = (schouten(schouten(u, v), w) + schouten(schouten(v, w), u)
             + schouten(schouten(w, u), v))
    assert total.is_zero()


@given(multivecs(2), polys(), polys())
def test_bivector_biderivation(b, f, g):
    # [b, fg] = f [b, g] + g [b, f] as vector fields
    fg = MultiVec.function(f * g)
    lhs = schouten(b, fg)
    rhs = schouten(b, MultiVec.function(g)).mul_poly(f) + \
        schouten(b, MultiVec.function(f)).mul_poly(g)
    assert lhs == rhs


def test_structure_identities_frozen():
    """Hand-checked identities anchoring the global sign conventions."""
    phi = parse_poly("x^2 + y^3 + z^5")
    w = WeightSystem((15, 10, 6))
    pi = poisson_from_potential(phi)
    e = euler_field(w)
    vol = coordinate_volume()
    # self-bracket of the structure bivector
    assert schouten(pi, pi).is_zero()
    # bracket of the potential with the volume trivector
    assert schouten(MultiVec.function(phi), vol) == pi * Fraction(-1)
    # bracket of the weighted Euler field with the structure bivector
    delta = w.monomial_weight((2, 0, 0)) - w.total  # d - |w| = -1
    assert schouten(e, pi) == pi * delta


def test_linear_sum_takes_exact_multipliers():
    """linear_sum puts exact multipliers over their common denominator
    itself; a float multiplier raises, and no terms give the shared zero."""
    v = MultiVec.vector(X, Y * Fraction(1, 3), Z)
    w = MultiVec.vector(Y, Poly.zero(), X * Fraction(2, 5))
    terms = [(Fraction(1, 2), v), (-3, w), (Fraction(5, 6), v)]
    assert linear_sum(1, terms) == (v * Fraction(1, 2) + w * -3
                                    + v * Fraction(5, 6))
    assert linear_sum(1, [(Fraction(1, 2), v),
                          (Fraction(-1, 2), v)]).is_zero()
    assert linear_sum(2, []) is MultiVec.zero(2)
    with pytest.raises(TypeError):
        linear_sum(1, [(0.5, v)])
    with pytest.raises(ValueError):
        linear_sum(2, [(1, v)])


# -- coboundary operator -------------------------------------------------------


@given(multivecs(0))
def test_coboundary_on_functions_is_hamiltonian(f):
    """d F is the Hamiltonian field X_F = grad phi x grad F, written out
    here from partials, on the three reference potentials."""
    g = f.comps[0]
    gx, gy, gz = g.diff(0), g.diff(1), g.diff(2)
    for text in ("x^2 + y^2 + z^2", "x^2 + y^3 + z^5", "x^3 + y^3 + z^3"):
        phi = parse_poly(text)
        px, py, pz = phi.diff(0), phi.diff(1), phi.diff(2)
        assert coboundary(f, phi) == MultiVec.vector(
            py * gz - pz * gy, pz * gx - px * gz, px * gy - py * gx), text


def _coboundary_inputs(degree):
    """Every degree coboundary is called on: fields of degrees 0-2,
    nonzero trivectors, and the zero carriers of degrees -1 and 4."""
    if degree not in SLOTS:
        return st.just(MultiVec.zero(degree))
    if degree == 3:
        return multivecs(3).filter(lambda t: not t.is_zero())
    return multivecs(degree)


@pytest.mark.parametrize("degree", [-1, 0, 1, 2, 3, 4])
@settings(max_examples=8)
@given(data=st.data())
def test_coboundary_matches_generic_schouten(degree, data):
    """coboundary against the generic shuffle-sum bracket with the
    potential's bivector, for any potential."""
    phi = data.draw(polys(max_terms=4), label="phi")
    p = data.draw(_coboundary_inputs(degree), label="p")
    image = coboundary(p, phi)
    assert image == shuffle_sum(poisson_from_potential(phi), p)
    assert image.degree == degree + 1


@given(multivecs(1))
def test_coboundary_squares_to_zero(v):
    phi = parse_poly("x^2 + y^3 + z^5")
    assert coboundary(coboundary(v, phi), phi).is_zero()


@given(multivecs(0))
def test_coboundary_squares_to_zero_degree0(f):
    phi = parse_poly("x^3 + y^3 + z^3")
    assert coboundary(coboundary(f, phi), phi).is_zero()


def test_coboundary_of_euler_field():
    # d(e) = (|w| - d) * pi, the sign anchor for the degree-0 row
    phi = parse_poly("x^2 + y^3 + z^5")
    w = WeightSystem((15, 10, 6))
    e = euler_field(w)
    pi = poisson_from_potential(phi)
    assert coboundary(e, phi) == pi * (w.total - 30)

    cubic = parse_poly("x^3 + y^3 + z^3")
    e_unit = euler_field(WeightSystem((1, 1, 1)))
    assert coboundary(e_unit, cubic).is_zero()


def test_casimir_powers_are_cocycles():
    phi = parse_poly("x^2 + y^3 + z^5")
    for i in range(4):
        assert coboundary(MultiVec.function(phi ** i), phi).is_zero()


# -- weight bookkeeping --------------------------------------------------------


def test_degenerate_degree_zero_objects():
    z4 = MultiVec.zero(4)
    assert z4.is_zero()
    assert schouten(MultiVec.zero(2), coordinate_volume()).is_zero()


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_zero_has_right_components(degree):
    assert len(MultiVec.zero(degree).comps) == len(SLOTS[degree])


@pytest.mark.parametrize("degree", [-1, 0, 1, 2, 3, 4])
def test_zero_is_shared_per_degree(degree):
    zero = MultiVec.zero(degree)
    assert zero is MultiVec.zero(degree) and zero.is_zero()
    assert zero.degree == degree


@pytest.mark.parametrize("degree", [-1, 0, 1, 2, 3, 4])
def test_multivec_scalars_are_exact(degree):
    """* 1 returns the field itself and * -1 its negation; floats raise
    TypeError, also on the zero carriers outside degrees 0..3."""
    mv = (MultiVec(degree, tuple(Poly.variable(i) + Poly.constant(i)
                                 for i in range(len(SLOTS[degree]))))
          if degree in SLOTS else MultiVec.zero(degree))
    assert mv * 1 is mv and 1 * mv is mv
    assert mv * -1 == -mv == mv * Fraction(-1)
    for scalar in (1.0, -1.0, 0.5):
        with pytest.raises(TypeError):
            mv * scalar
        with pytest.raises(TypeError):
            scalar * mv
