"""Polynomial ring, parser/printer, and weight-system behavior."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from poisdef import (
    Poly,
    PolyParseError,
    WeightInferenceError,
    WeightSystem,
    infer_weights,
    parse_poly,
)
from poisdef.algebra import (
    MAX_COEFFICIENT_BITS,
    MAX_EXPANSION_TERMS,
    MAX_NESTING,
    bounded_int,
    exact_scalar,
    signed_sum_str,
)

# -- strategies ----------------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@st.composite
def polys(draw, max_terms=5):
    terms = draw(st.lists(st.tuples(exponents, rationals), max_size=max_terms))
    total = Poly.zero()
    for exps, coeff in terms:
        total = total + Poly.monomial(exps, coeff)
    return total


# -- construction and arithmetic ----------------------------------------------


def test_zero_and_one():
    assert Poly.zero().is_zero()
    assert not Poly.one().is_zero()
    assert Poly.one() == Poly.constant(1)
    assert Poly.constant(0) == Poly.zero()
    # the constant 1 is one shared object, as the zero is
    assert Poly.one() is Poly.one()
    assert parse_poly("x - 1/2*y") ** 0 is Poly.one()


def test_monomial_and_variable():
    x = Poly.variable(0)
    assert x == Poly.monomial((1, 0, 0))
    assert Poly.monomial((0, 0, 0), Fraction(3, 2)) == Poly.constant(
        Fraction(3, 2))


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero() == p
    assert p * Poly.one() == p
    assert p - p == Poly.zero()


# -- stored coefficient form -----------------------------------------------------

# integers, and rationals that are often integral Fractions such as 4/2
mixed_scalars = st.one_of(st.integers(-20, 20), rationals)
mixed_terms = st.dictionaries(exponents, mixed_scalars, max_size=5)


def _ref_add(p, q):
    out = dict(p)
    for exps, value in q.items():
        out[exps] = out.get(exps, Fraction(0)) + value
    return {e: v for e, v in out.items() if v}


def _ref_mul(p, q):
    out = {}
    for (a, b, c), f in p.items():
        for (d, e, g), h in q.items():
            key = (a + d, b + e, c + g)
            out[key] = out.get(key, Fraction(0)) + f * h
    return {e: v for e, v in out.items() if v}


def _ref_diff(p, index):
    out = {}
    for exps, value in p.items():
        if exps[index]:
            lowered = list(exps)
            lowered[index] -= 1
            out[tuple(lowered)] = value * exps[index]
    return out


@given(mixed_terms, mixed_terms, mixed_scalars, st.integers(0, 3),
       st.integers(0, 2))
def test_integral_coefficients_are_stored_as_int(t1, t2, s, n, index):
    """Every result hands out an integral coefficient as an int and any
    other as a non-integral Fraction, and agrees in ==, hash and str with
    the same value built from Fractions only."""
    fp = {e: Fraction(v) for e, v in t1.items() if v}
    fq = {e: Fraction(v) for e, v in t2.items() if v}
    p, q = Poly(t1), Poly(t2)
    power = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        power = _ref_mul(power, fp)
    scaled = _ref_mul(fp, {(0, 0, 0): Fraction(s)})
    cases = [
        (p, fp),
        (p + q, _ref_add(fp, fq)),
        (p - q, _ref_add(fp, {e: -v for e, v in fq.items()})),
        (p * q, _ref_mul(fp, fq)),
        (p * s, scaled),
        (s * p, scaled),
        (p ** n, power),
        (p.diff(index), _ref_diff(fp, index)),
    ]
    for result, expected in cases:
        for _, coeff in result.items():
            assert type(coeff) is int or (
                type(coeff) is Fraction and coeff.denominator > 1), coeff
        fractions_only = Poly(expected)
        assert result == fractions_only
        assert hash(result) == hash(fractions_only)
        assert str(result) == str(fractions_only)
        for exps, value in expected.items():
            coeff = result.coefficient(exps)
            assert type(coeff) is Fraction and coeff == value


def _assert_normalized(p):
    """p holds int numerators over one positive int denominator that shares
    no factor with all of them, and the denominator is 1 exactly when every
    coefficient is integral (the zero polynomial included)."""
    nums, den = p._nums, p._den
    assert type(den) is int and den >= 1
    assert all(type(n) is int and n for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert (den == 1) == all(p.coefficient(e).denominator == 1 for e in nums)


@given(mixed_terms, mixed_terms, mixed_scalars, st.integers(0, 3),
       st.integers(0, 2))
def test_results_are_normalized(t1, t2, s, n, index):
    p, q = Poly(t1), Poly(t2)
    for result in (p, q, p + q, p - q, p - p, p * q, p * s, s * p, p ** n,
                   p.diff(index), (p * q).diff(index), -p):
        _assert_normalized(result)


def test_cancellation_leaves_no_common_factor():
    x, y = Poly.variable(0), Poly.variable(1)
    half = Fraction(1, 2)
    cases = [
        (x * Fraction(1, 6) + x * Fraction(1, 3), x * half),
        ((x * half + y * half) - y * half, x * half),
        ((x * half + y * half) * 2, x + y),
        ((x * half) ** 2 * 4, x * x),
        ((x ** 2 * half).diff(0), x),
        (x * Fraction(2, 3) * Fraction(3, 2), x),
        (x * half - x * half, Poly.zero()),
    ]
    for result, expected in cases:
        _assert_normalized(result)
        assert result == expected and hash(result) == hash(expected)


def test_exact_scalar_refuses_inexact_values():
    assert exact_scalar(Fraction(4, 2)) == 2
    assert type(exact_scalar(Fraction(4, 2))) is int
    assert exact_scalar(Fraction(1, 2)) == Fraction(1, 2)
    for value in (0.5, 1.0, "1/2"):
        with pytest.raises(TypeError):
            exact_scalar(value)
        with pytest.raises(TypeError):
            Poly({(0, 0, 0): value})
    with pytest.raises(TypeError):
        Poly.one() * 0.5


def test_unit_scalars_are_exact_and_shared():
    """* 1 returns an equal polynomial and * -1 its negation; the float
    1.0, equal to 1, stays refused."""
    p = Poly({(1, 0, 0): Fraction(1, 2), (0, 2, 0): 3})
    assert p * 1 == p and 1 * p == p
    assert p * -1 == -p == Poly({(1, 0, 0): Fraction(-1, 2), (0, 2, 0): -3})
    _assert_normalized(p * -1)
    for scalar in (1.0, -1.0):
        with pytest.raises(TypeError):
            p * scalar
        with pytest.raises(TypeError):
            scalar * p
    assert p * True == p


def test_exponents_must_be_integers():
    """A non-integer exponent raises TypeError instead of printing x^1.5,
    a negative one ValueError, in a monomial as in a power; a bool
    exponent is stored as the plain int it equals."""
    for exps in ((1.5, 0, 0), (0, 1.0, 0), (0, 0, Fraction(1)), ("1", 0, 0)):
        with pytest.raises(TypeError):
            Poly({exps: 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Poly({(1, -1, 0): 1})
    with pytest.raises(ValueError, match="nonnegative integer exponents"):
        Poly.variable(0) ** -1
    p = Poly({(True, 0, False): 2})
    assert p == Poly({(1, 0, 0): 2}) and str(p) == "2*x"
    assert all(type(e) is int for exps in p.exponents() for e in exps)
    assert p.diff(0) == Poly.constant(2)


@given(polys(), st.integers(0, 2))
def test_cached_partials_match_a_fresh_polynomial(p, index):
    """diff keeps each partial on the polynomial: a second call returns
    the same object, equal to the partial of an equal fresh polynomial."""
    first = p.diff(index)
    assert p.diff(index) is first
    assert first == Poly(dict(p.items())).diff(index)


def test_zero_is_shared():
    zero = Poly.zero()
    assert zero is Poly.zero() and zero.is_zero()
    x = Poly.variable(0)
    assert (x - x) is zero and x * 0 is zero and Poly.one().diff(2) is zero


@given(polys(), st.integers(0, 4))
def test_power_matches_repeated_product(p, n):
    expected = Poly.one()
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected


@given(polys(), polys())
def test_derivation_leibniz(p, q):
    for i in range(3):
        lhs = (p * q).diff(i)
        rhs = p.diff(i) * q + p * q.diff(i)
        assert lhs == rhs


def test_diff_constants_vanish():
    assert Poly.constant(7).diff(0).is_zero()
    assert Poly.variable(1).diff(1) == Poly.one()
    assert Poly.variable(1).diff(2).is_zero()


# -- sum of products -------------------------------------------------------------

# (s, p, q) with mixed int/Fraction operands, zero operands (empty
# dictionaries) and multipliers other than +-1, zero included
product_terms = st.lists(
    st.tuples(st.integers(-6, 6), mixed_terms, mixed_terms), max_size=6)


@given(product_terms, st.integers(1, 12))
def test_sum_of_products_matches_chained_arithmetic(raw, divisor):
    """One accumulation equals the chained * / + / - result and the
    Fraction reference, and comes out normalized."""
    terms = [(s, Poly(t1), Poly(t2)) for s, t1, t2 in raw]
    chained = Poly.zero()
    reference: dict = {}
    for (s, p, q), (_, t1, t2) in zip(terms, raw):
        product = p * q
        for _ in range(abs(s)):
            chained = chained + product if s > 0 else chained - product
        scaled = {e: v * s for e, v in
                  _ref_mul({e: Fraction(v) for e, v in t1.items()},
                           {e: Fraction(v) for e, v in t2.items()}).items()}
        reference = _ref_add(reference, scaled)
    result = Poly.sum_of_products(terms, divisor)
    _assert_normalized(result)
    assert result == chained * Fraction(1, divisor)
    assert result == Poly({e: v / divisor for e, v in reference.items()})
    if not reference:
        assert result is Poly.zero()
    assert Poly.sum_of_products(iter(terms), divisor) == result


@given(product_terms, st.integers(1, 12))
def test_sum_of_products_full_cancellation_is_the_shared_zero(raw, divisor):
    """Each term against its negative, the operands swapped, cancels."""
    terms = [(s, Poly(t1), Poly(t2)) for s, t1, t2 in raw]
    opposite = [(-s, q, p) for s, p, q in terms]
    assert Poly.sum_of_products(terms + opposite, divisor) is Poly.zero()
    assert Poly.sum_of_products(opposite[::-1] + terms) is Poly.zero()


def test_sum_of_products_edge_cases():
    half_x = Poly({(1, 0, 0): Fraction(1, 2)})
    y = Poly.variable(1)
    assert Poly.sum_of_products([]) is Poly.zero()
    assert Poly.sum_of_products([], 5) is Poly.zero()
    assert Poly.sum_of_products(
        [(3, Poly.zero(), y), (4, y, Poly.zero()), (0, half_x, y)]) \
        is Poly.zero()
    # 4 * (x/2) * y / 6 = x*y/3: the multiplier, the operand denominator
    # and the divisor meet in one gcd pass
    result = Poly.sum_of_products([(4, half_x, y)], 6)
    _assert_normalized(result)
    assert result == Poly({(1, 1, 0): Fraction(1, 3)})
    assert Poly.sum_of_products([(2, half_x, y)]) == half_x * y * 2
    for multiplier in (Fraction(1, 2), Fraction(2), 1.0):
        with pytest.raises(TypeError):
            Poly.sum_of_products([(multiplier, half_x, y)])
    for divisor in (Fraction(2), 2.0):
        with pytest.raises(TypeError):
            Poly.sum_of_products([(1, half_x, y)], divisor)
    for divisor in (0, -2):
        with pytest.raises(ValueError):
            Poly.sum_of_products([(1, half_x, y)], divisor)


# -- parser and printer --------------------------------------------------------


@pytest.mark.parametrize("text,expected", [
    ("0", Poly.zero()),
    ("1", Poly.one()),
    ("x", Poly.variable(0)),
    ("-x", Poly.variable(0) * Fraction(-1)),
    ("x^2 + y^3 + z^5",
     Poly.monomial((2, 0, 0)) + Poly.monomial((0, 3, 0))
     + Poly.monomial((0, 0, 5))),
    ("3/2*x*y - z", Poly.monomial((1, 1, 0), Fraction(3, 2))
     - Poly.variable(2)),
    ("x*x*x", Poly.monomial((3, 0, 0))),
    ("2*(x + y)", (Poly.variable(0) + Poly.variable(1)) * 2),
    ("-(x - y)^2",
     (Poly.variable(0) - Poly.variable(1)) ** 2 * Fraction(-1)),
])
def test_parse_examples(text, expected):
    assert parse_poly(text) == expected


@pytest.mark.parametrize("text", [
    "", "x +", "x^-1", "x^y", "2x", "x y", "w", "1/0", "(x", "x)", "x**2",
    # str.isdigit() holds for these, but integer literals are ASCII digits
    "x^\u00b2", "\u00b3*x", "z^\u0663", "x^1\u0665",
    # a denominator that is not an integer literal; a quotient by a name
    "1/x", "(x/2)",
])
def test_parse_rejects(text):
    with pytest.raises(PolyParseError):
        parse_poly(text)


def _power_of_sum(n_terms: int, exponent: int) -> str:
    return "(" + "+".join(f"x^{i}" for i in range(n_terms)) + f")^{exponent}"


def test_parse_expansion_budget():
    # a power of an n-term sum is bounded by C(n + e - 1, e) terms and a
    # product by the product of the term counts, checked before expanding
    assert MAX_EXPANSION_TERMS == 2000
    assert len(parse_poly(_power_of_sum(62, 2))) == 123      # C(63, 2) = 1953
    with pytest.raises(PolyParseError, match="2016 terms"):  # C(64, 2)
        parse_poly(_power_of_sum(63, 2))
    with pytest.raises(PolyParseError, match="2016 terms"):  # C(64, 62)
        parse_poly("(x+y+z)^62")
    assert len(parse_poly("(x+y)^30*(x+y)^60")) == 91        # 31 * 61 terms
    with pytest.raises(PolyParseError, match="product may expand to 2201"):
        parse_poly("(x+y)^30*(x+y)^70")
    # a single monomial raised to any power is one term
    assert parse_poly("y^4097") == Poly.monomial((0, 4097, 0))
    assert parse_poly("(2*x*y)^300") == Poly.monomial((300, 300, 0), 2 ** 300)


def test_parse_expression_budget():
    # every power of a multi-term base and every product of two multi-term
    # factors charges its term bound to one running total per parse
    assert len(parse_poly("(x+y)^30*(x+y)^60 + (x+y)^10")) == 102  # 1994
    with pytest.raises(PolyParseError, match="2015 terms in all") as info:
        parse_poly("(x+y)^30*(x+y)^60 + (x+y)^10 + (x+y)^20")
    assert info.value.position == 36                # the last "^"
    # powers of one term and products with a one-term factor are free
    assert parse_poly("+".join(["(2*x*y)^300"] * 50)) == Poly.monomial(
        (300, 300, 0), 50 * 2 ** 300)
    assert len(parse_poly("+".join([f"{k}*(x+y)" for k in range(1, 3000)]))) == 2


def test_parse_coefficient_budget():
    # a power bounds its coefficients by e * (L + ceil(log2 n)) bits and a
    # product by L_a + L_b + ceil(log2 min(n_a, n_b)), checked before
    # expanding; L is the largest ceil(log2) of a numerator or denominator
    assert MAX_COEFFICIENT_BITS == 1024
    assert parse_poly("3^500*x") == Poly.monomial((1, 0, 0), 3 ** 500)
    assert parse_poly("2^1024") == Poly.constant(2 ** 1024)
    assert parse_poly("(1/2)^1024") == Poly.constant(Fraction(1, 2 ** 1024))
    for text, bits, position in [("2^1025", 1025, 1),
                                 ("(x+y)^1999", 1999, 5),
                                 ("x + 9^10000000", 40000000, 5),
                                 ("2^1000*2^25", 1025, 6),
                                 # ceil(log2 C(600, 300)) = 596
                                 ("(x+y)^600*2^500", 596 + 500, 9)]:
        with pytest.raises(PolyParseError,
                           match=f"may have {bits}-bit coefficients") as info:
            parse_poly(text)
        assert info.value.position == position
    # literals are bounded too, before they are converted
    assert parse_poly(str(2 ** 1024)) == Poly.constant(2 ** 1024)
    for text in (str(2 ** 1024 + 1), "1/" + str(2 ** 1025),
                 "x^" + "9" * 5000, "7" * 100000):
        with pytest.raises(PolyParseError, match="integer literal above"):
            parse_poly(text)


def test_bounded_int_reads_an_optional_sign_and_ascii_digits():
    assert bounded_int("-05") == -5 and bounded_int("+7") == 7
    assert bounded_int(str(2 ** 1024)) == 2 ** 1024
    assert bounded_int(str(-2 ** 1024 - 1)) is None
    for text in ("1_000", "\u0663", "--5", "+-5", "", "+", " 5", "5 "):
        assert bounded_int(text) is None, text


def test_parse_nesting_limit():
    # each parenthesis level recurses; the limit is checked before it does
    assert MAX_NESTING == 100
    nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(nested) == Poly.variable(0)
    deeper = "(" + nested + ")"
    with pytest.raises(PolyParseError, match="deeper than 100") as info:
        parse_poly(deeper)
    assert info.value.position == MAX_NESTING
    with pytest.raises(PolyParseError, match="deeper than 100"):
        parse_poly("(" * 250 + "x" + ")" * 250)
    # sibling groups do not add up
    assert parse_poly("+".join([nested] * 3)) == Poly.variable(0) * 3


@given(polys())
def test_print_parse_round_trip(p):
    assert parse_poly(str(p)) == p


def test_print_canonical_order():
    p = parse_poly("z^5 + y^3 + x^2")
    assert str(p) == "x^2 + y^3 + z^5"


def test_signed_sum_str_format():
    """The one writer of a signed rational sum: '-' on a negative first
    term, '- ' / '+ ' between terms, no unit magnitude before a name, ''
    naming the constant term and '0' for the empty sum."""
    assert signed_sum_str([]) == "0"
    assert signed_sum_str(iter([])) == "0"
    assert signed_sum_str([("x", -1), ("y", 1)]) == "-x + y"
    assert signed_sum_str([("x", Fraction(-1, 2)), ("", 1)]) == "-1/2*x + 1"
    assert signed_sum_str([("", -3), ("z^2", Fraction(2, 3)),
                           ("y", -2)]) == "-3 + 2/3*z^2 - 2*y"
    assert signed_sum_str([("B(1)", Fraction(7))]) == "7*B(1)"


@pytest.mark.parametrize("text,expected", [
    ("0", "0"),
    ("7", "7"),
    ("-1/2", "-1/2"),
    ("1 - z", "1 - z"),
    ("-x + 3/2*y - 1", "-1 - x + 3/2*y"),
    ("-x^2*y - 1/3", "-1/3 - x^2*y"),
    ("x*y*z - 2*z^4", "x*y*z - 2*z^4"),
])
def test_poly_str_exact_strings(text, expected):
    p = parse_poly(text)
    assert str(p) == f"{p}" == expected
    assert repr(p) == f"Poly({expected!r})"


# -- weight systems ------------------------------------------------------------


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem((0, 1, 1))
    with pytest.raises(ValueError):
        WeightSystem((2, 2, 2))
    with pytest.raises(ValueError):
        WeightSystem((1, 1))  # type: ignore[arg-type]
    # a bool is an int to isinstance, and a report would print it as true
    for weights in [(True, True, True), (1, True, 2)]:
        with pytest.raises(ValueError, match="must be positive integers"):
            WeightSystem(weights)


def test_weighted_degree():
    w = WeightSystem((15, 10, 6))
    phi = parse_poly("x^2 + y^3 + z^5")
    assert w.monomial_weight((2, 0, 0)) == 30
    assert w.monomial_weight((0, 3, 0)) == 30
    assert w.monomial_weight((0, 0, 5)) == 30
    assert w.total == 31
    assert all(w.monomial_weight(e) == 30 for e in phi.exponents())


def test_infer_weights_examples():
    assert infer_weights(parse_poly("x^2 + y^3 + z^5")).weights == (15, 10, 6)
    assert infer_weights(parse_poly("x^3 + y^3 + z^3")).weights == (1, 1, 1)
    assert infer_weights(parse_poly("x^2 + y^2 + z^2")).weights == (1, 1, 1)
    assert infer_weights(parse_poly("x^3 + y^4 + y*z^2")).weights == (8, 6, 9)
    assert infer_weights(parse_poly("x^2 + y^5 + z^13")).weights == (65, 26, 10)


def test_infer_weights_ambiguous_or_impossible():
    with pytest.raises(WeightInferenceError):
        infer_weights(parse_poly("x*y*z"))  # many systems fit
    with pytest.raises(WeightInferenceError):
        infer_weights(parse_poly("x^2"))  # y, z weights unconstrained
    with pytest.raises(WeightInferenceError):
        infer_weights(parse_poly("x^3 + y^4 + x*z^2 + y*z^2"))  # none fit
