"""Exact polynomial algebra in three variables over the rationals.

A polynomial is a sparse dictionary mapping exponent triples (a, b, c) to
integer numerators, over one positive integer denominator shared by all of
its coefficients, so every computation in the package is exact.  The pair
is normalized once per result, not once per coefficient: the denominator
shares no factor with all the numerators, and it is 1 for an integral
polynomial, whose arithmetic is then plain integer arithmetic.  Outside
the class a coefficient is an exact scalar as :func:`exact_scalar` stores
it, an ``int`` when it is integral and a ``fractions.Fraction`` with
denominator above 1 otherwise; an ``int`` and the equal ``Fraction``
compare, hash and print alike.

The module also provides quasi-homogeneous weight systems: a weight system
assigns positive integer weights (w1, w2, w3) to (x, y, z) and grades
monomials by w1*a + w2*b + w3*c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Union

Exponents = tuple[int, int, int]
ScalarLike = Union["Fraction", int]

VARIABLE_NAMES = ("x", "y", "z")


class PolyParseError(ValueError):
    """Raised when a polynomial expression cannot be parsed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WeightInferenceError(ValueError):
    """Raised when no unique primitive weight system fits a polynomial."""


def exact_scalar(value: ScalarLike) -> ScalarLike:
    """An exact scalar in stored form: an ``int``, or a ``Fraction`` whose
    denominator is above 1.  Raises TypeError for anything else (floats,
    strings), so no inexact value gets in."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def monomial_key(exponents: Exponents) -> tuple[int, tuple[int, int, int]]:
    """Total-degree-then-reverse-lexicographic sort key for monomials.

    Orders first by total degree, then by exponents of x, y, z descending,
    so e.g. 1 < x < y < z < x^2 < x*y < x*z < y^2 < ...
    """
    a, b, c = exponents
    return (a + b + c, (-a, -b, -c))


def _exponents_of_weight(weights: WeightSystem, degree: int
                         ) -> Iterator[Exponents]:
    """Exponent triples of the given weighted degree, in no set order.

    The loops run over the two heaviest variables and solve for the
    lightest, so skewed weights do not make a slice quadratic to list.
    """
    if degree < 0:
        return
    w = weights.weights
    light, mid, heavy = sorted(range(3), key=lambda v: w[v])
    exps = [0, 0, 0]
    for e_heavy in range(degree // w[heavy] + 1):
        rem = degree - e_heavy * w[heavy]
        for e_mid in range(rem // w[mid] + 1):
            rest = rem - e_mid * w[mid]
            if rest % w[light] == 0:
                exps[heavy], exps[mid], exps[light] = (
                    e_heavy, e_mid, rest // w[light])
                yield tuple(exps)


def monomials_of_weight(weights: WeightSystem, degree: int) -> list[Exponents]:
    """All exponent triples of the given weighted degree, canonically ordered.

    The order agrees with :func:`monomial_key` restricted to the slice.
    """
    return sorted(_exponents_of_weight(weights, degree), key=monomial_key)


class Poly:
    """Immutable sparse polynomial in x, y, z with exact rational coefficients.

    The coefficients are stored as integer numerators over one common
    denominator: ``_nums`` maps each monomial with a nonzero coefficient to
    its ``int`` numerator and ``_den`` is a positive ``int``.  Every
    constructor and operation leaves the pair normalized, with
    ``gcd(_den, *_nums.values()) == 1`` and ``_den == 1`` for the zero
    polynomial, so equal polynomials have equal stored forms and an integral
    polynomial is plain integer arithmetic.  :meth:`items` hands each
    coefficient out as :func:`exact_scalar` stores a scalar, and
    :meth:`coefficient` as a ``Fraction``.  Exponents are plain ``int``s.

    Nothing mutates a Poly once it is built, so results are shared freely:
    :meth:`zero` is one object, and ``_partials`` keeps each partial
    derivative :meth:`diff` has computed.  Every scalar product, ``p * 1``
    included, builds a new polynomial.
    """

    __slots__ = ("_nums", "_den", "_partials")

    def __init__(self, terms: Optional[Mapping[Exponents, ScalarLike]] = None):
        values: dict[Exponents, ScalarLike] = {}
        den = 1
        if terms:
            for exps, coeff in terms.items():
                value = exact_scalar(coeff)
                if value:
                    a, b, c = exps
                    if not (type(a) is int and type(b) is int and type(c) is int):
                        if not all(isinstance(e, int) for e in exps):
                            raise TypeError(
                                f"exponents must be integers, got {exps}")
                        a, b, c = int(a), int(b), int(c)
                    if a < 0 or b < 0 or c < 0:
                        raise ValueError(f"negative exponent in monomial {exps}")
                    values[(a, b, c)] = value
                    if type(value) is not int:
                        den = math.lcm(den, value.denominator)
        # over the lcm of the reduced denominators no prime divides every
        # numerator and the denominator, so the pair is already normalized
        self._nums = values if den == 1 else {
            e: v.numerator * (den // v.denominator) for e, v in values.items()}
        self._den = den
        self._partials = None

    @staticmethod
    def _owning(nums: dict[Exponents, int], den: int) -> "Poly":
        """A Poly owning ``nums`` over ``den``, a pair already normalized;
        the shared zero when ``nums`` is empty."""
        if not nums:
            return _ZERO
        result = Poly.__new__(Poly)
        result._nums = nums
        result._den = den
        result._partials = None
        return result

    @staticmethod
    def _reduced(nums: dict[Exponents, int], den: int) -> "Poly":
        """A Poly owning ``nums``, nonzero ints over ``den`` > 0, with their
        common factor divided out; the shared zero when ``nums`` is empty."""
        if den != 1 and nums:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {e: n // g for e, n in nums.items()}
                den //= g
        return Poly._owning(nums, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        """The zero polynomial, one object shared by every caller."""
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return cls({(0, 0, 0): 1})

    @classmethod
    def constant(cls, value: ScalarLike) -> "Poly":
        return cls({(0, 0, 0): value})

    @classmethod
    def variable(cls, index: int) -> "Poly":
        exps = [0, 0, 0]
        exps[index] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def monomial(cls, exponents: Exponents, coeff: ScalarLike = 1) -> "Poly":
        return cls({exponents: coeff})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, exponents: Exponents) -> Fraction:
        return Fraction(self._nums.get(tuple(exponents), 0), self._den)

    def exponents(self) -> list[Exponents]:
        """Exponent triples in canonical (degree, revlex) order."""
        return sorted(self._nums, key=monomial_key)

    def items(self) -> list[tuple[Exponents, ScalarLike]]:
        """(exponents, coefficient) pairs in canonical order, each
        coefficient an ``int`` or a ``Fraction`` with denominator above 1."""
        nums, den = self._nums, self._den
        if den == 1:
            return [(e, nums[e]) for e in self.exponents()]
        return [(e, exact_scalar(Fraction(nums[e], den)))
                for e in self.exponents()]

    def __len__(self) -> int:
        return len(self._nums)

    def __bool__(self) -> bool:
        return bool(self._nums)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other in one pass, sign 1 or -1."""
        if not isinstance(other, Poly):
            return NotImplemented
        if not other._nums:
            return self
        if not self._nums:
            return other if sign == 1 else -other
        d1, d2 = self._den, other._den
        den = math.lcm(d1, d2)
        s1, scale = den // d1, sign * (den // d2)
        nums = {e: n * s1 for e, n in self._nums.items()}
        for exps, n in other._nums.items():
            acc = nums.get(exps)
            if acc is None:
                nums[exps] = n * scale
            else:
                acc += n * scale
                if acc:
                    nums[exps] = acc
                else:
                    del nums[exps]
        return Poly._reduced(nums, den)

    def __neg__(self) -> "Poly":
        # negation keeps the pair normalized: no gcd to take
        return Poly._owning({e: -n for e, n in self._nums.items()}, self._den)

    def __mul__(self, other: Union["Poly", ScalarLike]) -> "Poly":
        if isinstance(other, Poly):
            den = self._den * other._den
            return Poly._accumulate(((1, self._nums, other._nums, den),), den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO
            p = other.numerator
            return Poly._reduced({e: n * p for e, n in self._nums.items()},
                                 self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(terms: Iterable[tuple[int, "Poly", "Poly"]],
                        divisor: int = 1) -> "Poly":
        """(sum of s * p * q over the (s, p, q) terms) / divisor, for int
        multipliers s and a positive int divisor.

        Every product accumulates into one dict of numerators over one
        common denominator, the lcm of the p._den * q._den times the
        divisor, which drops each monomial that cancels as it goes; the
        result takes one gcd pass at the end, and is the shared zero when
        nothing is left.
        """
        if type(divisor) is not int:
            raise TypeError(f"the divisor must be an int, got {divisor!r}")
        if divisor < 1:
            raise ValueError(f"the divisor must be positive, got {divisor}")
        live = []
        den = 1
        for s, p, q in terms:
            if type(s) is not int:
                raise TypeError(f"the multipliers must be ints, got {s!r}")
            if s and p._nums and q._nums:
                d = p._den * q._den
                if d != 1:
                    den = math.lcm(den, d)
                # the shorter operand in the outer loop
                if len(p._nums) <= len(q._nums):
                    live.append((s, p._nums, q._nums, d))
                else:
                    live.append((s, q._nums, p._nums, d))
        return Poly._accumulate(live, den, divisor)

    @staticmethod
    def _accumulate(live, den: int, divisor: int = 1) -> "Poly":
        """The one polynomial product loop, behind :meth:`sum_of_products`
        and ``p * q``: the sum of s * left * right over the (s, left, right,
        d) terms, numerator dicts over d, accumulated over den, a multiple
        of every d, and divided by the divisor."""
        nums: dict[Exponents, int] = {}
        get = nums.get
        for s, left, right, d in live:
            scale = s * (den // d)
            right = right.items()
            for (a1, b1, c1), n1 in left.items():
                n1 *= scale
                for (a2, b2, c2), n2 in right:
                    exps = (a1 + a2, b1 + b2, c1 + c2)
                    acc = get(exps)
                    if acc is None:
                        nums[exps] = n1 * n2
                    else:
                        acc += n1 * n2
                        if acc:
                            nums[exps] = acc
                        else:
                            del nums[exps]
        return Poly._reduced(nums, den * divisor)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = Poly.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, index: int) -> "Poly":
        """Partial derivative with respect to x (0), y (1) or z (2),
        computed once per polynomial and index and then kept."""
        partials = self._partials
        if partials is None:
            partials = self._partials = [None, None, None]
        cached = partials[index]
        if cached is not None:
            return cached
        nums: dict[Exponents, int] = {}
        for exps, n in self._nums.items():
            e = exps[index]
            if e:
                lowered = list(exps)
                lowered[index] = e - 1
                nums[tuple(lowered)] = n * e
        cached = partials[index] = Poly._reduced(nums, self._den)
        return cached

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)!r})"


_ZERO = Poly()

X = Poly.variable(0)
Y = Poly.variable(1)
Z = Poly.variable(2)
VARIABLE_POLYS = (X, Y, Z)


# -- printing ---------------------------------------------------------------


def _monomial_str(exponents: Exponents) -> str:
    factors = []
    for name, e in zip(VARIABLE_NAMES, exponents):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def signed_sum_str(terms: Iterable[tuple[str, ScalarLike]]) -> str:
    """Render (name, nonzero coefficient) pairs as e.g. '-x^2 + 1/2*y - 3':
    no unit magnitude before a name, '' names the constant term, and the
    empty sum is '0'."""
    pieces: list[str] = []
    for name, coeff in terms:
        mag = abs(coeff)
        if name:
            body = name if mag == 1 else f"{mag}*{name}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces) or "0"


def poly_str(p: Poly) -> str:
    """Render a polynomial in the grammar accepted by :func:`parse_poly`."""
    return signed_sum_str((_monomial_str(e), c) for e, c in p.items())


# -- parsing ----------------------------------------------------------------

_TOKEN_CHARS = {"+", "-", "*", "^", "/", "(", ")"}
_DIGITS = frozenset("0123456789")

# Most terms a product or power in a parsed expression may expand to, and
# all multi-term products and powers of one expression together, by bounds
# checked before the expansion, so that a short input such as
# "(x+y+z)^100000", or a sum of many within-budget powers, is refused
# instead of expanded.
MAX_EXPANSION_TERMS = 2000

# Largest size, in bits, that an integer literal, or any numerator or
# denominator of a parsed product or power, may have by a bound checked
# before the expansion, so that "9^100000000" or "(x+y)^1999" is refused
# instead of expanded.  The slowest single power within both budgets,
# (x+y)^1024, took 1.1 s to parse under CPython 3.11 on a 2-core x86-64
# Xeon host, against 0.8 s for (x+y+z)^60 under the term budget alone.
MAX_COEFFICIENT_BITS = 1024

# Deepest nesting of parentheses in a parsed expression: each level costs the
# recursive-descent parser four stack frames, and "(" * 250 overflowed them.
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split into (kind, value, position) tokens; kinds: int, name, op."""
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    """Recursive-descent parser for +, -, *, ^ over x, y, z and rationals.

    Implicit multiplication is rejected: "2x" is an error, "2*x" is required.
    Exponents must be nonnegative integer literals.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.expanded = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def advance(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise PolyParseError("unexpected end of expression", len(self.text))
        self.pos += 1
        return token

    def parse(self) -> Poly:
        result = self.expression()
        token = self.peek()
        if token is not None:
            raise PolyParseError(f"unexpected token {token[1]!r}", token[2])
        return result

    def expression(self) -> Poly:
        sign = 1
        token = self.peek()
        if token is not None and token[0] == "op" and token[1] in "+-":
            self.advance()
            sign = -1 if token[1] == "-" else 1
        result = self.term() * sign
        while True:
            token = self.peek()
            if token is None or token[0] != "op" or token[1] not in "+-":
                return result
            self.advance()
            term = self.term()
            result = result + (term if token[1] == "+" else -term)

    def term(self) -> Poly:
        result = self.factor()
        while True:
            token = self.peek()
            if token is None or token[0] != "op" or token[1] != "*":
                self._reject_implicit_multiplication()
                return result
            self.advance()
            factor = self.factor()
            terms = len(result) * len(factor)
            _check_expansion(
                terms, _bits(result) + _bits(factor)
                + _log2_ceil(min(len(result), len(factor))),
                "product", token[2])
            if len(result) > 1 and len(factor) > 1:
                self._charge(terms, token[2])
            result = result * factor

    def _reject_implicit_multiplication(self) -> None:
        token = self.peek()
        if token is not None and (token[0] in ("int", "name") or token[1] == "("):
            raise PolyParseError(
                "implicit multiplication is not allowed; write '*' explicitly",
                token[2],
            )

    def factor(self) -> Poly:
        base = self.atom()
        token = self.peek()
        if token is not None and token[0] == "op" and token[1] == "^":
            self.advance()
            exp_token = self.advance()
            if exp_token[0] != "int":
                raise PolyParseError(
                    "'^' takes a nonnegative integer exponent", exp_token[2]
                )
            exponent = _int_literal(exp_token)
            # at most the number of monomials of degree e in len(base)
            # symbols, each a sum of at most len(base)^e products
            terms = (math.comb(len(base) + exponent - 1, exponent)
                     if len(base) > 1 else len(base))
            _check_expansion(
                terms, exponent * (_bits(base) + _log2_ceil(len(base))),
                "power", token[2])
            if len(base) > 1:
                self._charge(terms, token[2])
            return base ** exponent
        return base

    def _charge(self, terms: int, position: int) -> None:
        """Add one expansion's term bound to the running total of the parse."""
        self.expanded += terms
        if self.expanded > MAX_EXPANSION_TERMS:
            raise PolyParseError(
                f"expression may expand to {self.expanded} terms in all, "
                f"above the {MAX_EXPANSION_TERMS}-term limit", position)

    def atom(self) -> Poly:
        token = self.advance()
        kind, value, position = token
        if kind == "int":
            numerator = _int_literal(token)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.advance()
                den_token = self.advance()
                if den_token[0] != "int":
                    raise PolyParseError(
                        "expected an integer denominator after '/'", den_token[2]
                    )
                denominator = _int_literal(den_token)
                if denominator == 0:
                    raise PolyParseError("zero denominator in rational literal",
                                         den_token[2])
                return Poly.constant(Fraction(numerator, denominator))
            return Poly.constant(numerator)
        if kind == "name":
            if value in VARIABLE_NAMES:
                return VARIABLE_POLYS[VARIABLE_NAMES.index(value)]
            raise PolyParseError(
                f"unknown symbol {value!r}; variables are x, y, z", position
            )
        if kind == "op" and value == "(":
            if self.depth >= MAX_NESTING:
                raise PolyParseError(
                    f"parentheses nest deeper than {MAX_NESTING} levels",
                    position)
            self.depth += 1
            inner = self.expression()
            closing = self.advance()
            if closing[0] != "op" or closing[1] != ")":
                raise PolyParseError("expected ')'", closing[2])
            self.depth -= 1
            return inner
        raise PolyParseError(f"unexpected token {value!r}", position)


def _log2_ceil(n: int) -> int:
    """ceil(log2 n) for n >= 1, and 0 for n = 0."""
    return (n - 1).bit_length() if n > 1 else 0


def _bits(p: Poly) -> int:
    """Largest ceil(log2) of any numerator or denominator of p."""
    return max((max(_log2_ceil(abs(c.numerator)), _log2_ceil(c.denominator))
                for _, c in p.items()), default=0)


def bounded_int(text: str) -> Optional[int]:
    """The integer an ASCII decimal literal with an optional sign spells, or
    None when text is anything else or its magnitude has more than
    MAX_COEFFICIENT_BITS bits."""
    body = text[1:] if text[:1] in ("+", "-") else text
    if not (body.isascii() and body.isdigit()):
        return None
    digits = body.lstrip("0") or "0"
    # a d-digit literal is at least 10^(d-1) > 2^(3(d-1)), so longer ones
    # are refused unconverted, below Python's digit limit for int()
    if len(digits) > MAX_COEFFICIENT_BITS // 3 + 1:
        return None
    value = int(digits)
    if _log2_ceil(value) > MAX_COEFFICIENT_BITS:
        return None
    return -value if text.startswith("-") else value


def _int_literal(token: tuple[str, str, int]) -> int:
    """An integer literal, refused above MAX_COEFFICIENT_BITS bits."""
    value = bounded_int(token[1])
    if value is None:
        raise PolyParseError(
            f"integer literal above the {MAX_COEFFICIENT_BITS}-bit limit",
            token[2])
    return value


def _check_expansion(terms: int, bits: int, what: str, position: int) -> None:
    if terms > MAX_EXPANSION_TERMS:
        raise PolyParseError(
            f"{what} may expand to {terms} terms, above the "
            f"{MAX_EXPANSION_TERMS}-term limit", position)
    if bits > MAX_COEFFICIENT_BITS:
        raise PolyParseError(
            f"{what} may have {bits}-bit coefficients, above the "
            f"{MAX_COEFFICIENT_BITS}-bit limit", position)


def parse_poly(text: str) -> Poly:
    """Parse a polynomial from text.

    Grammar: variables x, y, z; integer and p/q rational literals; operators
    +, -, * and ^ (with nonnegative integer exponents); parentheses; unary
    minus.  Whitespace is insignificant and implicit multiplication is not
    allowed.  These raise PolyParseError, each before it is expanded or
    converted: a product or power that may expand to more than
    MAX_EXPANSION_TERMS terms or have coefficients of more than
    MAX_COEFFICIENT_BITS bits; one that takes the running total of such term
    bounds over the expression (every power of a multi-term base and every
    product of two multi-term factors) above MAX_EXPANSION_TERMS; an integer
    literal, ASCII digits only, of more than MAX_COEFFICIENT_BITS bits; and
    parentheses nested more than MAX_NESTING levels deep.
    """
    return _Parser(text).parse()


# -- weight systems ----------------------------------------------------------


@dataclass(frozen=True)
class WeightSystem:
    """Positive integer weights for (x, y, z) with gcd 1."""

    weights: tuple[int, int, int]

    def __post_init__(self):
        if len(self.weights) != 3:
            raise ValueError("a weight system needs exactly three weights")
        if any((not isinstance(w, int)) or w <= 0 for w in self.weights):
            raise ValueError(f"weights must be positive integers, got {self.weights}")
        if math.gcd(*self.weights) != 1:
            raise ValueError(f"weights must have gcd 1, got {self.weights}")

    @property
    def total(self) -> int:
        """Sum of the three variable weights."""
        return sum(self.weights)

    def monomial_weight(self, exponents: Exponents) -> int:
        a, b, c = exponents
        w1, w2, w3 = self.weights
        return a * w1 + b * w2 + c * w3


def weighted_degree(p: Poly, weights: WeightSystem) -> Optional[int]:
    """Weighted degree of a weight-homogeneous polynomial, else None.

    Returns None both for the zero polynomial and for inhomogeneous input.
    """
    degree: Optional[int] = None
    for exps in p.exponents():
        w = weights.monomial_weight(exps)
        if degree is None:
            degree = w
        elif degree != w:
            return None
    return degree


def _cross(u: Exponents, v: Exponents) -> Exponents:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def infer_weights(p: Poly) -> WeightSystem:
    """Find the unique primitive weight system making ``p`` homogeneous.

    The weights span the kernel of the matrix of exponent differences.
    When that matrix has rank 2 the kernel is spanned by the cross product
    of two independent differences, made primitive and positive.  Raises
    WeightInferenceError for a smaller rank, where many systems fit (e.g.
    a single monomial), and when no positive weight system fits.
    """
    if p.is_zero():
        raise WeightInferenceError("cannot infer weights for the zero polynomial")
    base, *rest = p.exponents()
    diffs = [tuple(e - b for e, b in zip(exps, base)) for exps in rest]
    crosses = (_cross(diffs[0], v) for v in diffs[1:])
    kernel = next((c for c in crosses if any(c)), None) if diffs else None
    if kernel is None:
        raise WeightInferenceError(
            "ambiguous weight system: the exponent differences have rank "
            "below 2, so more than one weight system fits"
        )
    g = math.gcd(*kernel)
    if kernel[0] < 0:
        g = -g
    weights = tuple(k // g for k in kernel)
    fits = all(sum(w * e for w, e in zip(weights, diff)) == 0 for diff in diffs)
    if not fits or min(weights) <= 0:
        raise WeightInferenceError("no positive weight system fits")
    return WeightSystem(weights)
