"""Formal deformations of an exact Poisson bivector at finite truncation.

A deformation is a bivector series pi_0 + gamma_1 nu + gamma_2 nu^2 + ...
truncated at a fixed order; it is Poisson up to that order when the
Schouten self-bracket vanishes order by order.  In three variables
f * pi_psi is Poisson for every pair of polynomials f and psi, and every
formal deformation of pi_phi can be written (Pichereau) as

    (1 + F(nu)) * pi_{phi + Psi(nu)},

a conformal factor F and a potential shift Psi generated by a finite
family of rational coefficients in the cohomology label basis:

    F   = sum c[n, l, i] nu^n phi^l u_i      (A-type directions),
    Psi = sum cbar[n, r] nu^n u_r            (B-type directions).

:meth:`CoeffFamily.read` is the one reader of a family file; it reads no
more bytes than the largest family up to ``MAX_ORDER`` needs.

Since pi_psi is linear in psi, putting F_0 = 1 and Psi_0 = phi gives the
order-n coefficient evaluated by :func:`build_deformation`:

    gamma_n = sum_{a+b=n} F_a * pi_{Psi_b}.

The same series arises from the transferred L-infinity structure: the
Maurer-Cartan image of the class series gamma_n = sum c A + sum cbar B is

    MC_n = f_1(gamma_n) + (1/2) * sum_{a+b=n} f_2(gamma_a, gamma_b)

(higher homotopies vanish on bivector classes), and :func:`mc_image`
returns the anchored series pi_phi + sum MC_n nu^n, which equals
build_deformation.  Both routes are kept separate so they can be checked
against each other.

Each order-n coefficient of the build, of the Jacobi residual and of
each term of the gauge exponential is one exact sum of products per
component: all the products of order n go into one
:meth:`poisdef.algebra.Poly.sum_of_products` (through
:func:`poisdef.multivec.schouten_sum` for brackets), and the factors 2
and 1/k of the residual and the exponential are folded into it.

Gauge action: a polynomial vector-field series xi acts on a deformation
by the exponential of the adjoint action,

    e^{ad_xi}(pi_*) = pi_* + [xi, pi_*] + (1/2!)[xi, [xi, pi_*]] + ...,

truncated at the series order; it preserves the Poisson condition and the
first-order cohomology class.  On the class side (balanced potentials
only), a series xi_n of degree-0 classes acts by

    gamma  ->  gamma - sum_{k>=2} ((-1)^(k(k-1)/2) / (k-1)!) *
                           ell_k(xi, gamma, ..., gamma),

which is the identity in the unbalanced case since degree-0 classes then
vanish.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Optional

from .algebra import (MAX_COEFFICIENT_BITS, DomainError, Poly, ScalarLike,
                      bounded_int, exact_scalar)
from .cohomology import (BasisLabel, CohClass, a_index_range, b_index_range,
                         f1, project)
from .linfty import TransferState
from .multivec import MultiVec, curl, poisson_from_potential, schouten_sum
from .singularity import SingularityData


# Largest power of the potential a family entry may name, so that one
# entry of a family file cannot demand an unbounded computation.
MAX_PHI_POWER = 16

# Largest truncation order a command accepts, so that no command line can
# demand an unbounded order; it also bounds the size of a family file.
MAX_ORDER = 32

# Whitespace a family file may carry beyond its compact JSON: per entry
# (enough for json.dumps(..., indent=2), which puts each index on a line
# of its own) and once per file.
_FAMILY_SPACE_PER_ENTRY = 64
_FAMILY_SPACE_PER_FILE = 1024


class InvalidFamilyError(DomainError):
    """A coefficient family is malformed, inexact, or refers to indices
    that do not exist."""


@dataclass(frozen=True)
class NuSeries:
    """Truncated series in the formal parameter nu.

    ``coeffs[n-1]`` is the order-n coefficient (n = 1..order_cap); all
    coefficients share one kind (multivectors of a fixed degree, or
    classes of a fixed degree).  ``anchor``, when present, is an order-0
    multivector the series deforms (the undeformed Poisson bivector).
    """

    order_cap: int
    coeffs: tuple
    anchor: Optional[MultiVec] = None

    def __post_init__(self):
        if self.order_cap < 1:
            raise ValueError("series order cap must be at least 1")
        if len(self.coeffs) != self.order_cap:
            raise ValueError(
                f"expected {self.order_cap} coefficients, got {len(self.coeffs)}"
            )

    def coefficient(self, n: int):
        """Order-n coefficient, n = 1..order_cap (0 returns the anchor)."""
        if n == 0:
            if self.anchor is None:
                raise ValueError("series has no order-0 anchor")
            return self.anchor
        if not 1 <= n <= self.order_cap:
            raise ValueError(f"order {n} outside 1..{self.order_cap}")
        return self.coeffs[n - 1]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


@dataclass(frozen=True)
class CoeffFamily:
    """Rational generating coefficients of a truncated deformation.

    ``c`` maps (n, l, i) to the coefficient of phi^l * u_i * pi at order
    n; ``cbar`` maps (n, r) to the coefficient of the exact bivector of
    u_r at order n.  JSON form:

        {"c": [[n, l, i, "p/q"], ...], "cbar": [[n, r, "p/q"], ...]}
    """

    c: tuple[tuple[tuple[int, int, int], ScalarLike], ...]
    cbar: tuple[tuple[tuple[int, int], ScalarLike], ...]

    @classmethod
    def make(cls, c: dict[tuple[int, int, int], ScalarLike],
             cbar: dict[tuple[int, int], ScalarLike]) -> "CoeffFamily":
        """The family with these coefficients, each stored as
        :func:`poisdef.algebra.exact_scalar` stores it (TypeError for an
        inexact one); zero coefficients are dropped."""
        tables = []
        for table in (c, cbar):
            values = {key: exact_scalar(v) for key, v in table.items()}
            tables.append(tuple(sorted(
                (key, v) for key, v in values.items() if v)))
        return cls(*tables)

    def validate(self, data: SingularityData) -> None:
        allowed = a_index_range(data)
        for (n, l, i), _ in self.c:
            if n < 1:
                raise InvalidFamilyError(f"c[{n},{l},{i}]: order must be >= 1")
            if not 0 <= l <= MAX_PHI_POWER:
                raise InvalidFamilyError(
                    f"c[{n},{l},{i}]: phi power outside 0..{MAX_PHI_POWER}")
            if i not in allowed:
                raise InvalidFamilyError(
                    f"c[{n},{l},{i}]: u-index {i} outside {list(allowed)!r}"
                )
        for (n, r), _ in self.cbar:
            if n < 1:
                raise InvalidFamilyError(f"cbar[{n},{r}]: order must be >= 1")
            if r not in b_index_range(data):
                raise InvalidFamilyError(
                    f"cbar[{n},{r}]: index {r} outside 1..{data.mu - 1}"
                )

    def to_json_dict(self) -> dict:
        return {
            "c": [[n, l, i, str(v)] for (n, l, i), v in self.c],
            "cbar": [[n, r, str(v)] for (n, r), v in self.cbar],
        }

    @classmethod
    def read(cls, path: str, data: SingularityData) -> "CoeffFamily":
        """The family in the file at ``path``: at most
        :func:`_family_byte_limit` bytes (a larger file is refused
        unparsed), UTF-8, each JSON integer read by :func:`_family_int`."""
        limit = _family_byte_limit(data)
        with open(path, "rb") as handle:
            raw = handle.read(limit + 1)
        if len(raw) > limit:
            raise InvalidFamilyError(
                f"family file is larger than {limit} bytes, the most a family "
                "for this potential needs")
        try:
            payload = json.loads(raw.decode("utf-8"), parse_int=_family_int)
        except UnicodeDecodeError as exc:
            raise InvalidFamilyError(
                f"family file is not UTF-8: byte {exc.start} cannot be "
                "decoded") from None
        except RecursionError:
            raise InvalidFamilyError("family JSON is nested too deeply") from None
        return cls.from_json_dict(payload)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CoeffFamily":
        """Read the JSON form.  Its only keys are "c" and "cbar", so no
        misspelled table is dropped; indices must be JSON integers and
        values integers or "p/q" strings, so no inexact number gets in;
        no two entries of a table may share their indices, so none is
        dropped for a later one."""
        if not isinstance(payload, dict):
            raise InvalidFamilyError("family JSON must be an object")
        unknown = [key for key in payload if key not in ("c", "cbar")]
        if unknown:
            raise InvalidFamilyError(
                f"unknown family key(s) {', '.join(map(repr, unknown))}; "
                'a family has only the keys "c" and "cbar"')
        tables = []
        for name, width, shape in (("c", 4, "[n,l,i,value]"),
                                   ("cbar", 3, "[n,r,value]")):
            entries = payload.get(name, [])
            if not isinstance(entries, list):
                raise InvalidFamilyError(f"{name} must be a list of {shape}")
            table = {}
            for entry in entries:
                if (not isinstance(entry, list)
                        or len(entry) != width
                        or any(type(i) is not int for i in entry[:-1])):
                    raise InvalidFamilyError(
                        f"{name} entry {entry!r} must be {shape} with "
                        "integer indices")
                key = tuple(entry[:-1])
                if key in table:
                    raise InvalidFamilyError(
                        f"{name} entry {entry!r} repeats the indices of an "
                        "earlier entry")
                table[key] = _exact_value(entry[-1], name, entry)
            tables.append(table)
        return cls.make(*tables)


def _family_byte_limit(data: SingularityData) -> int:
    """Largest family file read for this potential: the compact JSON of the
    largest family that can matter (an entry per order up to MAX_ORDER, phi
    power up to MAX_PHI_POWER and index, each value a signed "p/q" of two
    MAX_COEFFICIENT_BITS-bit integers), plus whitespace."""
    digits = len(str(1 << MAX_COEFFICIENT_BITS))
    value = len('"-/",') + 2 * digits
    order, power = len(str(MAX_ORDER)), len(str(MAX_PHI_POWER))
    index = len(str(data.mu))
    n_c = MAX_ORDER * (MAX_PHI_POWER + 1) * len(a_index_range(data))
    n_cbar = MAX_ORDER * len(b_index_range(data))
    compact = (len('{"c":[],"cbar":[]}')
               + n_c * (len("[,,,]") + order + power + index + value)
               + n_cbar * (len("[,,]") + order + index + value))
    return (compact + _FAMILY_SPACE_PER_ENTRY * (n_c + n_cbar)
            + _FAMILY_SPACE_PER_FILE)


_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def _family_int(text: str) -> int:
    """A decimal integer of a family file, refused above
    MAX_COEFFICIENT_BITS bits before it is converted."""
    value = bounded_int(text)
    if value is None:
        raise InvalidFamilyError(
            f"a {len(text)}-character family number is above the "
            f"{MAX_COEFFICIENT_BITS}-bit limit")
    return value


def _exact_value(value, name: str, entry: list) -> ScalarLike:
    """An integer or a "p/q" string (q nonzero) as an exact scalar, each
    integer of at most MAX_COEFFICIENT_BITS bits."""
    if type(value) is int:
        if abs(value) > 1 << MAX_COEFFICIENT_BITS:
            raise InvalidFamilyError(
                f"a {name} value is above the {MAX_COEFFICIENT_BITS}-bit limit")
        return value
    match = _RATIONAL_RE.fullmatch(value) if isinstance(value, str) else None
    if match:
        return Fraction(_family_int(match[1]), _family_int(match[2] or "1"))
    raise InvalidFamilyError(
        f"{name} entry {entry!r}: value must be an integer or a \"p/q\" "
        "string with nonzero q")


def gamma_classes(fam: CoeffFamily, data: SingularityData, m: int) -> NuSeries:
    """The family as a series of degree-1 cohomology classes."""
    fam.validate(data)
    parts: list[dict[BasisLabel, ScalarLike]] = [{} for _ in range(m)]
    for (n, l, i), value in fam.c:
        if n <= m:
            parts[n - 1][BasisLabel("A", (l, i))] = value
    for (n, r), value in fam.cbar:
        if n <= m:
            parts[n - 1][BasisLabel("B", (r,))] = value
    return NuSeries(order_cap=m,
                    coeffs=tuple(CohClass.make(1, p) for p in parts))


def build_deformation(data: SingularityData, fam: CoeffFamily,
                      m: int) -> NuSeries:
    """Truncated Poisson deformation generated by a coefficient family.

    Reads the family once into the conformal factor F and the potential
    shift Psi, order by order (F_0 = 1, Psi_0 = phi), and returns the
    series gamma_n = sum_{a+b=n} F_a * pi_{Psi_b} anchored at pi_phi.
    The result is Poisson up to order m for every family, which
    :func:`jacobi_residual` can confirm.
    """
    if m < 1:
        raise ValueError("truncation order must be at least 1")
    fam.validate(data)
    phi = data.phi
    u = data.basis_polys
    factor = [Poly.one()] + [Poly.zero()] * m
    shift = [phi] + [Poly.zero()] * m
    for (n, l, i), value in fam.c:
        if n <= m:
            factor[n] = factor[n] + (phi ** l) * u[i] * value
    for (n, r), value in fam.cbar:
        if n <= m:
            shift[n] = shift[n] + u[r] * value
    # pi_psi = grad psi on the bivector slots
    gamma = tuple(
        MultiVec(2, tuple(Poly.sum_of_products(
            [(1, factor[a], shift[n - a].diff(i)) for a in range(n + 1)])
            for i in range(3)))
        for n in range(1, m + 1))
    return NuSeries(order_cap=m, coeffs=gamma,
                    anchor=poisson_from_potential(phi))


def jacobi_residual(series: NuSeries) -> NuSeries:
    """Order-by-order Schouten self-bracket of an anchored bivector series.

    Coefficient n of the result is sum over a + b = n of [pi_a, pi_b]
    with pi_0 the anchor; the series is Poisson to order m when all
    coefficients up to m vanish.  Since [A, B] = a . curl b + b . curl a,
    the sum is 2 sum_{a+b=n} pi_a . curl pi_b: one curl per term of the
    series, and coefficient n is one sum of 3 (n + 1) products with the
    factor 2 as their multiplier.
    """
    if series.anchor is None:
        raise ValueError("jacobi_residual needs an anchored series")
    terms = [series.anchor] + list(series.coeffs)
    curls = [curl(t).comps for t in terms]
    return NuSeries(order_cap=series.order_cap, coeffs=tuple(
        MultiVec.trivector(Poly.sum_of_products(
            [(2, terms[a].comps[i], curls[n - a][i])
             for a in range(n + 1) for i in range(3)]))
        for n in range(1, len(terms))))


def mc_image(state: TransferState, gamma: NuSeries, m: int) -> NuSeries:
    """Maurer-Cartan image of a series of degree-1 classes, to order m.

    Returns the deformation anchored at pi_phi whose coefficient n is
    f_1(gamma_n) + (1/2) sum_{a+b=n} f_2(gamma_a, gamma_b); the higher
    homotopies do not contribute because they vanish on tuples of
    degree-1 classes.
    """
    if not 1 <= m <= gamma.order_cap:
        raise ValueError(f"order {m} outside 1..{gamma.order_cap}")
    for n in range(1, m + 1):
        cls = gamma.coefficient(n)
        if not isinstance(cls, CohClass) or cls.g_degree != 1:
            raise ValueError("mc_image expects degree-1 cohomology classes")
    data = state.data
    classes = [CohClass.zero(1)] + list(gamma.coeffs[:m])
    coeffs = []
    for n in range(1, m + 1):
        pairs = MultiVec.zero(2)
        for a in range(1, n):
            pairs = pairs + state.f([classes[a], classes[n - a]])
        coeffs.append(f1(classes[n], data) + pairs * Fraction(1, 2))
    return NuSeries(order_cap=m, coeffs=tuple(coeffs),
                    anchor=poisson_from_potential(data.phi))


def first_order_class(series: NuSeries, data: SingularityData) -> CohClass:
    """Cohomology class of the first-order coefficient of a deformation."""
    return project(series.coefficient(1), data)


def gauge_apply(series: NuSeries, xi: NuSeries) -> NuSeries:
    """Exponential of the adjoint action of a vector-field series.

    ``xi`` is a series of polynomial vector fields starting at order 1;
    the result is the anchored series of e^{ad_xi} applied to ``series``,
    truncated at the series cap.  Nested brackets beyond the truncation
    order vanish because xi has no order-0 term.  The order-n coefficient
    of ad_xi^k(series) / k! is (1/k) sum_{a=1..n} [xi_a, c_{n-a}], c the
    coefficients of ad_xi^(k-1)(series) / (k-1)!: one
    :func:`poisdef.multivec.schouten_sum` with divisor k.
    """
    if series.anchor is None:
        raise ValueError("gauge_apply needs an anchored series")
    m = series.order_cap
    if xi.order_cap < m:
        raise ValueError("gauge series must reach the truncation order")
    for n in range(1, m + 1):
        term = xi.coefficient(n)
        if not isinstance(term, MultiVec) or term.degree != 1:
            raise ValueError("gauge series coefficients must be vector fields")
    # current is ad_xi^k(series) / k!, coefficients n = 0..m
    current = [series.anchor] + list(series.coeffs)
    result = list(current)
    for k in range(1, m + 1):
        current = [MultiVec.zero(2)] + [
            schouten_sum([(1, xi.coeffs[a - 1], current[n - a])
                          for a in range(1, n + 1)], k)
            for n in range(1, m + 1)]
        result = [r + c for r, c in zip(result, current)]
    return NuSeries(order_cap=m, coeffs=tuple(result[1:]), anchor=series.anchor)


def gauge_special(state: TransferState, gamma: NuSeries,
                  xi: NuSeries) -> NuSeries:
    """Class-level gauge action of a series of degree-0 classes.

    Implements gamma -> gamma - sum_{k>=2} ((-1)^(k(k-1)/2)/(k-1)!) *
    ell_k(xi, gamma, ..., gamma) order by order; arity demands above the
    state's cap raise ArityCapExceededError.  With an all-zero xi (the
    only possibility for unbalanced potentials, whose degree-0 cohomology
    vanishes) the input is returned unchanged.
    """
    m = gamma.order_cap
    if xi.order_cap < m:
        raise ValueError("gauge series must reach the truncation order")
    for n in range(1, m + 1):
        term = xi.coefficient(n)
        if not isinstance(term, CohClass) or term.g_degree != 0:
            raise ValueError("gauge series coefficients must be degree-0 classes")
        cls = gamma.coefficient(n)
        if not isinstance(cls, CohClass) or cls.g_degree != 1:
            raise ValueError("gamma coefficients must be degree-1 classes")
    out = [gamma.coefficient(n) for n in range(1, m + 1)]
    for k in range(2, m + 1):
        exponent = (k * (k - 1)) // 2
        scale = Fraction((-1) ** exponent, factorial(k - 1))
        for n in range(k, m + 1):
            # compositions (a, b_1, ..., b_{k-1}) of n, cut at k - 1 points
            for cuts in combinations(range(1, n), k - 1):
                combo = [b - a for a, b in zip((0,) + cuts, cuts + (n,))]
                args = [xi.coefficient(combo[0])]
                args += [gamma.coefficient(b) for b in combo[1:]]
                out[n - 1] = out[n - 1] - state.ell(args) * scale
    return NuSeries(order_cap=m, coeffs=tuple(out))

