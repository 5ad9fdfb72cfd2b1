"""Independent sympy oracle for the poisdef benchmark.

It never imports poisdef.  It works from the potential's text and the
plain data the measured process sends back:

* Milnor data: mu = prod(d / w_i - 1), socle = 3d - 2|w|, and the weight
  distribution of the monomial basis equals the Poincare polynomial
  prod (1 - t^(d - w_i)) / (1 - t^(w_i)).
* The ternary witness 2d / (|w| - d) * Cas(1) of an unbalanced potential.
* The 3-D closed form of the Poisson differential of the exact bracket:
  d0 F = grad(phi) x grad(F), d1 V = div(V) grad(phi) - grad(V . grad(phi)),
  d2 B = grad(phi) . curl(B), with bivector slots (dy^dz, dz^dx, dx^dy)
  read as the components of a vector field.
* The 3-D Poisson criterion for a bivector series V(nu): V . curl V
  vanishes modulo nu^(m+1).

Polynomials cross the process boundary as lists of [a, b, c, "p/q"]
entries, one per monomial x^a y^b z^c.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import sympy
from sympy import QQ
from sympy.polys.rings import ring

import spec

RING, X, Y, Z = ring("x,y,z", QQ)
GENS = (X, Y, Z)
_ZERO = RING.zero


# -- polynomial codec ----------------------------------------------------------


def to_sympy(entries):
    """Sparse sympy polynomial (an element of QQ[x, y, z])."""
    terms = {}
    for a, b, c, value in entries:
        frac = Fraction(value)
        terms[(a, b, c)] = QQ(frac.numerator, frac.denominator)
    return RING(terms)


def from_sympy(poly) -> list:
    return [[*monom, str(Fraction(int(coeff.numerator), int(coeff.denominator)))]
            for monom, coeff in sorted(poly.terms())]


def multivector_to_sympy(payload) -> list:
    return [to_sympy(comp) for comp in payload["comps"]]


def multivector_payload(degree: int, comps) -> dict:
    return {"degree": degree, "comps": [from_sympy(p) for p in comps]}


def parse_potential(text: str):
    expr = sympy.sympify(text.replace("^", "**"),
                         locals={"x": sympy.Symbol("x"), "y": sympy.Symbol("y"),
                                 "z": sympy.Symbol("z")})
    return RING.from_expr(expr)


def monomial_exponents(text: str) -> tuple[int, int, int]:
    """Exponents of a basis monomial printed like '1', 'x*y^2'."""
    terms = parse_potential(text).terms()
    if len(terms) != 1 or terms[0][1] != 1:
        raise ValueError(f"{text!r} is not a monic monomial")
    return tuple(terms[0][0])


# -- Milnor data ---------------------------------------------------------------


def weighted_degree(phi, weights) -> int:
    degrees = {sum(e * w for e, w in zip(monom, weights))
               for monom in phi.itermonoms()}
    if len(degrees) != 1:
        raise ValueError("potential is not weight-homogeneous")
    return degrees.pop()


def poincare_coefficients(d: int, weights) -> list[int]:
    """Coefficients of prod (1 - t^(d - w_i)) / (1 - t^(w_i))."""
    t = sympy.Symbol("t")
    num = sympy.Integer(1)
    den = sympy.Integer(1)
    for w in weights:
        num *= 1 - t ** (d - w)
        den *= 1 - t ** w
    quotient, remainder = sympy.div(sympy.Poly(num, t), sympy.Poly(den, t))
    if not remainder.is_zero:
        raise ValueError("Poincare series is not a polynomial")
    return [int(c) for c in reversed(quotient.all_coeffs())]


def check_milnor(phi_text: str, weights, mu: int, socle: int,
                 basis) -> list[str]:
    """Errors in reported Milnor data; ``basis`` is a list of exponents."""
    errors = []
    phi = parse_potential(phi_text)
    d = weighted_degree(phi, weights)
    expected_mu = 1
    for w in weights:
        expected_mu *= Fraction(d, w) - 1
    if mu != expected_mu:
        errors.append(f"mu {mu} != {expected_mu}")
    expected_socle = 3 * d - 2 * sum(weights)
    if socle != expected_socle:
        errors.append(f"socle {socle} != {expected_socle}")
    if len(set(map(tuple, basis))) != len(basis):
        errors.append("repeated basis monomials")
    histogram: dict[int, int] = {}
    for exps in basis:
        wt = sum(e * w for e, w in zip(exps, weights))
        histogram[wt] = histogram.get(wt, 0) + 1
    coeffs = poincare_coefficients(d, weights)
    expected = {k: c for k, c in enumerate(coeffs) if c}
    if histogram != expected:
        errors.append(f"basis weights {histogram} != Poincare {expected}")
    return errors


def witness_scale(phi_text: str, weights) -> Fraction:
    """2d / (|w| - d): the ternary bracket on (Cas(1), Cas(1), Top(0,0))."""
    d = weighted_degree(parse_potential(phi_text), weights)
    return Fraction(2 * d, sum(weights) - d)


_CAS1 = re.compile(r"^(-?)(?:(\d+(?:/\d+)?)\*)?Cas\(1\)$")


def parse_cas1_multiple(text: str) -> Fraction | None:
    match = _CAS1.match(text.strip())
    if match is None:
        return None
    value = Fraction(match.group(2) or 1)
    return -value if match.group(1) else value


# -- closed-form differential --------------------------------------------------


def _grad(f):
    return [f.diff(v) for v in GENS]


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _curl(v):
    return [v[2].diff(Y) - v[1].diff(Z),
            v[0].diff(Z) - v[2].diff(X),
            v[1].diff(X) - v[0].diff(Y)]


def differential(phi, degree: int, comps) -> list:
    """[pi_phi, P] for a degree-``degree`` multivector given by components."""
    g = _grad(phi)
    if degree == 0:
        return _cross(g, _grad(comps[0]))
    if degree == 1:
        div = sum((c.diff(v) for c, v in zip(comps, GENS)), _ZERO)
        grad_inner = _grad(_dot(comps, g))
        return [div * gi - hi for gi, hi in zip(g, grad_inner)]
    if degree == 2:
        return [_dot(g, _curl(comps))]
    return []


def poisson_residuals(series) -> list:
    """Order-n coefficients of V . curl V for V = sum series[n] nu^n."""
    curls = [_curl(v) for v in series]
    out = []
    for n in range(len(series)):
        total = _ZERO
        for a in range(n + 1):
            total += _dot(series[a], curls[n - a])
        out.append(total)
    return out


def is_poisson_series(series) -> bool:
    return not any(poisson_residuals(series))


# -- seeded slice inputs -------------------------------------------------------


def monomials_of_weight(weights, weight: int) -> list[tuple[int, int, int]]:
    if weight < 0:
        return []
    w1, w2, w3 = weights
    out = []
    for a in range(weight // w1 + 1):
        for b in range((weight - a * w1) // w2 + 1):
            rest = weight - a * w1 - b * w2
            if rest % w3 == 0:
                out.append((a, b, rest // w3))
    return out


def slot_offsets(weights, degree: int) -> tuple[int, ...]:
    w1, w2, w3 = weights
    return {0: (0,), 1: (w1, w2, w3), 2: (w2 + w3, w3 + w1, w1 + w2),
            3: (w1 + w2 + w3,)}[degree]


def random_slice_element(rng: random.Random, weights, degree: int,
                         weight: int) -> list:
    """Multivector with every monomial of the slice, seeded coefficients."""
    comps = []
    for offset in slot_offsets(weights, degree):
        entries = [[*m, str(spec.random_fraction(rng))]
                   for m in monomials_of_weight(weights, weight + offset)]
        comps.append(to_sympy(entries))
    return comps


def slice_inputs(seed: int, phi_text: str, weights, degrees,
                 weight_cap: int) -> list[dict]:
    """For each (degree, weight) slice, a preimage y with its image d y (for
    the cocycle f1(c) + d y) and the image d y2 of a second preimage (the
    coboundary target), all from the seed."""
    rng = random.Random(seed)
    phi = parse_potential(phi_text)
    delta = weighted_degree(phi, weights) - sum(weights)
    out = []
    for degree in degrees:
        for weight in range(-max(slot_offsets(weights, degree)),
                            weight_cap + 1):
            entry = {"degree": degree, "weight": weight}
            for key in ("cocycle", "target"):
                y = random_slice_element(rng, weights, degree - 1,
                                         weight - delta)
                if key == "cocycle":
                    entry["cocycle_pre"] = multivector_payload(degree - 1, y)
                entry[key + "_dy"] = multivector_payload(
                    degree, differential(phi, degree - 1, y))
            out.append(entry)
    return out
