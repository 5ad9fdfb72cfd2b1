"""Seeded verification suites with deterministic, JSON-ready reports.

Each suite runner takes an analyzed potential (``SingularityData``) and a
``SuiteConfig`` and returns a plain dict::

    {"suite": <name>,
     "checks": [{"name": ..., "pass": bool, "cases": int, ...}, ...],
     "counts": {"pass": int, "fail": int},
     "status": "pass" | "fail"}

Checks are appended in a fixed order, label enumerations are canonical,
and all randomness flows through ``random.Random(config.seed)``, so a
given (potential, config) pair always produces the identical report.

Every numerical check below is exact: a residual either is the zero
polynomial object or it is not.  There are no tolerances anywhere.

A sweep check holds when its identity holds on every case: ``cases`` is
the number of cases tried, and a failing check carries a ``detail`` that
lists the first six failing cases (basis labels as ``A(0,1)``, tuples in
parentheses, sampled families and gauges by index).  The few checks of a
single value record that value's verdict alone.

The five suites:

``schouten``
    Chain-level bracket identities: the self-bracket of the structure
    bivector, the closed family of identities satisfied by the degree-1
    representatives (Hamiltonian-type and exact bivectors), and seeded
    graded antisymmetry / graded Leibniz / square-zero spot checks.

``tables``
    Every enumerated basis representative is a cocycle, the degree-0
    family appears exactly for balanced potentials, and the order-2
    morphism equation holds on every pair of basis labels under the cap.

``transfer``
    The order-3 obstruction vanishes identically on triples of degree-1
    labels, obstructions are cocycles on mixed tuples, the order-3/4
    morphism equations and generalized Jacobi identities hold, and the
    closed-form value of the ternary bracket on (phi, phi, volume) is
    reproduced for unbalanced potentials.  Each check that needs a
    bracket above ``arity_cap`` is skipped.

``deform``
    Seeded random coefficient families on the degree-1 labels under the
    cocycle cap give bivector series that are Poisson to the truncation
    order, agree with the Maurer-Cartan image of the transferred
    structure, recover their first-order class, and truncate consistently.

``gauge``
    Seeded gauge transformations (vector fields, not labels) of one such
    family preserve both the Poisson property and the first-order class;
    for balanced potentials the class-level gauge action of degree-0
    classes preserves Maurer-Cartan solutions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .algebra import Poly
from .cohomology import (
    BasisLabel,
    CohClass,
    b_index_range,
    enumerate_basis,
    label_weight,
    realize,
)
from .deform import (
    CoeffFamily,
    NuSeries,
    build_deformation,
    first_order_class,
    gamma_classes,
    gauge_apply,
    gauge_special,
    jacobi_residual,
    mc_image,
)
from .linfty import TransferState
from .multivec import (
    SLOTS,
    MultiVec,
    coboundary,
    poisson_from_potential,
    schouten,
)
from .singularity import SingularityData

# Largest power of the potential in the schouten suite's closed identities.
PHI_POWER_CAP = 2

# Largest exponent of a variable in a random polynomial.
MAX_EXPONENT = 2

# Random coefficient families in the deform suite, random gauges in the
# gauge suite, and seeded samples per spot-check sweep.
N_FAMILIES = 20
N_GAUGES = 10
N_SAMPLES = 10


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by the verification suites.

    ``weight_cap`` bounds the weight of every basis label a suite names;
    when None, sweeps over pairs/triples use twice the potential degree,
    and the cocycle sweep and sampled families three times that degree.
    """

    order: int = 3
    weight_cap: Optional[int] = None
    arity_cap: int = 4
    seed: int = 0

    def pair_cap(self, data: SingularityData) -> int:
        return 2 * data.d if self.weight_cap is None else self.weight_cap

    def cocycle_cap(self, data: SingularityData) -> int:
        return 3 * data.d if self.weight_cap is None else self.weight_cap


# -- seeded samplers -----------------------------------------------------------


def random_fraction(rng: random.Random) -> Fraction:
    """Small nonzero random rational: numerator in -9..9, denominator 1..4."""
    while True:
        num = rng.randint(-9, 9)
        if num != 0:
            return Fraction(num, rng.randint(1, 4))


def random_polynomial(rng: random.Random, *, max_terms: int = 3) -> Poly:
    """Random sparse polynomial with small exponents and coefficients."""
    total = Poly.zero()
    for _ in range(rng.randint(1, max_terms)):
        exponents = tuple(rng.randint(0, MAX_EXPONENT) for _ in range(3))
        total = total + Poly.monomial(exponents, random_fraction(rng))
    return total


def random_multivector(rng: random.Random, degree: int, *,
                       max_terms: int = 2) -> MultiVec:
    """Random multivector with random polynomial components."""
    comps = tuple(random_polynomial(rng, max_terms=max_terms)
                  for _ in SLOTS[degree])
    return MultiVec(degree, comps)


def random_family(rng: random.Random, labels: Sequence[BasisLabel], *,
                  order: int) -> CoeffFamily:
    """Random coefficient family on the given degree-1 basis labels.

    Each order 1..order adds random coefficients to one to three draws
    from ``labels``: A(l, i) into ``c``, B(r) into ``cbar``.  No labels
    give the empty family.
    """
    c: dict[tuple[int, int, int], Fraction] = {}
    cbar: dict[tuple[int, int], Fraction] = {}
    for n in range(1, order + 1):
        for _ in range(rng.randint(1, 3) if labels else 0):
            label = rng.choice(labels)
            coeffs = c if label.kind == "A" else cbar
            key = (n,) + label.indices
            coeffs[key] = coeffs.get(key, Fraction(0)) + random_fraction(rng)
    return CoeffFamily.make(c, cbar)


def random_gauge_series(rng: random.Random, order: int) -> NuSeries:
    """Random series of polynomial vector fields (orders 1..order)."""
    coeffs = tuple(random_multivector(rng, 1) for _ in range(order))
    return NuSeries(order_cap=order, coeffs=coeffs)


def all_basis_labels(data: SingularityData, weight_cap: int) -> list[BasisLabel]:
    """Basis labels of every homological degree, canonical order."""
    out: list[BasisLabel] = []
    for g in (-1, 0, 1, 2):
        out.extend(enumerate_basis(data, g, weight_cap))
    return out


# -- report plumbing -----------------------------------------------------------


def _record(checks: list, name: str, ok: bool, *, cases: int = 1,
            detail: Optional[str] = None, value: Optional[str] = None) -> None:
    entry: dict = {"name": name, "pass": bool(ok), "cases": cases}
    if value is not None:
        entry["value"] = value
    if not ok and detail is not None:
        entry["detail"] = detail
    checks.append(entry)


def _case_str(case) -> str:
    """A case in report notation: labels as A(0,1), tuples in parentheses."""
    if isinstance(case, tuple):
        return f"({', '.join(_case_str(part) for part in case)})"
    return str(case)


def _sweep(checks: list, name: str, cases: Iterable,
           holds: Callable[..., bool], *, count: Optional[int] = None) -> None:
    """Record ``name`` as "``holds(case)`` on every case".

    Cases are tried in order, so seeded draws made inside ``holds`` keep
    their order.  ``cases`` is the number of cases unless ``count`` is given.
    """
    cases = list(cases)
    failing = [case for case in cases if not holds(case)]
    _record(checks, name, not failing,
            cases=len(cases) if count is None else count,
            detail="failing cases: "
                   + "; ".join(_case_str(case) for case in failing[:6]))


def _finish(name: str, checks: list) -> dict:
    n_pass = sum(1 for entry in checks if entry["pass"])
    return {
        "suite": name,
        "checks": checks,
        "counts": {"pass": n_pass, "fail": len(checks) - n_pass},
        "status": "pass" if n_pass == len(checks) else "fail",
    }


# -- schouten suite ------------------------------------------------------------

_PAIR_DEGREES = ((1, 1), (1, 2), (2, 2), (0, 2), (1, 3))
_TRIPLE_DEGREES = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (0, 1, 2))


def _samples(shapes: Sequence) -> list:
    """Each shape repeated ``N_SAMPLES // len(shapes)`` times (at least once)."""
    per_shape = max(1, N_SAMPLES // len(shapes))
    return [shape for shape in shapes for _ in range(per_shape)]


def run_schouten_suite(data: SingularityData, config: SuiteConfig,
                       state: Optional[TransferState] = None) -> dict:
    """Chain-level bracket identities and seeded algebraic spot checks."""
    del state  # the bracket identities live below the transfer machinery
    checks: list = []
    rng = random.Random(config.seed)
    phi = data.phi
    pi = poisson_from_potential(phi)

    _record(checks, "structure_bivector_self_bracket_vanishes",
            schouten(pi, pi).is_zero())

    # Degree-1 representative families entering the closed identities.
    powers = [Poly.one()]
    for _ in range(PHI_POWER_CAP):
        powers.append(powers[-1] * phi)
    u = data.basis_polys
    hamiltonian = {
        (a, k): pi.mul_poly(powers[a] * u[k])
        for a in range(PHI_POWER_CAP + 1)
        for k in range(data.mu)
    }
    exact = {r: poisson_from_potential(u[r]) for r in b_index_range(data)}
    ham_keys = sorted(hamiltonian)
    exact_keys = sorted(exact)

    _sweep(checks, "hamiltonian_pair_brackets_vanish",
           itertools.combinations_with_replacement(ham_keys, 2),
           lambda pair: schouten(hamiltonian[pair[0]],
                                 hamiltonian[pair[1]]).is_zero())

    def is_coboundary(case) -> bool:
        (a, k), t = case
        carrier = exact[t].mul_poly(powers[a] * u[k])
        return (schouten(hamiltonian[(a, k)], exact[t])
                + coboundary(carrier, phi)).is_zero()

    _sweep(checks, "hamiltonian_exact_brackets_are_coboundaries",
           itertools.product(ham_keys, exact_keys), is_coboundary)
    _sweep(checks, "exact_pair_brackets_vanish",
           itertools.combinations_with_replacement(exact_keys, 2),
           lambda pair: schouten(exact[pair[0]], exact[pair[1]]).is_zero())

    # Seeded graded antisymmetry: [P,Q] = -(-1)^((p-1)(q-1)) [Q,P].
    def antisymmetric(degrees) -> bool:
        p_deg, q_deg = degrees
        p = random_multivector(rng, p_deg)
        q = random_multivector(rng, q_deg)
        sign = -1 if ((p_deg - 1) * (q_deg - 1)) % 2 else 1
        return (schouten(p, q) + schouten(q, p) * sign).is_zero()

    _sweep(checks, "graded_antisymmetry_samples",
           _samples(_PAIR_DEGREES), antisymmetric)

    # Seeded graded Leibniz: [[P,Q],R] = [P,[Q,R]] - (-1)^((p-1)(q-1)) [Q,[P,R]].
    def leibniz(degrees) -> bool:
        p, q, r = (random_multivector(rng, deg, max_terms=1) for deg in degrees)
        sign = -1 if ((degrees[0] - 1) * (degrees[1] - 1)) % 2 else 1
        return (schouten(schouten(p, q), r)
                - schouten(p, schouten(q, r))
                + schouten(q, schouten(p, r)) * sign).is_zero()

    _sweep(checks, "graded_leibniz_samples",
           _samples(_TRIPLE_DEGREES), leibniz)

    # Seeded d^2 = 0 on random multivectors of degree 0 and 1.
    _sweep(checks, "coboundary_squares_to_zero_samples",
           _samples((0, 1)),
           lambda degree: coboundary(coboundary(
               random_multivector(rng, degree), phi), phi).is_zero())

    return _finish("schouten", checks)


# -- tables suite --------------------------------------------------------------


def run_tables_suite(data: SingularityData, config: SuiteConfig,
                     state: TransferState) -> dict:
    """Cocycle sweep and the order-2 morphism equation on basis pairs."""
    checks: list = []
    cocycle_cap = config.cocycle_cap(data)

    for g in (-1, 0, 1, 2):
        _sweep(checks, f"representatives_are_cocycles_degree_{g}",
               enumerate_basis(data, g, cocycle_cap),
               lambda lab: coboundary(realize(lab, data), data.phi).is_zero())

    degree0 = enumerate_basis(data, 0, cocycle_cap)
    if data.special:
        expected = [BasisLabel("Eul", (i,))
                    for i in range(cocycle_cap // data.d + 1)]
        ok = degree0 == [lab for lab in expected
                         if label_weight(lab, data) <= cocycle_cap]
        _record(checks, "degree0_family_is_euler_multiples", ok,
                cases=len(degree0),
                detail=f"got {[str(l) for l in degree0]}")
    else:
        _record(checks, "degree0_family_is_empty", not degree0,
                cases=max(1, len(degree0)),
                detail=f"got {[str(l) for l in degree0]}")

    _sweep(checks, "order2_morphism_equation_on_basis_pairs",
           itertools.combinations_with_replacement(
               all_basis_labels(data, config.pair_cap(data)), 2),
           lambda pair: state.E_labels(pair).is_zero())

    return _finish("tables", checks)


# -- transfer suite ------------------------------------------------------------


def run_transfer_suite(data: SingularityData, config: SuiteConfig,
                       state: TransferState) -> dict:
    """Obstruction vanishing, morphism equations, and Jacobi identities."""
    checks: list = []
    rng = random.Random(config.seed)
    cap = config.pair_cap(data)

    triples = list(itertools.combinations_with_replacement(
        enumerate_basis(data, 1, cap), 3))
    _sweep(checks, "order3_obstruction_vanishes_on_degree1_triples", triples,
           lambda triple: state.T_labels(triple).is_zero(),
           count=max(1, len(triples)))

    labels = all_basis_labels(data, cap)
    arities = [n for n in (3, 4) if n <= config.arity_cap]

    def sampled_tuples(n: int) -> list[tuple[BasisLabel, ...]]:
        return [tuple(rng.choice(labels) for _ in range(n))
                for _ in range(max(2, N_SAMPLES // (2 ** (n - 3))))]

    for n in arities:
        tuples = sampled_tuples(n)
        _sweep(checks, f"order{n}_obstructions_are_cocycles", tuples,
               lambda chosen: coboundary(state.T_labels(chosen),
                                         data.phi).is_zero())
        _sweep(checks, f"order{n}_morphism_equation_on_sampled_tuples", tuples,
               lambda chosen: state.E_labels(chosen).is_zero())

    for n in arities:
        _sweep(checks, f"order{n}_jacobi_identity_on_sampled_tuples",
               sampled_tuples(n),
               lambda chosen: state.J_labels(chosen).is_zero())

    if not data.special and config.arity_cap >= 3:
        # Closed-form value of the ternary bracket on (phi, phi, volume):
        # 2*wt(phi)/(|w| - wt(phi)) times the class of phi, in this
        # package's sign convention for the transferred brackets.
        phi_bar = BasisLabel("Cas", (1,))
        vol_bar = BasisLabel("Top", (0, 0))
        value = state.ell_labels((phi_bar, phi_bar, vol_bar))
        scale = Fraction(2 * data.d, data.weights.total - data.d)
        expected = CohClass.single(phi_bar, scale)
        _record(checks, "ternary_bracket_closed_form_on_potential_volume",
                value == expected, value=str(value),
                detail=f"expected {expected}")

    return _finish("transfer", checks)


# -- deform suite --------------------------------------------------------------


def _family_verdicts(data: SingularityData, state: TransferState,
                     fam: CoeffFamily, m: int, anchored: bool) -> tuple:
    """(Poisson, Maurer-Cartan image, first-order class, per-lower-order
    prefix) verdicts for one family, Poisson only if its anchor is
    (``anchored``) and its Jacobi residual vanishes; its series is dropped
    on return."""
    series = build_deformation(data, fam, m)
    poisson = jacobi_residual(series).is_zero() and anchored
    gamma = gamma_classes(fam, data, m)
    route = mc_image(state, gamma, m) == series
    first = first_order_class(series, data) == gamma.coefficient(1)
    prefixes = tuple(
        all(build_deformation(data, fam, lower).coefficient(n)
            == series.coefficient(n) for n in range(1, lower + 1))
        for lower in range(1, m))
    return poisson, route, first, prefixes


def run_deform_suite(data: SingularityData, config: SuiteConfig,
                     state: TransferState) -> dict:
    """Random truncated deformations: Poisson property and consistency."""
    checks: list = []
    rng = random.Random(config.seed)
    m = config.order

    labels = enumerate_basis(data, 1, config.cocycle_cap(data))
    families = [random_family(rng, labels, order=m) for _ in range(N_FAMILIES)]
    pi = poisson_from_potential(data.phi)   # the anchor of every series
    anchored = schouten(pi, pi).is_zero()
    verdicts = [_family_verdicts(data, state, fam, m, anchored)
                for fam in families]
    indices = range(len(families))
    for j, name in enumerate(("random_families_are_poisson_to_order",
                              "deformation_equals_maurer_cartan_image",
                              "first_order_class_recovered")):
        _sweep(checks, name, indices, lambda idx: verdicts[idx][j])
    _sweep(checks, "lower_order_builds_are_prefixes",
           [(idx, lower) for idx in indices for lower in range(1, m)],
           lambda case: verdicts[case[0]][3][case[1] - 1])

    if m >= 2 and data.mu >= 2:
        # Unit coefficients on one Hamiltonian-type and one exact label
        # must produce the closed-form cross term at order 2; index 1 is
        # valid for both once mu >= 2.
        q = r = 1
        fam = CoeffFamily.make({(1, 0, q): 1}, {(1, r): 1})
        series = build_deformation(data, fam, m)
        u = data.basis_polys
        cross = poisson_from_potential(u[r]).mul_poly(u[q])
        ok = (series.coefficient(2) == cross
              and jacobi_residual(series).is_zero())
        _record(checks, "unit_family_order2_cross_term", ok,
                value=str(series.coefficient(2)),
                detail=f"expected {cross}")

    return _finish("deform", checks)


# -- gauge suite ---------------------------------------------------------------


def run_gauge_suite(data: SingularityData, config: SuiteConfig,
                    state: TransferState) -> dict:
    """Gauge invariance of the Poisson property and the first-order class."""
    checks: list = []
    rng = random.Random(config.seed)
    m = config.order

    fam = random_family(rng, enumerate_basis(data, 1, config.cocycle_cap(data)),
                        order=m)
    base = build_deformation(data, fam, m)
    base_class = first_order_class(base, data)

    def gauge_verdicts() -> tuple[bool, bool]:
        gauged = gauge_apply(base, random_gauge_series(rng, m))
        return (jacobi_residual(gauged).is_zero(),
                first_order_class(gauged, data) == base_class)

    verdicts = [gauge_verdicts() for _ in range(N_GAUGES)]
    indices = range(len(verdicts))
    _sweep(checks, "gauged_series_stay_poisson", indices,
           lambda idx: verdicts[idx][0])
    _sweep(checks, "gauged_series_keep_first_order_class", indices,
           lambda idx: verdicts[idx][1])

    if data.special:
        gamma = gamma_classes(fam, data, m)
        euler = [BasisLabel("Eul", (i,)) for i in (0, 1)
                 if i * data.d <= config.pair_cap(data)]

        def class_gauge_verdicts() -> tuple[bool, bool]:
            coeffs = [CohClass.make(0, {lab: random_fraction(rng)
                                        for lab in euler})
                      for _ in range(m)]
            xi = NuSeries(order_cap=m, coeffs=tuple(coeffs))
            gauged_gamma = gauge_special(state, gamma, xi)
            image = mc_image(state, gauged_gamma, m)
            return (jacobi_residual(image).is_zero(),
                    gauged_gamma.coefficient(1) == gamma.coefficient(1))

        verdicts = [class_gauge_verdicts()
                    for _ in range(max(2, N_GAUGES // 2))]
        indices = range(len(verdicts))
        _sweep(checks, "class_level_gauge_preserves_maurer_cartan", indices,
               lambda idx: verdicts[idx][0])
        _sweep(checks, "class_level_gauge_fixes_first_order", indices,
               lambda idx: verdicts[idx][1])

    return _finish("gauge", checks)


# -- registry ------------------------------------------------------------------

_RUNNERS = {
    "schouten": run_schouten_suite,
    "tables": run_tables_suite,
    "transfer": run_transfer_suite,
    "deform": run_deform_suite,
    "gauge": run_gauge_suite,
}

SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, data: SingularityData, config: SuiteConfig,
              state: Optional[TransferState] = None) -> dict:
    """Run one suite by name; unknown names raise ValueError.

    Without a ``state``, the suite gets a fresh transfer state of its own.
    """
    runner = _RUNNERS.get(name)
    if runner is None:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    if state is None:
        state = TransferState(data=data, arity_cap=config.arity_cap)
    return runner(data, config, state)


def run_suites(names: Sequence[str], data: SingularityData,
               config: SuiteConfig) -> list[dict]:
    """Run several suites in the given order, sharing one transfer state."""
    state = TransferState(data=data, arity_cap=config.arity_cap)
    return [run_suite(name, data, config, state) for name in names]
