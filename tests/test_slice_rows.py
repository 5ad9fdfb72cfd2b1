"""Slice rows written from the closed forms, against the generic path.

Every coboundary and Jacobian row of a weight slice is written straight
from exponents by :func:`poisdef.multivec.image_rows`; here each row is
checked against ``WeightSlice.vector`` of the generic field it stands for,
and whole solvers against solvers built row by row from those fields.
"""

from __future__ import annotations

import itertools

import pytest

from poisdef import (
    MultiVec,
    Poly,
    SuiteConfig,
    TransferState,
    WeightSystem,
    coboundary,
    enumerate_basis,
    label_weight,
    labels_of_weight,
    milnor_basis,
    parse_poly,
    poisson_from_potential,
    realize,
)
from poisdef import linfty, multivec
from poisdef.cohomology import _slice_solver
from poisdef.multivec import SLOTS, WeightSlice, image_rows, slice_basis
from poisdef.singularity import jacobian_slice_reduction
from poisdef.suites import all_basis_labels, run_tables_suite

# The reference potentials, one whose partials have denominators, and one
# with skewed weights.
POTENTIALS = {
    "quadric": ("x^2 + y^2 + z^2", (1, 1, 1)),
    "cubic": ("x^3 + y^3 + z^3", (1, 1, 1)),
    "brieskorn": ("x^2 + y^3 + z^5", (15, 10, 6)),
    "fractional": ("1/2*x^2 + y^3 + 1/3*z^5", (15, 10, 6)),
    "skewed": ("x^20 + y^2 + z^2", (1, 10, 10)),
}


@pytest.fixture(scope="module", params=sorted(POTENTIALS))
def data(request):
    phi, weights = POTENTIALS[request.param]
    return milnor_basis(parse_poly(phi), WeightSystem(weights))


def _weights(data):
    """Every slice weight from below the lowest nonempty one to 3d."""
    return range(-data.weights.total - data.d, 3 * data.d + 1)


def _field(degree: int, slot: int, comp: Poly) -> MultiVec:
    comps = [Poly.zero()] * len(SLOTS[degree])
    comps[slot] = comp
    return MultiVec(degree, tuple(comps))


def _typed(row: dict) -> dict:
    """The row with each value's type, so 3 and Fraction(3) differ."""
    return {i: (type(v), v) for i, v in row.items()}


def _generic_labels(data, g, weight):
    """Labels of one weight as the whole-basis filter lists them."""
    return [lab for lab in enumerate_basis(data, g, weight)
            if label_weight(lab, data) == weight]


def test_coboundary_rows_match_the_generic_coboundary(data):
    delta = data.d - data.weights.total
    for degree in (1, 2, 3):
        for weight in _weights(data):
            target = WeightSlice(data.weights, degree, weight)
            rows = list(image_rows(data.phi, degree - 1, weight - delta,
                                   target))
            assert [tag for tag, _ in rows] == slice_basis(
                data.weights, degree - 1, weight - delta)
            for (slot, m), row in rows:
                image = coboundary(_field(degree - 1, slot, Poly.monomial(m)),
                                   data.phi)
                assert _typed(row) == _typed(target.vector(image)), \
                    (degree, weight, slot, m)


def test_jacobian_rows_match_the_generic_product(data):
    for weight in _weights(data):
        target = WeightSlice(data.weights, 0, weight)
        rows = list(image_rows(data.phi, 1, weight - data.d, target))
        assert [tag for tag, _ in rows] == slice_basis(
            data.weights, 1, weight - data.d)
        for (slot, m), row in rows:
            image = MultiVec.function(Poly.monomial(m) * data.phi.diff(slot))
            assert _typed(row) == _typed(target.vector(image)), \
                (weight, slot, m)


def _state(solver: WeightSlice) -> tuple:
    return solver.pivots, solver._rows


def test_slice_solver_holds_the_generic_rows(data):
    """Same stored rows (tags included) and pivots as a solver fed the
    generic coboundaries and the class representatives one by one."""
    delta = data.d - data.weights.total
    for degree in (0, 1, 2, 3):
        for weight in _weights(data):
            generic = WeightSlice(data.weights, degree, weight)
            for slot, m in slice_basis(data.weights, degree - 1,
                                       weight - delta):
                generic.add(generic.vector(coboundary(
                    _field(degree - 1, slot, Poly.monomial(m)), data.phi)),
                    (slot, m))
            for label in _generic_labels(data, degree - 1, weight):
                generic.add(generic.vector(realize(label, data)), label)
            built = _slice_solver(data, degree, weight)
            assert built.basis == generic.basis
            assert _state(built) == _state(generic), (degree, weight)


def test_jacobian_reduction_holds_the_generic_rows(data):
    for weight in _weights(data):
        generic = WeightSlice(data.weights, 0, weight)
        for slot, m in slice_basis(data.weights, 1, weight - data.d):
            generic.add(generic.vector(MultiVec.function(
                Poly.monomial(m) * data.phi.diff(slot))), (slot, m))
        built = jacobian_slice_reduction(data.phi, data.weights, weight)
        assert _state(built) == _state(generic), weight


def test_labels_of_weight_match_the_basis_filter(data):
    for g in (-1, 0, 1, 2):
        for weight in _weights(data):
            assert labels_of_weight(data, g, weight) == \
                _generic_labels(data, g, weight), (g, weight)


def test_no_row_rule_between_other_degrees(quadric):
    target = WeightSlice(quadric.weights, 2, 2)
    with pytest.raises(ValueError):
        list(image_rows(quadric.phi, 0, 2, target))


def test_tables_suite_brackets_each_pair_once(brieskorn, monkeypatch):
    """E_2 and ell_2 on a pair share the one bracket of T_2."""
    brackets = []
    original = multivec.schouten_sum
    pi = poisson_from_potential(brieskorn.phi)

    def counting(terms, divisor=1):
        # coboundaries are brackets with pi_phi first; count the others
        brackets.extend(term for term in terms if term[1] != pi)
        return original(terms, divisor)

    # schouten_sum is every bracket: schouten and coboundary call it too
    monkeypatch.setattr(multivec, "schouten_sum", counting)
    monkeypatch.setattr(linfty, "schouten_sum", counting)
    config = SuiteConfig()
    report = run_tables_suite(brieskorn, config,
                              TransferState(data=brieskorn))
    assert report["status"] == "pass"
    pairs = list(itertools.combinations_with_replacement(
        all_basis_labels(brieskorn, config.pair_cap(brieskorn)), 2))
    assert 0 < len(brackets) <= len(pairs)
