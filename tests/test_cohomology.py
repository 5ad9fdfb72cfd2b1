"""Cohomology bases, projection, and coboundary solving."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from poisdef import (
    BasisLabel,
    CohClass,
    CohomologyError,
    MultiVec,
    Poly,
    NotACoboundaryError,
    NotACocycleError,
    a_index_range,
    coboundary,
    coordinate_volume,
    enumerate_basis,
    euler_field,
    f1,
    label_weight,
    labels_of_weight,
    milnor_basis,
    parse_label,
    parse_poly,
    poisson_from_potential,
    project,
    realize,
    solve_coboundary,
    validate_label,
    WeightSystem,
)
from poisdef.cohomology import decompose
from poisdef.multivec import WeightSlice, multivec_weight_parts

# -- labels ----------------------------------------------------------------------


def test_label_construction_and_str():
    assert str(BasisLabel("Cas", (2,))) == "Cas(2)"
    assert str(BasisLabel("A", (0, 3))) == "A(0,3)"
    assert BasisLabel("Top", (1, 2)).g_degree == 2
    assert BasisLabel("Cas", (0,)).g_degree == -1
    assert BasisLabel("Eul", (1,)).g_degree == 0
    assert BasisLabel("B", (4,)).g_degree == 1


def test_label_validation_rejects_malformed():
    with pytest.raises(ValueError):
        BasisLabel("Cas", (0, 1))  # wrong arity
    with pytest.raises(ValueError):
        BasisLabel("A", (0,))  # wrong arity
    with pytest.raises(ValueError):
        BasisLabel("Nope", (0,))  # unknown kind
    with pytest.raises(ValueError):
        BasisLabel("Cas", (-1,))  # negative index
    # a bool is an int to isinstance: A(True,1) would equal and hash as
    # A(1,1) but print as A(True,1)
    for kind, indices in [("A", (True, 1)), ("A", (0, True)), ("B", (False,))]:
        with pytest.raises(ValueError, match="indices must be nonnegative"):
            BasisLabel(kind, indices)


def test_parse_label_round_trip():
    for text in ["Cas(0)", "Eul(2)", "A(1,3)", "B(5)", "Top(0,7)"]:
        assert str(parse_label(text)) == text
    with pytest.raises(ValueError):
        parse_label("A(1)")
    with pytest.raises(ValueError):
        parse_label("Q(1,2)")


@pytest.mark.parametrize("text", ["Cas(٣)", "A(١, 2)"])
def test_parse_label_refuses_non_ascii_digits(text):
    with pytest.raises(ValueError):
        parse_label(text)


def test_validate_label_against_data(brieskorn, cubic):
    # generic: A-range starts at 1; special: starts at 0
    assert list(a_index_range(brieskorn)) == [1, 2, 3, 4, 5, 6, 7]
    assert list(a_index_range(cubic)) == [0, 1, 2, 3, 4, 5, 6, 7]
    validate_label(parse_label("A(0,1)"), brieskorn)
    with pytest.raises(CohomologyError):
        validate_label(parse_label("A(0,0)"), brieskorn)  # u_0 excluded
    validate_label(parse_label("A(0,0)"), cubic)
    with pytest.raises(CohomologyError):
        validate_label(parse_label("B(0)"), brieskorn)  # B starts at 1
    with pytest.raises(CohomologyError):
        validate_label(parse_label("Top(0,8)"), brieskorn)  # u-index < mu
    with pytest.raises(CohomologyError):
        validate_label(parse_label("Eul(0)"), brieskorn)  # generic: no Eul
    validate_label(parse_label("Eul(3)"), cubic)
    # a phi multiple is a class exactly when its generator is one
    for text in ("A(3,0)", "Eul(2)", "Top(1,8)"):
        with pytest.raises(CohomologyError, match="not a basis class"):
            validate_label(parse_label(text), brieskorn)
        with pytest.raises(CohomologyError):
            realize(parse_label(text), brieskorn)
        assert parse_label(text) not in brieskorn._realized
    validate_label(parse_label("A(3,0)"), cubic)
    validate_label(parse_label("Top(5,7)"), brieskorn)


def test_label_weights(brieskorn, cubic):
    # weights of u: 1, z, y, z^2, y z, z^3, y z^2, y z^3
    assert label_weight(parse_label("Cas(0)"), brieskorn) == 0
    assert label_weight(parse_label("Cas(2)"), brieskorn) == 60
    assert label_weight(parse_label("A(0,1)"), brieskorn) == 6 - 1
    assert label_weight(parse_label("A(1,2)"), brieskorn) == 30 + 10 - 1
    assert label_weight(parse_label("B(1)"), brieskorn) == 6 - 31
    assert label_weight(parse_label("Top(0,0)"), brieskorn) == -31
    assert label_weight(parse_label("Top(1,3)"), brieskorn) == 30 + 12 - 31
    assert label_weight(parse_label("Eul(1)"), cubic) == 3


def test_label_weight_builds_no_label(brieskorn, cubic, monkeypatch):
    """label_weight reads the phi power and the Milnor index off the label,
    so sorting a basis on it builds no throwaway generator label."""
    cases = [(lab, data) for data in (brieskorn, cubic) for g in (-1, 0, 1, 2)
             for lab in enumerate_basis(data, g, 3 * data.d)]
    built = []
    original = BasisLabel.__post_init__

    def counting_post_init(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(BasisLabel, "__post_init__", counting_post_init)
    weights = [label_weight(lab, data) for lab, data in cases]
    assert len(weights) == len(cases) > 100
    assert built == []


def test_enumerate_basis_ordering(brieskorn):
    labels = enumerate_basis(brieskorn, 1, 2 * brieskorn.d)
    weights = [label_weight(lab, brieskorn) for lab in labels]
    assert weights == sorted(weights)
    assert len(labels) == 21  # 7 B + 7 A(0,*) + 7 A(1,*) under cap 60
    assert all(lab.g_degree == 1 for lab in labels)


def test_enumerate_basis_degree0(brieskorn, cubic):
    assert enumerate_basis(brieskorn, 0, 3 * brieskorn.d) == []
    eul = enumerate_basis(cubic, 0, 3 * cubic.d)
    assert [str(lab) for lab in eul] == ["Eul(0)", "Eul(1)", "Eul(2)",
                                         "Eul(3)"]


# -- realization (explicit representatives) ---------------------------------------


def test_realize_known_forms(brieskorn):
    phi = brieskorn.phi
    pi = poisson_from_potential(phi)
    u1 = brieskorn.basis_polys[1]  # z
    assert realize(parse_label("Cas(1)"), brieskorn) == MultiVec.function(phi)
    assert realize(parse_label("A(0,1)"), brieskorn) == pi.mul_poly(u1)
    assert realize(parse_label("B(1)"), brieskorn) == \
        poisson_from_potential(u1)
    assert realize(parse_label("Top(0,0)"), brieskorn) == coordinate_volume()
    assert realize(parse_label("Top(1,1)"), brieskorn) == \
        coordinate_volume().mul_poly(phi * u1)


def test_realize_euler(cubic):
    assert realize(parse_label("Eul(0)"), cubic) == \
        euler_field(cubic.weights)


@pytest.mark.parametrize("name, kinds_present", [
    ("quadric", {"Cas", "Top"}),  # mu = 1: no A (u_0 excluded) and no B
    ("brieskorn", {"Cas", "A", "B", "Top"}),
    ("cubic", {"Cas", "Eul", "A", "B", "Top"}),
])
def test_realize_matches_the_closed_forms(request, name, kinds_present):
    """Every label up to weight 3d is realized as the closed form of its
    kind, and that representative has the single weight label_weight."""
    data = request.getfixturevalue(name)
    phi, u = data.phi, data.basis_polys
    kinds = set()
    for g in (-1, 0, 1, 2):
        for lab in enumerate_basis(data, g, 3 * data.d):
            kinds.add(lab.kind)
            if lab.kind == "B":
                expected = poisson_from_potential(u[lab.indices[0]])
            elif lab.kind == "Cas":
                expected = MultiVec.function(phi ** lab.indices[0])
            elif lab.kind == "Eul":
                expected = euler_field(data.weights).mul_poly(
                    phi ** lab.indices[0])
            else:
                i, q = lab.indices
                form = (poisson_from_potential(phi) if lab.kind == "A"
                        else coordinate_volume())
                expected = form.mul_poly(phi ** i * u[q])
            rep = realize(lab, data)
            assert rep == expected, lab
            assert set(multivec_weight_parts(rep, data.weights)) == \
                {label_weight(lab, data)}, lab
    assert kinds == kinds_present


def test_all_representatives_are_cocycles(brieskorn, cubic, quadric):
    for data in (brieskorn, cubic, quadric):
        for g in (-1, 0, 1, 2):
            for lab in enumerate_basis(data, g, 2 * data.d):
                image = coboundary(realize(lab, data), data.phi)
                assert image.is_zero(), f"{lab} not a cocycle"


# -- projection -------------------------------------------------------------------


def test_project_after_realize_is_identity(brieskorn, cubic, quadric):
    for data in (brieskorn, cubic, quadric):
        for g in (-1, 0, 1, 2):
            for lab in enumerate_basis(data, g, 2 * data.d):
                cls = project(realize(lab, data), data)
                assert cls == CohClass.single(lab), f"projection moved {lab}"


def test_project_kills_coboundaries(brieskorn):
    e = euler_field(brieskorn.weights)
    image = coboundary(e, brieskorn.phi)  # = (|w| - d) pi, exact
    assert project(image, brieskorn).is_zero()
    pi = poisson_from_potential(brieskorn.phi)
    assert project(pi, brieskorn).is_zero()  # pi itself is exact (generic)


def test_project_detects_non_cocycles(brieskorn):
    v = MultiVec.vector(Poly.variable(0), Poly.zero(), Poly.zero())
    assert not coboundary(v, brieskorn.phi).is_zero()
    with pytest.raises(NotACocycleError):
        project(v, brieskorn)


def test_project_linear_combination(brieskorn):
    a = realize(parse_label("A(0,1)"), brieskorn)
    b = realize(parse_label("B(2)"), brieskorn)
    combo = a * Fraction(3, 2) + b * Fraction(-5)
    cls = project(combo, brieskorn)
    assert cls.coefficient(parse_label("A(0,1)")) == Fraction(3, 2)
    assert cls.coefficient(parse_label("B(2)")) == Fraction(-5)
    assert len(cls.coeffs) == 2


def test_special_structure_bivector_is_basis_class(cubic):
    pi = poisson_from_potential(cubic.phi)
    cls = project(pi, cubic)
    assert cls == CohClass.single(parse_label("A(0,0)"))


def test_special_euler_projects_to_label(cubic):
    cls = project(euler_field(cubic.weights), cubic)
    assert cls == CohClass.single(parse_label("Eul(0)"))


# -- coboundary solving -----------------------------------------------------------


def test_solve_coboundary_round_trip(brieskorn):
    e = euler_field(brieskorn.weights)
    target = coboundary(e, brieskorn.phi)
    preimage = solve_coboundary(target, brieskorn)
    assert coboundary(preimage, brieskorn.phi) == target


def test_solve_coboundary_rejects_nonexact(brieskorn):
    vol = coordinate_volume()  # realizes Top(0,0), a nonzero class
    with pytest.raises(NotACoboundaryError):
        solve_coboundary(vol, brieskorn)


def test_solve_coboundary_canonical(brieskorn):
    # deterministic: the same target always yields the same preimage
    pi = poisson_from_potential(brieskorn.phi)
    first = solve_coboundary(pi, brieskorn)
    second = solve_coboundary(pi, brieskorn)
    assert first == second
    assert coboundary(first, brieskorn.phi) == pi


def test_solve_coboundary_rejects_class_in_same_slice(brieskorn):
    # a coboundary plus z * pi, both of weight 5: the slice solve
    # succeeds only by using the A(0,1) class column
    field = euler_field(brieskorn.weights).mul_poly(parse_poly("z"))
    target = coboundary(field, brieskorn.phi) + realize(parse_label("A(0,1)"),
                                                        brieskorn)
    with pytest.raises(NotACoboundaryError):
        solve_coboundary(target, brieskorn)


def test_solve_coboundary_rejects_non_cocycle(brieskorn):
    # [pi, d/dx] != 0, so d/dx is not closed and no coboundary
    v = MultiVec.vector(Poly.variable(0), Poly.zero(), Poly.zero())
    assert not coboundary(v, brieskorn.phi).is_zero()
    with pytest.raises(NotACoboundaryError, match="not closed"):
        solve_coboundary(v, brieskorn)


def test_decompose_splits_class_and_coboundary(brieskorn):
    """decompose(f_1(c) + [pi, y]) returns c and a y' with [pi, y'] = [pi, y]."""
    rng = random.Random(23)
    monomials = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    for degree in (1, 2, 3):
        labels = enumerate_basis(brieskorn, degree - 1, 2 * brieskorn.d)
        for _ in range(4):
            c = CohClass.make(degree - 1, {
                lab: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for lab in rng.sample(labels, min(3, len(labels)))})
            y = MultiVec(degree - 1, tuple(
                Poly({m: rng.randint(-3, 3) for m in rng.sample(monomials, 3)})
                for _ in MultiVec.zero(degree - 1).comps))
            image = coboundary(y, brieskorn.phi)
            found, y_found = decompose(f1(c, brieskorn) + image, brieskorn)
            assert found == c
            assert coboundary(y_found, brieskorn.phi) == image
            assert project(f1(c, brieskorn) + image, brieskorn) == c
    with pytest.raises(NotACocycleError):
        decompose(MultiVec.vector(Poly.variable(0), Poly.zero(), Poly.zero()),
                  brieskorn)


def test_decompose_solves_each_weight_slice_once(brieskorn, monkeypatch):
    p = (realize(parse_label("A(0,1)"), brieskorn)
         + coboundary(euler_field(brieskorn.weights).mul_poly(parse_poly("z")),
                      brieskorn.phi)
         + realize(parse_label("B(3)"), brieskorn))
    solved = []
    original = WeightSlice.solve

    def counting_solve(self, mv):
        solved.append(id(self))
        return original(self, mv)

    monkeypatch.setattr(WeightSlice, "solve", counting_solve)
    cls, _ = decompose(p, brieskorn)
    assert cls == CohClass.make(1, {parse_label("A(0,1)"): 1,
                                    parse_label("B(3)"): 1})
    assert len(solved) == len(set(solved)) == len(
        multivec_weight_parts(p, brieskorn.weights)) > 1


def test_warm_decompose_brackets_only_after_a_failed_solve(brieskorn,
                                                         monkeypatch):
    """The slice solves certify that a field is closed: with its slices
    built, decompose of a closed field brackets nothing, and a field that
    is not closed is bracketed once, after its solve fails."""
    import poisdef.cohomology as cohomology
    closed = (realize(parse_label("A(0,1)"), brieskorn)
              + coboundary(euler_field(brieskorn.weights).mul_poly(
                  parse_poly("z")), brieskorn.phi))
    not_closed = MultiVec.vector(Poly.variable(0), Poly.zero(), Poly.zero())
    expected = decompose(closed, brieskorn)
    with pytest.raises(NotACocycleError):
        decompose(not_closed, brieskorn)
    brackets = []
    original = cohomology.coboundary

    def counting_coboundary(p, phi):
        brackets.append(p.degree)
        return original(p, phi)

    monkeypatch.setattr(cohomology, "coboundary", counting_coboundary)
    assert decompose(closed, brieskorn) == expected
    assert brackets == []
    with pytest.raises(NotACocycleError, match="not closed"):
        decompose(not_closed, brieskorn)
    assert brackets == [1]


@pytest.mark.parametrize("label, field", [
    ("Cas(0)", "x"),       # a non-cocycle of another weight
    ("Cas(1)", "x^2"),     # a non-cocycle of the class's own weight
])
def test_representative_that_is_not_a_cocycle_is_rejected(
        monkeypatch, label, field):
    """Building a slice checks every class representative closed, so a
    solve that succeeds certifies closedness."""
    import poisdef.cohomology as cohomology
    data = milnor_basis(parse_poly("x^2 + y^2 + z^2"), WeightSystem((1, 1, 1)))
    target, original = parse_label(label), cohomology.realize
    monkeypatch.setattr(
        cohomology, "realize",
        lambda lab, data: (MultiVec.function(parse_poly(field))
                           if lab == target else original(lab, data)))
    with pytest.raises(CohomologyError,
                       match=re.escape(f"basis class {label} is not closed")):
        project(realize(target, data), data)


def test_class_that_is_a_coboundary_is_rejected(monkeypatch):
    import poisdef.cohomology as cohomology
    data = milnor_basis(parse_poly("x^2 + y^2 + z^2"), WeightSystem((1, 1, 1)))
    monkeypatch.setattr(cohomology, "realize",
                        lambda label, data: MultiVec.zero(label.g_degree + 1))
    with pytest.raises(CohomologyError, match=(
            r"basis class Top\(0,0\) is dependent on the coboundaries and "
            r"the other classes of weight -3")):
        project(coordinate_volume(), data)


def test_closed_slice_outside_the_basis_is_rejected(monkeypatch):
    """With the Top generators dropped, the volume form's closed slice
    lies outside the span of the classes and coboundaries."""
    import poisdef.cohomology as cohomology
    data = milnor_basis(parse_poly("x^2 + y^2 + z^2"), WeightSystem((1, 1, 1)))
    generators = cohomology._generators
    monkeypatch.setattr(cohomology, "_generators",
                        lambda data, g: [] if g == 2 else generators(data, g))
    with pytest.raises(CohomologyError, match="outside span"):
        decompose(coordinate_volume(), data)


# -- classes and f1 ---------------------------------------------------------------


def test_class_arithmetic():
    a = CohClass.single(parse_label("A(0,1)"), 2)
    b = CohClass.single(parse_label("B(1)"), Fraction(1, 3))
    combo = a + b
    assert combo.coefficient(parse_label("A(0,1)")) == 2
    assert (combo - combo).is_zero()
    assert (combo * Fraction(3)).coefficient(parse_label("B(1)")) == 1
    assert combo * 1 is combo
    assert combo * -1 == -combo == CohClass.make(
        1, {parse_label("B(1)"): Fraction(-1, 3), parse_label("A(0,1)"): -2})
    assert str(CohClass.zero(1)) == "0"
    assert "A(0,1)" in str(combo)


@pytest.mark.parametrize("coeffs,expected", [
    ({}, "0"),
    ({"A(0,1)": 2, "B(1)": Fraction(-1, 2), "B(2)": -1},
     "2*A(0,1) - 1/2*B(1) - B(2)"),
    ({"B(2)": -1, "A(0,1)": Fraction(3, 2)}, "3/2*A(0,1) - B(2)"),
    ({"B(1)": Fraction(-2, 3)}, "-2/3*B(1)"),
    ({"B(3)": 1, "B(1)": -1}, "-B(1) + B(3)"),
])
def test_class_str_exact_strings(coeffs, expected):
    """str() of a class is signed_sum_str over (label, coefficient) in
    label order, the text CLI reports and the benchmark oracle read."""
    cls = CohClass.make(1, {parse_label(t): v for t, v in coeffs.items()})
    assert str(cls) == f"{cls}" == expected


def test_class_refuses_inexact_coefficients():
    label = parse_label("B(1)")
    with pytest.raises(TypeError):
        CohClass.single(label, 0.1)
    with pytest.raises(TypeError):
        CohClass.make(1, {label: "1/2"})
    for scalar in (0.5, 1.0, -1.0):
        with pytest.raises(TypeError):
            CohClass.single(label) * scalar
    doubled = CohClass.single(label, Fraction(1, 2)) * Fraction(2)
    assert doubled.coeffs == ((label, 1),)
    assert type(doubled.coeffs[0][1]) is int
    assert type(doubled.coefficient(label)) is Fraction
    assert str(doubled) == "B(1)"


def test_class_degree_mismatch_rejected():
    a = CohClass.single(parse_label("A(0,1)"))
    c = CohClass.single(parse_label("Cas(0)"))
    with pytest.raises(ValueError):
        a + c
    with pytest.raises(ValueError, match="has degree -1"):
        CohClass.make(1, {parse_label("Cas(0)"): 1})


def test_f1_realizes_linear_combinations(brieskorn):
    cls = (CohClass.single(parse_label("A(0,1)"), Fraction(1, 2))
           + CohClass.single(parse_label("B(1)"), -3))
    value = f1(cls, brieskorn)
    expected = (realize(parse_label("A(0,1)"), brieskorn) * Fraction(1, 2)
                + realize(parse_label("B(1)"), brieskorn) * Fraction(-3))
    assert value == expected


def test_labels_of_weight_exact(brieskorn):
    for g in (-1, 0, 1, 2):
        for weight in range(-brieskorn.weights.total, 2 * brieskorn.d + 1):
            for lab in labels_of_weight(brieskorn, g, weight):
                assert label_weight(lab, brieskorn) == weight
                assert lab.g_degree == g


def _scan_labels_of_weight(data, g, weight):
    """Oracle: every label of degree g and this weight, found by inverting
    each kind's weight formula (the enumeration before forward generation)."""
    d = data.d
    total = data.weights.total
    out = []
    if g == -1:
        if weight >= 0 and weight % d == 0:
            out.append(BasisLabel("Cas", (weight // d,)))
    elif g == 0:
        if data.special and weight >= 0 and weight % d == 0:
            out.append(BasisLabel("Eul", (weight // d,)))
    elif g == 1:
        for q in a_index_range(data):
            num = weight - (d - total) - data.basis_weight(q)
            if num >= 0 and num % d == 0:
                out.append(BasisLabel("A", (num // d, q)))
        for r in range(1, data.mu):
            if data.basis_weight(r) - total == weight:
                out.append(BasisLabel("B", (r,)))
    elif g == 2:
        for s in range(data.mu):
            num = weight + total - data.basis_weight(s)
            if num >= 0 and num % d == 0:
                out.append(BasisLabel("Top", (num // d, s)))
    return sorted(out, key=BasisLabel.sort_key)


_ENUMERATION_POTENTIALS = {
    "balanced": ("x^2 + y^4 + z^4", (2, 1, 1)),
    "skewed": ("x*z + y^7", (1, 1, 6)),
}


@pytest.mark.parametrize("name", ["quadric", "cubic", "brieskorn",
                                  *_ENUMERATION_POTENTIALS])
def test_forward_enumeration_matches_weight_scan(request, name):
    if name in _ENUMERATION_POTENTIALS:
        phi, weights = _ENUMERATION_POTENTIALS[name]
        data = milnor_basis(parse_poly(phi), WeightSystem(weights))
    else:
        data = request.getfixturevalue(name)
    total = data.weights.total
    for cap in (-total, 0, data.d - 1, 2 * data.d, 3 * data.d + 1):
        for g in (-1, 0, 1, 2):
            scanned = [lab for weight in range(-total, cap + 1)
                       for lab in _scan_labels_of_weight(data, g, weight)]
            assert enumerate_basis(data, g, cap) == scanned
            assert labels_of_weight(data, g, cap) == \
                _scan_labels_of_weight(data, g, cap)
