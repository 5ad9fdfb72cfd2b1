"""Poisson cohomology bases and projections for exact structures.

Let pi be the exact Poisson bivector of a weight-homogeneous potential phi
with isolated singularity, with Milnor basis u_0 = 1, u_1, ..., u_{mu-1}.
The cochain complex is multivector fields with differential [pi, .], and
its cohomology has an explicit basis depending on whether the potential's
weighted degree d equals the sum of the variable weights |w| (the
"balanced" case, ``data.special``) or not:

================  =========================================  ==============
cochain degree     basis classes                              label
================  =========================================  ==============
0  (functions)    phi^i                                       Cas(i)
1  (vectors)      phi^i * (weighted Euler field),             Eul(i)
                  balanced case only
2  (bivectors)    phi^i * u_q * pi,  q in E(phi)              A(i, q)
                  exact bivector of u_r,  1 <= r <= mu-1      B(r)
3  (trivectors)   phi^i * u_s * dx^dy^dz,  0 <= s <= mu-1     Top(i, s)
================  =========================================  ==============

where E(phi) = {1, ..., mu-1} in the unbalanced case (u_0 * pi is then a
coboundary) and {0, ..., mu-1} in the balanced case.  All label indices
``i`` range over nonnegative integers, so each cohomology space is a free
module over the Casimir ring Q[phi].

Classes are indexed by homological degree g = cochain degree - 1 (so
bivector classes sit in degree g = 1), matching the grading of the graded
Lie algebra used by the transfer machinery.

:func:`realize` builds each generator's representative from the table
once per potential and each other class as phi^i times its generator's,
keeping all of them on the ``SingularityData``, next to the slice solvers.

Projections and coboundary solves run through :func:`decompose`, which
splits a closed multivector as p = f_1(c) + [pi, y]; :func:`project` (c)
and :func:`solve_coboundary` (y) are its two views.  It solves one weight
slice at a time: for fixed (cochain degree, weight) the slice of
multivector fields is finite-dimensional, and one
:class:`poisdef.multivec.WeightSlice`, the eliminator of [coboundary
images | class representatives] over the slice's basis positions, is
cached per slice and reused for every solve against it.  Its coboundary
rows come from :func:`poisdef.multivec.image_rows` (test oracle:
:func:`poisdef.multivec.coboundary`) and its class representatives, read
off the generators by :func:`labels_of_weight`, are checked independent
cocycles (CohomologyError otherwise), so every row is closed and a solve
that succeeds certifies that the solved multivector is closed.

Errors form one chain: CohomologyError, then NotACoboundaryError (a
nonzero class, no coboundary), then NotACocycleError (not closed, so no
coboundary either); :func:`solve_coboundary` raises the last two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Exponents, Poly, ScalarLike, exact_scalar, signed_sum_str
from .multivec import (
    SLOTS,
    MultiVec,
    WeightSlice,
    coboundary,
    coordinate_volume,
    euler_field,
    image_rows,
    multivec_weight_parts,
    poisson_from_potential,
)
from .singularity import SingularityData


class CohomologyError(ValueError):
    """Base class for cohomology-level failures."""


class NotACoboundaryError(CohomologyError):
    """The multivector is not in the image of the Poisson differential."""


class NotACocycleError(NotACoboundaryError):
    """The multivector is not closed under the Poisson differential, so it
    is no coboundary either."""


KINDS = ("Cas", "Eul", "A", "B", "Top")
_KIND_RANK = {kind: i for i, kind in enumerate(KINDS)}
_KIND_DEGREE = {"Cas": -1, "Eul": 0, "A": 1, "B": 1, "Top": 2}
_KIND_ARITY = {"Cas": 1, "Eul": 1, "A": 2, "B": 1, "Top": 2}

_LABEL_RE = re.compile(r"^\s*(Cas|Eul|A|B|Top)\s*\(\s*([0-9]+)\s*(?:,\s*([0-9]+)\s*)?\)\s*$")


@dataclass(frozen=True)
class BasisLabel:
    """Symbolic name of one cohomology basis class, e.g. A(0, 3)."""

    kind: str
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown label kind {self.kind!r}")
        if len(self.indices) != _KIND_ARITY[self.kind]:
            raise ValueError(
                f"label kind {self.kind} takes {_KIND_ARITY[self.kind]} "
                f"index(es), got {self.indices}"
            )
        if any((not isinstance(i, int)) or i < 0 for i in self.indices):
            raise ValueError(f"label indices must be nonnegative, got {self.indices}")
        # label tuples key the transfer memos: hash each label once
        object.__setattr__(self, "_hash", hash((self.kind, self.indices)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def g_degree(self) -> int:
        return _KIND_DEGREE[self.kind]

    def sort_key(self) -> tuple[int, int, tuple[int, ...]]:
        return (self.g_degree, _KIND_RANK[self.kind], self.indices)

    def __str__(self) -> str:
        return f"{self.kind}({','.join(str(i) for i in self.indices)})"


def parse_label(text: str) -> BasisLabel:
    """Parse 'Cas(i)', 'Eul(i)', 'A(i,q)', 'B(r)' or 'Top(i,s)', indices in
    ASCII digits 0-9."""
    match = _LABEL_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse basis label {text!r}")
    kind = match.group(1)
    indices = [int(match.group(2))]
    if match.group(3) is not None:
        indices.append(int(match.group(3)))
    return BasisLabel(kind, tuple(indices))


def a_index_range(data: SingularityData) -> range:
    """Valid u-indices for A labels: E(phi) in the module docstring."""
    return range(0 if data.special else 1, data.mu)


def b_index_range(data: SingularityData) -> range:
    """Valid u-indices for B labels: the exact bivectors of u_1..u_{mu-1}."""
    return range(1, data.mu)


def _generator(label: BasisLabel) -> tuple[BasisLabel, int]:
    """(g, i) with label = phi^i * g for g in :func:`_generators`; a B label
    carries no phi power and is its own generator (i = 0)."""
    if label.kind == "B":
        return label, 0
    return BasisLabel(label.kind, (0,) + label.indices[1:]), label.indices[0]


def validate_label(label: BasisLabel, data: SingularityData) -> None:
    """Raise CohomologyError unless the label names a class for this
    potential, that is, unless its generator is in :func:`_generators`."""
    generators = _generators(data, label.g_degree)
    if _generator(label)[0] not in generators:
        names = ", ".join(map(str, generators)) or "none"
        raise CohomologyError(
            f"{label} is not a basis class of this potential (degree "
            f"{label.g_degree} generators: {names})")


def label_weight(label: BasisLabel, data: SingularityData) -> int:
    """Weight of the class representative: i*d for phi^i, plus the weight
    of its generator, which is that of its Milnor monomial u (u_0 = 1 for
    Cas and Eul) plus d - |w| for pi_phi (A) or -|w| for pi_u (B) and for
    dx^dy^dz (Top); i and u's index are read off the label itself."""
    i = 0 if label.kind == "B" else label.indices[0]
    u = 0 if label.kind in ("Cas", "Eul") else label.indices[-1]
    total = data.weights.total
    shift = {"A": data.d - total, "B": -total, "Top": -total}
    return i * data.d + data.basis_weight(u) + shift.get(label.kind, 0)


def realize(label: BasisLabel, data: SingularityData) -> MultiVec:
    """The canonical multivector representative of a basis class, built
    once per label and kept on ``data``: a generator's closed form, checked
    by :func:`validate_label`, or phi^i times the generator's."""
    cached = data._realized.get(label)
    if cached is not None:
        return cached
    generator, i = _generator(label)
    if i:
        cached = realize(generator, data).mul_poly(data.phi ** i)
    else:
        validate_label(label, data)
        u = data.basis_polys[label.indices[-1]]
        if label.kind == "Cas":
            cached = MultiVec.function(u)
        elif label.kind == "Eul":
            cached = euler_field(data.weights)
        elif label.kind == "A":
            cached = poisson_from_potential(data.phi).mul_poly(u)
        elif label.kind == "B":
            cached = poisson_from_potential(u)
        else:
            cached = coordinate_volume().mul_poly(u)
    data._realized[label] = cached
    return cached


def _generators(data: SingularityData, g: int) -> list[BasisLabel]:
    """Basis labels of homological degree g at phi power 0: the only list
    of the basis, every other label being phi^i times one of them (index
    i, weight raised by i*d, see :func:`_generator`)."""
    if g == -1:
        return [BasisLabel("Cas", (0,))]
    if g == 0:
        return [BasisLabel("Eul", (0,))] if data.special else []
    if g == 1:
        return ([BasisLabel("A", (0, q)) for q in a_index_range(data)]
                + [BasisLabel("B", (r,)) for r in b_index_range(data)])
    if g == 2:
        return [BasisLabel("Top", (0, s)) for s in range(data.mu)]
    return []


def enumerate_basis(data: SingularityData, g: int,
                    weight_cap: int) -> list[BasisLabel]:
    """All basis labels of homological degree g with weight <= weight_cap,
    ordered by (weight, kind, indices)."""
    out: list[BasisLabel] = []
    for gen in _generators(data, g):
        room = weight_cap - label_weight(gen, data)
        if room < 0:
            continue
        if gen.kind == "B":
            out.append(gen)
        else:
            out.extend(BasisLabel(gen.kind, (i,) + gen.indices[1:])
                       for i in range(room // data.d + 1))
    return sorted(out, key=lambda lab: (label_weight(lab, data), lab.sort_key()))


def labels_of_weight(data: SingularityData, g: int, weight: int) -> list[BasisLabel]:
    """All basis labels of homological degree g with exactly this weight,
    in :meth:`BasisLabel.sort_key` order: phi^i times each generator whose
    weight is weight - i*d, i = 0 only for a B generator."""
    out: list[BasisLabel] = []
    for gen in _generators(data, g):
        i, rest = divmod(weight - label_weight(gen, data), data.d)
        if rest == 0 and (i == 0 or (i > 0 and gen.kind != "B")):
            out.append(gen if i == 0 else
                       BasisLabel(gen.kind, (i,) + gen.indices[1:]))
    return sorted(out, key=BasisLabel.sort_key)


# -- cohomology classes -------------------------------------------------------


@dataclass(frozen=True)
class CohClass:
    """A finite rational combination of basis labels in one degree."""

    g_degree: int
    coeffs: tuple[tuple[BasisLabel, ScalarLike], ...]

    @classmethod
    def make(cls, g_degree: int,
             coeffs: Optional[dict[BasisLabel, ScalarLike]] = None) -> "CohClass":
        """The class with these coefficients, each stored as
        :func:`poisdef.algebra.exact_scalar` stores it (TypeError for an
        inexact one); zero coefficients are dropped."""
        cleaned: dict[BasisLabel, ScalarLike] = {}
        if coeffs:
            for label, raw in coeffs.items():
                value = exact_scalar(raw)
                if value:
                    if label.g_degree != g_degree:
                        raise ValueError(
                            f"label {label} has degree {label.g_degree}, "
                            f"class has degree {g_degree}"
                        )
                    cleaned[label] = value
        ordered = tuple(sorted(cleaned.items(), key=lambda kv: kv[0].sort_key()))
        return cls(g_degree, ordered)

    @classmethod
    def zero(cls, g_degree: int) -> "CohClass":
        return cls.make(g_degree)

    @classmethod
    def single(cls, label: BasisLabel, coeff: ScalarLike = 1) -> "CohClass":
        return cls.make(label.g_degree, {label: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, label: BasisLabel) -> Fraction:
        for known, value in self.coeffs:
            if known == label:
                return Fraction(value)
        return Fraction(0)

    def __add__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        if self.g_degree != other.g_degree:
            raise ValueError("cannot add classes of different degrees")
        merged = dict(self.coeffs)
        for label, value in other.coeffs:
            merged[label] = merged.get(label, 0) + value
        return CohClass.make(self.g_degree, merged)

    def __neg__(self) -> "CohClass":
        # same labels in the same order: nothing to sort or drop
        return CohClass(self.g_degree,
                        tuple((l, -v) for l, v in self.coeffs))

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def __mul__(self, scalar: ScalarLike) -> "CohClass":
        if type(scalar) is int:
            # the Koszul signs and unit coefficients of the transfer sums
            if scalar == 1:
                return self
            if scalar == -1:
                return -self
        scale = exact_scalar(scalar)
        return CohClass.make(self.g_degree,
                             {l: v * scale for l, v in self.coeffs})

    __rmul__ = __mul__

    def __str__(self) -> str:
        return class_str(self)


def class_str(cls: CohClass) -> str:
    """Render e.g. '2*A(0,1) + B(2) - 1/2*Top(0,0)'; '0' when empty."""
    return signed_sum_str((str(label), v) for label, v in cls.coeffs)


def f1(cls: CohClass, data: SingularityData) -> MultiVec:
    """Canonical representative of a class: sum of realized labels."""
    result = MultiVec.zero(cls.g_degree + 1)
    for label, value in cls.coeffs:
        result = result + realize(label, data) * value
    return result


# -- weight-slice solvers -----------------------------------------------------


def _slice_solver(data: SingularityData, degree: int, weight: int) -> WeightSlice:
    """Cached slice of [coboundary images | class representatives].

    Coboundary images are tagged by their (slot, monomial) preimage and
    inserted first, so they select the same pivots as the coboundaries
    alone; each is written straight as a row by
    :func:`poisdef.multivec.image_rows`.  Class representatives follow,
    tagged by their label.  A representative that is not closed or that
    reduces to zero means the stored basis is wrong for this potential.
    """
    cached = data._coboundary_slices.get((degree, weight))
    if cached is not None:
        return cached
    solver = WeightSlice(data.weights, degree, weight)
    delta = data.d - data.weights.total
    for tag, row in image_rows(data.phi, degree - 1, weight - delta, solver):
        solver.add(row, tag)
    for label in labels_of_weight(data, degree - 1, weight):
        rep = realize(label, data)
        if not coboundary(rep, data.phi).is_zero():
            raise CohomologyError(f"basis class {label} is not closed")
        if solver.add(solver.vector(rep), label) is None:
            raise CohomologyError(
                f"basis class {label} is dependent on the coboundaries and "
                f"the other classes of weight {weight}")
    data._coboundary_slices[(degree, weight)] = solver
    return solver


def decompose(p: MultiVec,
              data: SingularityData) -> tuple[CohClass, MultiVec]:
    """Split a closed multivector as p = f_1(c) + [pi, y].

    Returns the class c in the label basis and the canonical y, whose free
    part is zero, solving each weight slice of p once.  The solves certify
    that p is closed, so p is bracketed only when one fails: then raises
    NotACocycleError if [pi, p] != 0, CohomologyError (outside span) if not.
    """
    g = p.degree - 1
    if p.degree not in SLOTS or p.is_zero():
        return CohClass.zero(g), MultiVec.zero(g)
    coeffs: dict[BasisLabel, ScalarLike] = {}
    terms: list[dict[Exponents, ScalarLike]] = [{} for _ in SLOTS.get(g, ())]
    for weight, part in multivec_weight_parts(p, data.weights).items():
        solver = _slice_solver(data, p.degree, weight)
        solution = solver.solve(solver.vector(part))
        if solution is None:
            if not coboundary(p, data.phi).is_zero():
                raise NotACocycleError(
                    f"degree {p.degree} multivector is not closed under the "
                    "Poisson differential")
            raise CohomologyError(
                f"closed slice of weight {weight} lies outside span of "
                "basis classes and coboundaries; the stored basis is "
                "incomplete for this potential"
            )
        for tag, value in solution.items():
            if isinstance(tag, BasisLabel):
                coeffs[tag] = value
            else:
                slot, m = tag
                terms[slot][m] = value
    return CohClass.make(g, coeffs), MultiVec(g, tuple(Poly(t) for t in terms))


def project(p: MultiVec, data: SingularityData) -> CohClass:
    """Cohomology class of a closed multivector: c of :func:`decompose`."""
    return decompose(p, data)[0]


def solve_coboundary(target: MultiVec, data: SingularityData) -> MultiVec:
    """A multivector y with [pi, y] = target, free part chosen zero: y of
    :func:`decompose`.

    Raises NotACoboundaryError if the target has a nonzero class, and its
    subclass NotACocycleError, from :func:`decompose`, if the target is not
    closed; the answer is the canonical pivot solution, so repeated calls
    are deterministic.
    """
    cls, y = decompose(target, data)
    if not cls.is_zero():
        raise NotACoboundaryError(
            f"the target has the nonzero class {cls}, so is not a coboundary")
    return y
