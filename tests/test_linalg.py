"""The sparse eliminator against sympy's reduced row echelon form."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from poisdef import MultiVec, Poly, coboundary, monomials_of_weight
from poisdef.cohomology import _slice_solver, labels_of_weight
from poisdef.linalg import Eliminator
from poisdef.multivec import SLOTS, slot_weight_offset

fractions = st.builds(
    Fraction,
    st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5]),
    st.sampled_from([1, 1, 2, 3]),
)


@st.composite
def matrices(draw):
    """(n_rows, columns) with zero, repeated and dependent columns mixed in."""
    n_rows = draw(st.integers(1, 5))
    columns = draw(st.lists(st.lists(fractions, min_size=n_rows,
                                     max_size=n_rows), max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "combo"]),
                              max_size=3)):
        if kind == "zero" or not columns:
            extra = [Fraction(0)] * n_rows
        elif kind == "repeat":
            extra = list(draw(st.sampled_from(columns)))
        else:
            a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            s, t = draw(fractions), draw(fractions)
            extra = [s * u + t * v for u, v in zip(a, b)]
        columns.insert(draw(st.integers(0, len(columns))), extra)
    return n_rows, columns


def sparse(vec):
    return {i: v for i, v in enumerate(vec) if v}


def sympy_matrix(n_rows, columns):
    return sympy.Matrix(n_rows, len(columns),
                        lambda i, j: sympy.Rational(columns[j][i].numerator,
                                                    columns[j][i].denominator))


def tagged(columns):
    elim = Eliminator()
    pivots = [j for j, col in enumerate(columns)
              if elim.add(sparse(col), j) is not None]
    return elim, pivots


@given(matrices())
def test_rank_and_pivot_columns_match_rref(system):
    n_rows, columns = system
    elim, pivots = tagged(columns)
    _, expected = sympy_matrix(n_rows, columns).rref()
    assert elim.rank == len(expected)
    assert pivots == list(expected)


@given(matrices(), st.data())
def test_solve_matches_rref_solution(system, data):
    n_rows, columns = system
    elim, _ = tagged(columns)
    if data.draw(st.booleans(), label="consistent"):
        x = [data.draw(fractions) for _ in columns]
        target = [sum((c[i] * v for c, v in zip(columns, x)), Fraction(0))
                  for i in range(n_rows)]
    else:
        target = [data.draw(fractions) for _ in range(n_rows)]
    augmented = sympy_matrix(n_rows, columns + [target])
    reduced, pivots = augmented.rref()
    solution = elim.solve(sparse(target))
    if len(columns) in pivots:
        assert solution is None
        return
    expected = {}
    for row, col in enumerate(pivots):
        value = reduced[row, len(columns)]
        if value:
            expected[col] = Fraction(int(value.p), int(value.q))
    assert solution == expected


def _stored_values(elim):
    for table in (elim._rows, elim._combos):
        for vec in table.values():
            yield from vec.values()


def test_integer_vectors_keep_exact_entries():
    """Integer inputs with pivot entries 3 and -2: every stored row and
    combination holds ints and non-integral Fractions only, and solve
    gives the exact rational solution."""
    v1 = {0: 3, 1: 1, 2: 1}
    v2 = {1: -2, 2: 1}
    elim = Eliminator()
    assert elim.add(v1, "a") == 0
    assert elim.add(v2, "b") == 1
    assert elim.add({0: 6, 1: 4, 2: 1}, "c") is None     # 2*v1 - v2
    for value in _stored_values(elim):
        assert type(value) is int or (
            type(value) is Fraction and value.denominator > 1), value
    assert elim._rows == {0: {0: 1, 1: Fraction(1, 3), 2: Fraction(1, 3)},
                          1: {1: 1, 2: Fraction(-1, 2)}}
    solution = elim.solve({0: 1, 1: 1})
    assert solution == {"a": Fraction(1, 3), "b": Fraction(-1, 3)}
    integral = elim.solve({0: 6, 1: 4, 2: 1})
    assert integral == {"a": 2, "b": -1}
    assert all(type(v) is int for v in integral.values())
    assert elim.solve({2: 1}) is None
    with pytest.raises(TypeError):
        elim.solve({0: 0.5})


def test_cubic_bivector_coboundary_rank_matches_sympy(cubic):
    weight = 3  # delta = d - |w| = 0, so vector fields of weight 3 map here
    rows = [(s, m) for s in range(3)
            for m in monomials_of_weight(
                cubic.weights, weight + slot_weight_offset(cubic.weights, 2, s))]
    index = {sm: i for i, sm in enumerate(rows)}
    columns = []
    for s in range(len(SLOTS[1])):
        offset = slot_weight_offset(cubic.weights, 1, s)
        for m in monomials_of_weight(cubic.weights, weight + offset):
            comps = [Poly.zero()] * 3
            comps[s] = Poly.monomial(m)
            image = coboundary(MultiVec.vector(*comps), cubic.phi)
            col = [Fraction(0)] * len(rows)
            for slot, comp in enumerate(image.comps):
                for exps, coeff in comp.items():
                    col[index[(slot, exps)]] = coeff
            columns.append(col)
    elim, _ = tagged(columns)
    rank = sympy_matrix(len(rows), columns).rank()
    assert 0 < rank == elim.rank
    labels = labels_of_weight(cubic, 1, weight)
    assert _slice_solver(cubic, 2, weight).rank == rank + len(labels)

