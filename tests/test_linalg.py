"""The sparse eliminator against sympy's reduced row echelon form."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from poisdef import MultiVec, Poly, coboundary, monomials_of_weight
from poisdef.cohomology import _slice_solver, labels_of_weight
from poisdef.linalg import Eliminator, _integral
from poisdef.multivec import SLOTS, slot_weight_offset
import gauss_jordan

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


def _assert_stored_form(elim, inputs):
    """Every stored row is a primitive int vector whose leftmost index is
    its pivot, and its index entries equal the sum of row[(t,)] * input t
    over its tag columns."""
    assert sorted(elim._rows) == elim.pivots
    for pivot, row in elim._rows.items():
        assert all(type(v) is int and v for v in row.values())
        assert math.gcd(*row.values()) == 1
        indices = {i: v for i, v in row.items() if type(i) is int}
        assert min(indices) == pivot
        total = {}
        for key, n in row.items():
            if type(key) is not int:
                (tag,) = key
                for i, v in inputs[tag].items():
                    total[i] = total.get(i, 0) + n * v
        assert {i: v for i, v in total.items() if v} == indices


entries = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=36))


@given(st.dictionaries(st.integers(0, 8), entries, max_size=6))
def test_integral_input_rows_are_primitive(vec):
    """An input row is vec times the lcm L of its denominators, with L on
    its tag column, and its content is already 1, so it takes no gcd
    pass."""
    row = _integral(vec, "t")
    lcm = math.lcm(*(Fraction(v).denominator for v in vec.values()))
    assert row.pop(("t",)) == lcm >= 1
    assert all(type(v) is int and v for v in row.values())
    assert row == {i: v * lcm for i, v in vec.items() if v}
    assert math.gcd(lcm, *row.values()) == 1


def test_integer_vectors_keep_exact_entries():
    """Integer inputs with pivot entries 3 and -2 are stored as they are
    with 1 on their tag column, a rational input as its primitive integer
    multiple with the multiplier on its tag column; solve gives the exact
    rational solution, and floats are refused."""
    inputs = {"a": {0: 3, 1: 1, 2: 1}, "b": {1: -2, 2: 1},
              "c": {0: 6, 1: 4, 2: 1},                 # 2*a - b
              "d": {2: Fraction(3, 2), 3: Fraction(-9, 4)}}
    elim = Eliminator()
    assert elim.add(inputs["a"], "a") == 0
    assert elim.add(inputs["b"], "b") == 1
    assert elim.add(inputs["c"], "c") is None
    assert elim.add(inputs["d"], "d") == 2
    _assert_stored_form(elim, inputs)
    assert elim._rows == {0: {0: 3, 1: 1, 2: 1, ("a",): 1},
                          1: {1: -2, 2: 1, ("b",): 1},
                          2: {2: 6, 3: -9, ("d",): 4}}
    solution = elim.solve({0: 1, 1: 1})
    assert solution == {"a": Fraction(1, 3), "b": Fraction(-1, 3)}
    integral = elim.solve({0: 6, 1: 4, 2: 1})
    assert integral == {"a": 2, "b": -1}
    assert all(type(v) is int for v in integral.values())
    assert elim.solve({2: 1, 3: Fraction(-3, 2)}) == {"d": Fraction(2, 3)}
    assert elim.solve({3: 1}) is None
    for bad in ({0: 0.5}, {0: 1.0}, {1: 1, 0: -1.0}):
        with pytest.raises(TypeError):
            elim.solve(bad)
        with pytest.raises(TypeError):
            Eliminator().add(bad, "bad")


def test_int_tags_stay_apart_from_indices():
    """A tag equal to an index or a pivot names an input, not a position:
    its column (t,) never meets index t."""
    elim = Eliminator()
    assert elim.add({0: 1}, 0) == 0
    assert elim.solve({0: 2}) == {0: 2}
    assert elim.add({0: 1, 1: 2}, 1) == 1          # tag 1 at pivot 1
    assert elim.add({1: 1, 2: 1}, 2) == 2          # tag 2 at pivot 2
    inputs = {0: {0: 1}, 1: {0: 1, 1: 2}, 2: {1: 1, 2: 1}}
    _assert_stored_form(elim, inputs)
    assert elim.solve({1: 2}) == {0: -1, 1: 1}
    assert elim.solve({0: 1, 3: 1}) is None
    shifted = Eliminator()
    assert shifted.add({1: 1}, 0) == 1             # tag 0, index 1
    assert shifted.add({2: 3}, 1) == 2             # tag 1, a pivot
    assert shifted.solve({1: 3, 2: 1}) == {0: 3, 1: Fraction(1, 3)}
    assert shifted.solve({0: 1}) is None


def test_zero_vector_with_tag():
    """A zero input adds nothing to the span but keeps its tag."""
    elim = Eliminator()
    assert elim.add({}, "z") is None
    assert elim.add({0: 0}, "w") is None
    assert elim.rank == 0 and elim._rows == {}
    assert elim.solve({}) == {}
    assert elim.solve({0: 1}) is None
    assert elim.add({0: 2}, "a") == 0
    assert elim.solve({0: 1}) == {"a": Fraction(1, 2)}
    with pytest.raises(ValueError):
        elim.add({}, "z")


def test_repeated_tag_is_refused():
    """Tags name the inputs of a solution, so each may be given once: a
    repeated tag would add two inputs' coefficients under one name."""
    elim = Eliminator()
    elim.add({0: 1}, "a")
    with pytest.raises(ValueError):
        elim.add({1: 1}, "a")
    assert elim.rank == 1
    assert elim.solve({0: 1, 1: 1}) is None
    elim.add({0: 2, 1: 2}, "b")                    # in the span of a, b
    with pytest.raises(ValueError):
        elim.add({2: 1}, "b")


wide = st.builds(Fraction, st.integers(-40, 40).filter(bool) | st.just(0),
                 st.sampled_from([1, 1, 1, 2, 3, 7, 12]))


@st.composite
def wide_systems(draw):
    """Columns with large and rational entries, negative pivots and
    dependent columns, and a target that is consistent or not."""
    n_rows = draw(st.integers(1, 6))
    columns = draw(st.lists(st.lists(wide, min_size=n_rows, max_size=n_rows),
                            max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        if not columns:
            break
        a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
        s, t = draw(wide), draw(wide)
        columns.insert(draw(st.integers(0, len(columns))),
                       [s * u + t * v for u, v in zip(a, b)])
    if draw(st.booleans()):
        x = [draw(wide) for _ in columns]
        target = [sum((c[i] * v for c, v in zip(columns, x)), Fraction(0))
                  for i in range(n_rows)]
    else:
        target = [draw(wide) for _ in range(n_rows)]
    return columns, target


@given(wide_systems())
def test_solve_matches_fraction_gauss_jordan(system):
    columns, target = system
    elim, pivots = tagged(columns)
    _assert_stored_form(elim, {j: sparse(col) for j, col in enumerate(columns)})
    solution = elim.solve(sparse(target))
    expected = gauss_jordan.solve(columns, target)
    assert solution == expected
    assert pivots == gauss_jordan.rref(
        [[c[i] for c in columns] for i in range(len(target))])[1]
    for value in (solution or {}).values():
        assert type(value) is int or (
            type(value) is Fraction and value.denominator > 1), value


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


def test_elimination_visits_only_reachable_pivots(monkeypatch):
    """A stored row has no entry left of its pivot, so reducing a vector
    looks up no pivot below the vector's smallest index."""
    import poisdef.linalg as linalg
    visits = []

    class CountingRow(dict):
        def get(self, key, *default):
            visits.append(key)
            return super().get(key, *default)

    solver = Eliminator()
    for i in range(50):
        solver.add({i: 1}, tag=i)
    original = linalg._integral
    monkeypatch.setattr(linalg, "_integral",
                        lambda vec, tag: CountingRow(original(vec, tag)))
    assert solver.solve({48: 2, 49: 3}) == {48: 2, 49: 3}
    # pivots 48 and 49, then each unit row's pivot entry and tag column
    assert len(visits) == 2 + 2 * 2
    visits.clear()
    assert solver.add({50: 1}, tag=50) == 50
    assert visits == []
