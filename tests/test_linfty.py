"""Transferred brackets, homotopies, obstructions, and their equations."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisdef import (
    ArityCapExceededError,
    CohClass,
    TransferState,
    coboundary,
    compute_T,
    enumerate_basis,
    euler_field,
    f1,
    koszul_chi,
    parse_label,
    poisson_from_potential,
    project,
    solve_coboundary,
)
from poisdef.linfty import _f2_table
from poisdef.suites import SuiteConfig, all_basis_labels, run_suite
import transfer_oracle
from transfer_oracle import OracleState

# -- Koszul signs ------------------------------------------------------------------


def test_koszul_sign_identity():
    assert koszul_chi((1, 2, 3), (1, 1, 1)) == 1


def test_koszul_sign_swap():
    # swapping two odd-degree elements: Koszul sign -1, chi = sign * eps = +1
    assert koszul_chi((2, 1), (1, 1)) == 1
    # swapping two even-degree elements: Koszul sign +1, chi = -1
    assert koszul_chi((2, 1), (2, 2)) == -1
    # mixed degrees: Koszul sign +1, chi = -1
    assert koszul_chi((2, 1), (1, 2)) == -1


def test_koszul_sign_concrete_values():
    degrees = (1, 2, -1, 1)
    # swap elements of degrees 1 and 2: eps = (-1)^(1*2) = +1, chi = -1
    assert koszul_chi((2, 1, 3, 4), degrees) == -1
    # swap elements of degrees -1 and 1: eps = (-1)^(-1*1) = -1, chi = +1
    assert koszul_chi((1, 2, 4, 3), degrees) == 1


_perms_with_degrees = st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)),
    st.lists(st.integers(-1, 2), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(_perms_with_degrees)
def test_koszul_chi_is_permutation_sign_times_koszul_sign(case):
    """Oracle: the permutation sign from the cycle decomposition, and the
    Koszul sign from sorting the symbols back by adjacent swaps."""
    perm, degrees = case
    n = len(perm)
    seen, cycles = set(), 0
    for start in range(1, n + 1):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k - 1]
    perm_sign = -1 if (n - cycles) % 2 else 1
    order, koszul = list(perm), 1
    for end in range(n - 1, 0, -1):
        for k in range(end):
            if order[k] > order[k + 1]:
                if degrees[order[k] - 1] * degrees[order[k + 1] - 1] % 2:
                    koszul = -koszul
                order[k], order[k + 1] = order[k + 1], order[k]
    assert order == list(range(1, n + 1))
    assert koszul_chi(perm, degrees) == perm_sign * koszul


# -- binary homotopy table -----------------------------------------------------------


def test_f2_casimir_exact_pair(brieskorn):
    # f2(Cas(i), B(r)) = i phi^(i-1) u_r as a function
    u1 = brieskorn.basis_polys[1]
    value = _f2_table(brieskorn, parse_label("Cas(1)"), parse_label("B(1)"))
    assert value.degree == 0
    assert value.comps[0] == u1
    value2 = _f2_table(brieskorn, parse_label("Cas(2)"), parse_label("B(1)"))
    assert value2.comps[0] == brieskorn.phi * u1 * 2


def test_f2_casimir_top_pair(brieskorn):
    # f2(Cas(i), Top(j,0)) = (i/(|w|-d)) phi^(i+j-1) e for generic potentials
    e = euler_field(brieskorn.weights)
    value = _f2_table(brieskorn, parse_label("Cas(1)"),
                      parse_label("Top(0,0)"))
    assert value == e * Fraction(1, brieskorn.weights.total - brieskorn.d)
    value2 = _f2_table(brieskorn, parse_label("Cas(2)"),
                       parse_label("Top(1,0)"))
    assert value2 == e.mul_poly(brieskorn.phi ** 2) * \
        Fraction(2, brieskorn.weights.total - brieskorn.d)


def test_f2_hamiltonian_exact_pair(brieskorn):
    # f2(A(i,k), B(r)) = phi^i u_k {., .}_{u_r}
    u = brieskorn.basis_polys
    value = _f2_table(brieskorn, parse_label("A(0,2)"), parse_label("B(1)"))
    assert value == poisson_from_potential(u[1]).mul_poly(u[2])


def test_f2_zero_rows(brieskorn, cubic):
    zero_pairs = [
        ("Cas(0)", "Cas(1)"),
        ("Cas(1)", "A(0,1)"),
        ("A(0,1)", "A(0,2)"),
        ("B(1)", "B(2)"),
        ("A(0,1)", "Top(0,0)"),
        ("Top(0,0)", "Top(1,1)"),
        ("B(1)", "Top(0,0)"),
        ("Cas(1)", "Top(0,1)"),  # Top factor with a nonconstant u part
    ]
    for a_text, b_text in zero_pairs:
        value = _f2_table(brieskorn, parse_label(a_text), parse_label(b_text))
        assert value.is_zero(), f"f2({a_text},{b_text}) nonzero"
    # special case: Eul x B is the only extra nonzero row
    value = _f2_table(cubic, parse_label("Eul(1)"), parse_label("B(1)"))
    assert not value.is_zero()
    value = _f2_table(cubic, parse_label("Eul(0)"), parse_label("B(1)"))
    assert value.is_zero()  # i = 0 row has vanishing prefactor


def test_f2_graded_symmetry(brieskorn, brieskorn_state):
    # reversing the pair multiplies by the Koszul chi of the swap
    pairs = [("Cas(1)", "Top(0,0)"), ("A(0,1)", "B(1)"), ("Cas(1)", "B(1)")]
    for a_text, b_text in pairs:
        a, b = parse_label(a_text), parse_label(b_text)
        chi = koszul_chi((2, 1), (a.g_degree, b.g_degree))
        assert brieskorn_state.f_labels((b, a)) == \
            brieskorn_state.f_labels((a, b)) * chi


@pytest.mark.parametrize("fixture_name", ["brieskorn", "cubic"])
def test_f2_table_out_of_order_pairs(request, fixture_name):
    """f_labels signs a pair given out of order onto the canonical-pair
    table _f2_table; check the order-2 morphism equation
    d f_2(b, a) = f_1(ell_2(b, a)) + T_2(b, a) on those values."""
    data = request.getfixturevalue(fixture_name)
    state = request.getfixturevalue(fixture_name + "_state")
    labels = sorted(all_basis_labels(data, 2 * data.d),
                    key=lambda lab: lab.sort_key())
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            expected = (f1(state.ell_labels((b, a)), data)
                        + compute_T(state, 2, [CohClass.single(b),
                                               CohClass.single(a)]))
            assert coboundary(state.f_labels((b, a)), data.phi) == expected, \
                f"order-2 equation fails at ({b},{a})"


@pytest.mark.parametrize("fixture_name", ["brieskorn", "cubic"])
def test_f2_table_is_asked_only_canonical_pairs(request, fixture_name,
                                                monkeypatch):
    """_f2_table takes only canonical pairs: every pair the tables,
    transfer, deform and gauge suites ask it for is in canonical order."""
    data = request.getfixturevalue(fixture_name)
    pairs = []

    def recording_table(data, a, b):
        pairs.append((a, b))
        return _f2_table(data, a, b)

    monkeypatch.setattr("poisdef.linfty._f2_table", recording_table)
    state = TransferState(data=data, arity_cap=4)
    config = SuiteConfig(order=2, weight_cap=data.d, seed=2)
    for suite in ("tables", "transfer", "deform", "gauge"):
        assert run_suite(suite, data, config, state)["status"] == "pass"
    assert pairs
    unsorted = [(str(a), str(b)) for a, b in pairs
                if b.sort_key() < a.sort_key()]
    assert not unsorted, unsorted


# -- the order-2 morphism equation ----------------------------------------------------


@pytest.mark.parametrize("fixture_name", ["brieskorn", "cubic", "quadric"])
def test_order2_equation_exhaustive(request, fixture_name):
    data = request.getfixturevalue(fixture_name)
    state = request.getfixturevalue(fixture_name + "_state")
    labels = all_basis_labels(data, data.d)  # small cap keeps this quick
    for i, a in enumerate(labels):
        for b in labels[i:]:
            residual = state.E_labels((a, b))
            assert residual.is_zero(), f"order-2 equation fails at ({a},{b})"


# -- ternary stage ---------------------------------------------------------------------


def test_ternary_bracket_witness_quadric(quadric_state):
    # l3(phi, phi, vol) = (2 wt(phi) / (|w| - wt(phi))) phi = 4 phi here
    phi_bar = parse_label("Cas(1)")
    vol_bar = parse_label("Top(0,0)")
    value = quadric_state.ell_labels((phi_bar, phi_bar, vol_bar))
    assert value == CohClass.single(phi_bar, Fraction(4))


def test_ternary_bracket_witness_brieskorn(brieskorn_state):
    # 2 * 30 / (31 - 30) = 60
    phi_bar = parse_label("Cas(1)")
    vol_bar = parse_label("Top(0,0)")
    value = brieskorn_state.ell_labels((phi_bar, phi_bar, vol_bar))
    assert value == CohClass.single(phi_bar, Fraction(60))


def test_obstruction_vanishes_on_degree1_triples(brieskorn, brieskorn_state):
    h1 = enumerate_basis(brieskorn, 1, brieskorn.d)
    for triple in itertools.combinations_with_replacement(h1, 3):
        value = compute_T(brieskorn_state, 3,
                          [CohClass.single(lab) for lab in triple])
        assert value.is_zero(), f"T3 nonzero on {triple}"


def test_higher_homotopy_zero_on_degree1_triples(brieskorn_state, brieskorn):
    labels = (parse_label("A(0,1)"), parse_label("A(0,2)"), parse_label("B(1)"))
    assert brieskorn_state.f_labels(labels).is_zero()
    assert brieskorn_state.ell_labels(labels).is_zero()


def test_order3_equation_sampled(brieskorn, brieskorn_state):
    rng = random.Random(11)
    labels = all_basis_labels(brieskorn, 2 * brieskorn.d)
    for _ in range(8):
        chosen = [rng.choice(labels) for _ in range(3)]
        classes = [CohClass.single(lab) for lab in chosen]
        t_value = compute_T(brieskorn_state, 3, classes)
        assert coboundary(t_value, brieskorn.phi).is_zero()
        assert brieskorn_state.E_labels(chosen).is_zero()


def test_order4_equation_sampled(brieskorn, brieskorn_state):
    rng = random.Random(13)
    labels = all_basis_labels(brieskorn, 2 * brieskorn.d)
    for _ in range(3):
        chosen = [rng.choice(labels) for _ in range(4)]
        classes = [CohClass.single(lab) for lab in chosen]
        t_value = compute_T(brieskorn_state, 4, classes)
        assert coboundary(t_value, brieskorn.phi).is_zero()
        assert brieskorn_state.E_labels(chosen).is_zero()


def test_compute_T_rejects_wrong_arity(brieskorn_state):
    classes = [CohClass.single(parse_label("Cas(1)")),
               CohClass.single(parse_label("Top(0,0)"))]
    with pytest.raises(ValueError, match="expected 3 classes, got 2"):
        compute_T(brieskorn_state, 3, classes)


def test_jacobi_identities_sampled(brieskorn, brieskorn_state):
    rng = random.Random(17)
    labels = all_basis_labels(brieskorn, 2 * brieskorn.d)
    for n in (3, 4):
        for _ in range(4 if n == 3 else 2):
            chosen = [rng.choice(labels) for _ in range(n)]
            assert brieskorn_state.J_labels(chosen).is_zero()


# Cubic tuples whose J_n sums nested ell(ell(.)) terms: 435 of the 29260
# triples up to weight 2d have such a term, none of the Brieskorn draws
# above has one.
_NESTED_JACOBI_TUPLES = (
    ("Cas(1)", "Eul(0)", "Top(0,1)"),
    ("Cas(1)", "Eul(1)", "Top(1,0)"),
    ("Eul(0)", "Eul(1)", "Top(0,0)"),
    ("Cas(1)", "Eul(1)", "B(1)", "Top(0,0)"),
    ("Cas(1)", "Eul(1)", "B(2)", "Top(0,1)"),
)


def _nested_jacobi_tuples():
    return [tuple(parse_label(text) for text in texts)
            for texts in _NESTED_JACOBI_TUPLES]


def test_jacobi_identities_with_nested_terms(cubic):
    """J_3 and J_4 vanish on tuples where their sums are not empty."""
    state = TransferState(data=cubic, arity_cap=4)
    for labels in _nested_jacobi_tuples():
        degrees = tuple(lab.g_degree for lab in labels)
        assert state._nested_terms(labels, degrees, state._ell_memo)
        assert state.J_labels(labels).is_zero()


def test_jacobi_identity_catches_a_sign_error_in_one_bracket(cubic):
    """Negating the one stored ell_2(Cas(1), Eul(1)) makes J_3 and J_4
    nonzero on the tuples that nest it."""
    state = TransferState(data=cubic, arity_cap=4)
    tuples = _nested_jacobi_tuples()
    for labels in tuples:
        state.J_labels(labels)
    key = (parse_label("Cas(1)"), parse_label("Eul(1)"))
    state._ell_memo[key] = -state._ell_memo[key]
    broken = [len(labels) for labels in tuples
              if not state.J_labels(labels).is_zero()]
    assert 3 in broken and 4 in broken


def test_special_ternary_stage(cubic, cubic_state):
    # the balanced potential also satisfies the order-3 equation
    rng = random.Random(19)
    labels = all_basis_labels(cubic, cubic.d)
    for _ in range(6):
        chosen = [rng.choice(labels) for _ in range(3)]
        assert cubic_state.E_labels(chosen).is_zero()


# -- multilinearity and state mechanics ------------------------------------------------


def test_ell_multilinear(brieskorn_state):
    a = CohClass.single(parse_label("Cas(1)"), Fraction(1, 2))
    b = CohClass.single(parse_label("Top(0,0)"), 3)
    combo = a + CohClass.single(parse_label("Cas(2)"), -1)
    lhs = brieskorn_state.ell([combo, a, b])
    rhs = (brieskorn_state.ell([a, a, b])
           + brieskorn_state.ell(
               [CohClass.single(parse_label("Cas(2)"), -1), a, b]))
    assert lhs == rhs


def test_arity_cap_enforced(brieskorn):
    state = TransferState(data=brieskorn, arity_cap=3)
    labels = tuple(parse_label(t) for t in
                   ("Cas(1)", "Cas(1)", "Cas(1)", "Top(0,0)"))
    with pytest.raises(ArityCapExceededError):
        state.ell_labels(labels)
    with pytest.raises(ValueError, match="arity must be at least 1"):
        state.ell_labels(())


def test_repeated_even_degree_label_forces_zero(brieskorn_state):
    # Top has even homological degree, so a repeated Top label kills the term
    labels = (parse_label("Top(0,0)"), parse_label("Top(0,0)"))
    assert brieskorn_state.f_labels(labels).is_zero()
    assert brieskorn_state.ell_labels(labels).is_zero()


# -- coherence of the defining recursion -------------------------------------------------


def test_stage_recursion_consistency(brieskorn, brieskorn_state):
    """d f_3 = T_3 + f_1(l_3) on a mixed tuple, straight from the caches."""
    labels = (parse_label("Cas(1)"), parse_label("Cas(1)"),
              parse_label("Top(0,0)"))
    classes = [CohClass.single(lab) for lab in labels]
    f3 = brieskorn_state.f_labels(labels)
    t3 = compute_T(brieskorn_state, 3, classes)
    l3 = brieskorn_state.ell_labels(labels)
    lhs = coboundary(f3, brieskorn.phi)
    rhs = t3 + f1(l3, brieskorn)
    assert lhs == rhs
    # and l3 = -projection of T3
    assert l3 == project(t3, brieskorn) * Fraction(-1)
    # and f3 is the canonical preimage of the exact part
    target = t3 + f1(l3, brieskorn)
    assert solve_coboundary(target, brieskorn) == f3


def test_one_stage_fills_every_bracket_from_one_T(brieskorn, monkeypatch):
    """ell_n (n >= 2) and f_n (n >= 3) come from one _compute_stage:
    E_labels of a fresh triple, canonical or not, evaluates its own T_3 and
    the stage evaluates T_3 of the canonical triple; ell_2 of a fresh pair
    runs one stage and f_2 of a fresh pair none (it is _f2_table)."""
    t_calls, stages = [], []
    t_labels = TransferState.T_labels
    compute_stage = TransferState._compute_stage

    def counting_T(self, labels):
        t_calls.append(tuple(labels))
        return t_labels(self, labels)

    def counting_stage(self, key, *rest):
        stages.append(key)
        return compute_stage(self, key, *rest)

    monkeypatch.setattr(TransferState, "T_labels", counting_T)
    monkeypatch.setattr(TransferState, "_compute_stage", counting_stage)
    cas, top = parse_label("Cas(1)"), parse_label("Top(0,0)")
    triple, key = (cas, top, cas), (cas, cas, top)   # chi = -1
    state = TransferState(data=brieskorn, arity_cap=4)
    assert state.E_labels(key).is_zero()
    assert [t for t in t_calls if len(t) == 3] == [key, key]
    assert stages.count(key) == 1

    reordered = TransferState(data=brieskorn, arity_cap=4)
    t_calls.clear()
    stages.clear()
    assert reordered.E_labels(triple).is_zero()
    assert [t for t in t_calls if len(t) == 3] == [triple, key]
    assert stages.count(key) == 1

    pair = (top, cas)
    fresh = TransferState(data=brieskorn, arity_cap=4)
    stages.clear()
    chi = koszul_chi((2, 1), (top.g_degree, cas.g_degree))
    assert fresh.f_labels(pair) == _f2_table(brieskorn, cas, top) * chi
    assert stages == []
    classes = [CohClass.single(lab) for lab in pair]
    assert fresh.ell_labels(pair) == \
        -project(compute_T(fresh, 2, classes), brieskorn)
    assert stages == [(cas, top)]

    # the stages E_labels filled equal the one ell_labels fills
    assert not fresh.ell_labels(key).is_zero()
    assert state.ell_labels(key) == fresh.ell_labels(key)
    assert reordered.ell_labels(triple) == -fresh.ell_labels(key)
    assert state.f_labels(key) == reordered.f_labels(key) == \
        fresh.f_labels(key)


@pytest.mark.parametrize("labels", [
    ("Cas(1)", "Top(0,0)", "Cas(1)"),              # chi = -1
    ("Top(0,0)", "Cas(1)", "Cas(1)"),              # chi = +1
    ("B(4)", "Cas(2)", "Top(2,5)", "Top(1,4)"),    # chi = -1
])
def test_morphism_residual_catches_a_sign_error_in_one_order(
        brieskorn, monkeypatch, labels):
    """E_n on a fresh tuple out of canonical order compares its own T_n
    with the T_n of the canonical tuple that fills the stage, so a sign
    error in the label-level sum for that one order shows."""
    wrong = tuple(parse_label(text) for text in labels)
    t_labels = TransferState.T_labels

    def flipped_T(self, labels):
        value = t_labels(self, labels)
        return -value if tuple(labels) == wrong else value

    assert not t_labels(TransferState(data=brieskorn, arity_cap=4),
                        wrong).is_zero()
    monkeypatch.setattr(TransferState, "T_labels", flipped_T)
    state = TransferState(data=brieskorn, arity_cap=4)
    assert not state.E_labels(wrong).is_zero()


@pytest.mark.parametrize("fixture_name", ["brieskorn", "cubic"])
def test_transfer_stages_match_second_solve(request, fixture_name):
    """Every stage the transfer suite fills reads ell_n and f_n off one
    decompose(T_n): f_n is also the canonical solve of T_n + f_1(ell_n),
    and d f_n = T_n + f_1(ell_n)."""
    data = request.getfixturevalue(fixture_name)
    state = TransferState(data=data, arity_cap=4)
    config = SuiteConfig(order=2, weight_cap=data.d, seed=2)
    assert run_suite("transfer", data, config, state)["status"] == "pass"
    live = 0
    for key in [key for key in state._f_memo if len(key) >= 3]:
        t_value = compute_T(state, len(key),
                            [CohClass.single(lab) for lab in key])
        target = t_value + f1(state._ell_memo[key], data)
        assert solve_coboundary(target, data) == state._f_memo[key]
        assert coboundary(state._f_memo[key], data.phi) == target
        live += not t_value.is_zero()
    # Brieskorn: the ternary witness (ell_3 != 0); cubic: an f_3 != 0
    assert live >= 1


# -- the label kernel against the class-level oracle -----------------------------------


def _labels_by_degree(data) -> dict:
    """Basis labels of weight at most d per homological degree, degrees
    without labels left out."""
    by_degree = {g: enumerate_basis(data, g, data.d) for g in (-1, 0, 1, 2)}
    return {g: labels for g, labels in by_degree.items() if labels}


def _assert_kernel_matches_oracle(state, oracle, labels):
    n = len(labels)
    classes = [CohClass.single(lab) for lab in labels]
    assert state.T_labels(labels) == \
        transfer_oracle.compute_T(oracle, n, classes), labels
    assert state.E_labels(labels) == \
        transfer_oracle.check_E(oracle, n, classes), labels
    assert state.J_labels(labels) == \
        transfer_oracle.jacobiator(oracle, n, classes), labels


@pytest.mark.parametrize("fixture_name", ["quadric", "brieskorn", "cubic"])
def test_label_kernel_matches_class_oracle_on_every_degree_pattern(
        request, fixture_name):
    """T_n, E_n and J_n on a seeded random label tuple of every degree
    pattern of arity 1 to 4 equal the class-level sums, each side with
    its own recursion for ell_3 and f_3, and the two recursions fill their
    caches with the same values."""
    data = request.getfixturevalue(fixture_name)
    state = TransferState(data=data, arity_cap=4)
    oracle = OracleState(data=data, arity_cap=4)
    rng = random.Random(23)
    by_degree = _labels_by_degree(data)
    for n in range(1, 5):
        for pattern in itertools.product(sorted(by_degree), repeat=n):
            labels = tuple(rng.choice(by_degree[g]) for g in pattern)
            _assert_kernel_matches_oracle(state, oracle, labels)
    assert sum(len(key) >= 3 for key in state._f_memo) >= 10
    for memo, oracle_memo in ((state._f_memo, oracle._f_memo),
                              (state._ell_memo, oracle._ell_memo)):
        shared = memo.keys() & oracle_memo.keys()
        assert len(shared) == len(memo) == len(oracle_memo)
        for key in shared:
            assert memo[key] == oracle_memo[key], key


@pytest.mark.parametrize("fixture_name", ["quadric", "brieskorn", "cubic"])
def test_label_kernel_forced_zeros_on_repeated_even_labels(
        request, fixture_name):
    """A repeated label of even degree (Cas, Eul, Top) forces ell_n = f_n =
    0; T_n, E_n and J_n there still equal the class-level sums."""
    data = request.getfixturevalue(fixture_name)
    state = TransferState(data=data, arity_cap=4)
    oracle = OracleState(data=data, arity_cap=4)
    rng = random.Random(29)
    by_degree = _labels_by_degree(data)
    everything = [lab for g in sorted(by_degree) for lab in by_degree[g]]
    even = [lab for lab in everything if lab.g_degree % 2 == 0]
    assert even
    for n in (2, 3, 4):
        for _ in range(6):
            labels = [rng.choice(even)] * 2
            labels += [rng.choice(everything) for _ in range(n - 2)]
            rng.shuffle(labels)
            labels = tuple(labels)
            assert state.f_labels(labels).is_zero()
            assert state.ell_labels(labels).is_zero()
            _assert_kernel_matches_oracle(state, oracle, labels)


@pytest.mark.parametrize("fixture_name", ["quadric", "brieskorn", "cubic"])
def test_class_entry_points_match_class_oracle(request, fixture_name):
    """compute_T on combinations of up to three labels with rational
    coefficients, zero classes included, equals the class-level sum."""
    data = request.getfixturevalue(fixture_name)
    state = TransferState(data=data, arity_cap=4)
    oracle = OracleState(data=data, arity_cap=4)
    rng = random.Random(31)
    by_degree = _labels_by_degree(data)

    def random_class() -> CohClass:
        g = rng.choice(sorted(by_degree))
        cls = CohClass.zero(g)
        for _ in range(rng.randint(0, 3)):
            cls = cls + CohClass.single(
                rng.choice(by_degree[g]), Fraction(rng.randint(-5, 5),
                                                   rng.randint(1, 3)))
        return cls

    for n in (1, 2, 3, 4):
        for _ in range(8 if n < 4 else 4):
            classes = [random_class() for _ in range(n)]
            assert compute_T(state, n, classes) == \
                transfer_oracle.compute_T(oracle, n, classes)
