"""The class-level transfer sums: the test oracle of the label kernel.

``compute_T``, ``check_E`` and ``jacobiator`` are the signed shuffle sums
T_n = S_n - U_n, E_n and J_n of the ``poisdef.linfty`` docstring, evaluated
on ``CohClass`` combinations: every call enumerates its unshuffles afresh,
with a Koszul sign per block, and every intermediate bracket goes through
the multilinear ``state.ell`` and ``state.f``.  ``TransferState`` instead
evaluates them on basis-label tuples from shuffle plans built once per
degree pattern (``T_labels``, ``E_labels``, ``J_labels``).

``OracleState`` fills its caches at arity 2 and above from this
``compute_T``, so its brackets and homotopies share no shuffle plan with
the package.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from poisdef import (CohClass, MultiVec, TransferState, coboundary, f1,
                     koszul_chi)
from poisdef.cohomology import decompose
from poisdef.multivec import schouten_sum


class OracleState(TransferState):
    """A transfer state whose stages of arity >= 2 read ell_n, and f_n
    above arity 2, off decompose of the class-level :func:`compute_T`."""

    def _compute_stage(self, key, t_value):
        # t_value, the package's label-level T_n, is ignored: T_n is
        # recomputed class-level so the oracle stays independent
        classes = [CohClass.single(lab) for lab in key]
        t_value = compute_T(self, len(key), classes)
        t_class, y = decompose(t_value, self.data)
        self._ell_memo[key] = -t_class
        if len(key) > 2:
            self._f_memo[key] = y


def _unshuffles(classes: Sequence[CohClass], i: int):
    """Yield (chi(s), x_{s(1..i)}, x_{s(i+1..n)}) for each (i, n-i)-shuffle
    s of the classes x_1, ..., x_n, first blocks in lexicographic order."""
    n = len(classes)
    degrees = [c.g_degree for c in classes]
    for first in combinations(range(n), i):
        rest = tuple(k for k in range(n) if k not in first)
        sigma = [k + 1 for k in first + rest]
        yield (koszul_chi(sigma, degrees), [classes[k] for k in first],
               [classes[k] for k in rest])


def _nested_sum(state: TransferState, outer, classes: Sequence[CohClass],
                zero):
    """S_n (``outer = state.f``) or J_n (``outer = state.ell``);
    ``zero(k)`` builds the zero of output degree k."""
    n = len(classes)
    total = zero(sum(c.g_degree for c in classes) + 3 - n)
    for i in range(2, n):
        outer_sign = -1 if (i * (n - i)) % 2 else 1    # (-1)^(i*(j-1))
        for chi, first, rest in _unshuffles(classes, i):
            total = total + outer([state.ell(first)] + rest) * (chi * outer_sign)
    return total


def compute_T(state: TransferState, n: int,
              classes: Sequence[CohClass]) -> MultiVec:
    """T_n = S_n - U_n on classes."""
    if len(classes) != n:
        raise ValueError(f"expected {n} classes, got {len(classes)}")
    total = _nested_sum(state, state.f, classes, MultiVec.zero)
    # U_n: the (s, t)-shuffles tau with tau(1) = 1 are x_1 put in front of
    # the (s-1, t)-shuffles of x_2..x_n, which adds no inversion to chi.
    brackets = []
    for s in range(1, n):
        for chi, first, rest in _unshuffles(classes[1:], s - 1):
            left = [classes[0]] + first
            exponent = (s - 1) + (n - s - 1) * sum(c.g_degree for c in left)
            sign = -1 if exponent % 2 else 1
            brackets.append((chi * sign, state.f(left), state.f(rest)))
    return total - schouten_sum(brackets) if brackets else total


def check_E(state: TransferState, n: int,
            classes: Sequence[CohClass]) -> MultiVec:
    """d(f_n(x)) - f_1(ell_n(x)) - T_n(x) on classes."""
    residual = coboundary(state.f(list(classes)), state.data.phi)
    residual = residual - f1(state.ell(list(classes)), state.data)
    return residual - compute_T(state, n, classes)


def jacobiator(state: TransferState, n: int,
               classes: Sequence[CohClass]) -> CohClass:
    """J_n on classes."""
    if len(classes) != n:
        raise ValueError(f"expected {n} classes, got {len(classes)}")
    return _nested_sum(state, state.ell, classes, CohClass.zero)
