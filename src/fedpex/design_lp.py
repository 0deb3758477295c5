"""Minimum-L1 design program for the linear sampling rule.

Solves  min sum_k |w_k|  subject to  sum_k w_k x_k = y  by splitting
w = u - v (u, v >= 0) and running a two-phase primal simplex on the
equivalent LP  min 1.(u+v)  s.t.  [X, -X](u; v) = y.  The optimal objective
rho(y) and the induced distribution p_k = |w_k| / rho drive arm selection.

Phase 1 minimizes artificial variables to find a feasible basis; both phases
pivot with Bland's rule (smallest-index entering and leaving variable), which
rules out cycling at these tiny sizes. Pivot tolerance is 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
SUPPORT_TOL = 1e-12  # p_k above this counts as "in the design support"


class ZeroTargetError(ValueError):
    """The target direction is exactly zero; the design is undefined."""


class InfeasibleTargetError(ValueError):
    """The target direction is not in the span of the contexts."""


class NoSupportError(ValueError):
    """No arm carries positive design probability."""


@dataclass(frozen=True)
class L1Solution:
    """Optimal weights w, their L1 mass rho, and the selection distribution p."""

    w: np.ndarray
    rho: float
    p: np.ndarray


def _simplex_min(tableau: np.ndarray, basis: list[int], cost: np.ndarray, n_cols: int):
    """Bland-rule primal simplex on an explicit tableau, in place.

    tableau is (m, n_cols+1) with the rhs in the last column and rows already
    expressing the basic variables. Returns when no reduced cost is below
    -PIVOT_TOL. Raises on unbounded problems (cannot happen for our LPs but
    kept as a guard).
    """
    m = tableau.shape[0]
    while True:
        # reduced costs under the current basis
        y = np.zeros(n_cols)
        for r, bi in enumerate(basis):
            if cost[bi] != 0.0:
                y += cost[bi] * tableau[r, :n_cols]
        reduced = cost[:n_cols] - y
        enter = -1
        for j in range(n_cols):
            if reduced[j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return
        # ratio test, ties broken by smallest basis variable index
        leave = -1
        best = np.inf
        for r in range(m):
            a = tableau[r, enter]
            if a > PIVOT_TOL:
                ratio = tableau[r, -1] / a
                if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL and (leave < 0 or basis[r] < basis[leave])
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            raise RuntimeError("LP unbounded below; inputs are inconsistent")
        _pivot(tableau, leave, enter)
        basis[leave] = enter


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def solve_l1(contexts: np.ndarray, y: np.ndarray) -> L1Solution:
    """Minimum-L1 representation of y in the given contexts.

    contexts: (K, d) array of arm feature vectors; y: length-d target.
    Raises ZeroTargetError for y = 0 and InfeasibleTargetError when y is not
    representable.
    """
    contexts = np.asarray(contexts, dtype=float)
    y = np.asarray(y, dtype=float)
    k_arms, dim = contexts.shape
    if y.shape != (dim,):
        raise ValueError("target dimension must match the contexts")
    if np.abs(y).max() == 0.0:
        raise ZeroTargetError("target direction is zero")

    n = 2 * k_arms  # u then v columns
    a = np.concatenate([contexts.T, -contexts.T], axis=1)
    rhs = y.copy()
    flip = rhs < 0
    a[flip] *= -1.0
    rhs[flip] *= -1.0

    # phase 1: artificial basis, minimize the artificial mass
    tableau = np.zeros((dim, n + dim + 1))
    tableau[:, :n] = a
    tableau[:, n : n + dim] = np.eye(dim)
    tableau[:, -1] = rhs
    basis = list(range(n, n + dim))
    cost1 = np.zeros(n + dim)
    cost1[n:] = 1.0
    _simplex_min(tableau, basis, cost1, n + dim)
    infeas = sum(tableau[r, -1] for r, bi in enumerate(basis) if bi >= n)
    if infeas > 1e-7 * (1.0 + np.abs(y).max()):
        raise InfeasibleTargetError("target direction is outside the context span")

    # drive leftover degenerate artificials out of the basis
    keep = []
    for r in range(dim):
        if basis[r] >= n:
            enter = -1
            for j in range(n):
                if abs(tableau[r, j]) > PIVOT_TOL:
                    enter = j
                    break
            if enter < 0:
                continue  # redundant row
            _pivot(tableau, r, enter)
            basis[r] = enter
        keep.append(r)
    if len(keep) < dim:
        tableau = tableau[keep]
        basis = [basis[r] for r in keep]

    # phase 2 on the original objective, artificial columns frozen at zero
    tableau[:, n : n + dim] = 0.0
    cost2 = np.zeros(n + dim)
    cost2[:n] = 1.0
    _simplex_min(tableau, basis, cost2, n)

    z = np.zeros(n)
    for r, bi in enumerate(basis):
        z[bi] = max(tableau[r, -1], 0.0)
    w = z[:k_arms] - z[k_arms:]
    rho = float(z.sum())
    if rho <= 0.0:
        raise ZeroTargetError("optimal design has zero mass")
    p = np.abs(w) / rho
    return L1Solution(w=w, rho=rho, p=p)


def design_support(p: np.ndarray) -> list[tuple[int, float]]:
    """(k, p_k) for the 0-based arms k with p_k > SUPPORT_TOL, in order."""
    support = [(k, pk) for k, pk in enumerate(np.asarray(p, dtype=float).tolist()) if pk > SUPPORT_TOL]
    if not support:
        raise NoSupportError("selection distribution has empty support")
    return support


def least_sampled(counts, support: list[tuple[int, float]]) -> int:
    """0-based arm minimizing counts_k / p_k over a design support, ties to the lowest."""
    return min(support, key=lambda kp: counts[kp[0]] / kp[1])[0]


def informative_arm_lp(counts, p: np.ndarray) -> int:
    """Arm (1-based) minimizing counts_k / p_k over the design support."""
    return least_sampled(counts, design_support(p)) + 1
