"""Exact Kantorovich distance and optimal couplings between discrete measures.

The main solver reduces the transportation linear program to the measures'
supports and hands it to HiGHS (scipy), then certifies the answer: marginal
feasibility of the returned plan at 1e-9, and dual feasibility and
complementary slackness at 1e-7.  Exactness matters because iterated
constructions compound per-call error across levels; the 1e-9 budget keeps 20
iterations below 1e-7 overall.

Both solvers scale the support's costs by the power of two that puts the
largest in [0.5, 1); this is exact, so every cost tolerance is relative to the
largest support cost.  ``kantorovich_bruteforce`` is an independent oracle for
tiny supports, a hand-rolled successive-shortest-paths flow with no vertex
cross-check: HiGHS and the flow check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .errors import SizeCapError, StructuralError
from .mmspace import DiscreteMeasure, SemimetricMatrix

SOLVER_TOL = 1e-9


@dataclass(frozen=True)
class Coupling:
    """Joint nonnegative matrix transporting the first marginal to the second."""

    q: np.ndarray

    def __post_init__(self):
        q = np.ascontiguousarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise StructuralError(f"coupling must be square, got shape {q.shape}")
        if np.any(q < 0):
            raise StructuralError("coupling has negative entries")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def size(self) -> int:
        return self.q.shape[0]

    def marginal_error(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        row = np.abs(self.q.sum(axis=1) - mu.w).max()
        col = np.abs(self.q.sum(axis=0) - nu.w).max()
        return float(max(row, col))

    def cost(self, d: SemimetricMatrix) -> float:
        return float(np.sum(self.q * d.d))


def _canonical_order(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Order support atoms by a relabeling-invariant key (weight, distance profile)."""
    # lexsort's last key is the primary one; its stability breaks full ties by index
    return np.lexsort((*np.sort(rows, axis=1).T[::-1], w))


def _solve_highs(a: np.ndarray, b: np.ndarray, dd: np.ndarray):
    # an exact power-of-two scale puts the largest cost in [0.5, 1): the
    # tolerances below are relative to it, and the plan needs no unscaling
    dd = np.ldexp(dd, -np.frexp(dd.max())[1])
    na, nb = dd.shape
    nv = na * nb
    rows = np.concatenate([np.repeat(np.arange(na), nb), na + np.tile(np.arange(nb), na)])
    cols = np.concatenate([np.arange(nv), np.arange(nv)])
    A = csr_matrix((np.ones(2 * nv), (rows, cols)), shape=(na + nb, nv))
    rhs = np.concatenate([a, b])
    # last constraint is redundant (both marginals sum to 1); drop it for full rank
    res = linprog(dd.ravel(), A_eq=A[:-1], b_eq=rhs[:-1], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transportation LP failed with status {res.status}: {res.message}")
    q = np.maximum(res.x.reshape(na, nb), 0.0)
    duals = np.append(res.eqlin.marginals, 0.0)  # dropped row has potential 0
    u, v = duals[:na], duals[na:]
    slack = u[:, None] + v[None, :] - dd
    if np.max(slack) > 1e-7:
        raise RuntimeError("dual infeasibility exceeds tolerance, solver unreliable here")
    value = float(np.sum(q * dd))
    gap = abs(value - (float(a @ u) + float(b @ v)))
    if gap > 1e-7:
        raise RuntimeError(f"complementary slackness violated: duality gap {gap:.3e}")
    return q


def kantorovich(
    mu: DiscreteMeasure, nu: DiscreteMeasure, d: SemimetricMatrix
) -> tuple[float, Coupling]:
    """Exact minimal transport cost between mu and nu over the ground semimetric.

    Returns ``(value, plan)`` where the plan is a feasible coupling and the
    value is its cost, summed from the unscaled ``d``.  The optimality
    certificate's tolerances are relative to the largest support cost.
    """
    if not (mu.size == nu.size == d.size):
        raise StructuralError(
            f"size mismatch: mu has {mu.size}, nu has {nu.size}, d has {d.size}"
        )
    n = mu.size
    if np.array_equal(mu.w, nu.w):
        return 0.0, Coupling(np.diag(mu.w))

    ia = np.flatnonzero(mu.w > 0)
    ib = np.flatnonzero(nu.w > 0)
    sub = d.d[np.ix_(ia, ib)]
    a = mu.w[ia]
    b = nu.w[ib]

    if len(ia) == 1:
        qs = b[None, :].copy()
    elif len(ib) == 1:
        qs = a[:, None].copy()
    elif len(ia) == 2 and len(ib) == 2:
        qs = _solve_2x2(a, b, sub)
    else:
        # canonical atom order keeps the solve bit-identical under relabelings
        pa = _canonical_order(a, sub)
        pb = _canonical_order(b, sub.T)
        q_sorted = _solve_highs(a[pa], b[pb], sub[np.ix_(pa, pb)])
        qs = np.empty_like(q_sorted)
        qs[np.ix_(pa, pb)] = q_sorted

    if np.any(qs < -1e-12):
        raise RuntimeError(f"solver produced negative mass {qs.min():.3e}")
    q = np.zeros((n, n))
    q[np.ix_(ia, ib)] = np.maximum(qs, 0.0)
    plan = Coupling(q)
    err = plan.marginal_error(mu, nu)
    if err > SOLVER_TOL:
        raise RuntimeError(f"plan marginals off by {err:.3e}")
    # sorted accumulation keeps the value bit-identical under atom relabelings
    terms = (q * d.d)[q > 0]
    value = float(np.sum(np.sort(terms))) if terms.size else 0.0
    return value, plan


def _solve_2x2(a: np.ndarray, b: np.ndarray, dd: np.ndarray) -> np.ndarray:
    # one free parameter t = q[0,0]; the cost is linear in t, so an endpoint wins
    lo = max(0.0, a[0] - b[1])
    hi = min(a[0], b[0])

    def plan(t):
        return np.array([[t, a[0] - t], [b[0] - t, a[1] - (b[0] - t)]])

    q_lo, q_hi = plan(lo), plan(hi)
    return q_lo if np.sum(q_lo * dd) <= np.sum(q_hi * dd) else q_hi


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

ORACLE_SUPPORT_CAP = 5


def kantorovich_bruteforce(
    mu: DiscreteMeasure, nu: DiscreteMeasure, d: SemimetricMatrix
) -> float:
    """Independent exact optimum for supports of at most 5 atoms each.

    Solves the flow problem by successive shortest augmenting paths (no LP
    library involved) on costs scaled so the largest lies in [0.5, 1); its
    thresholds are thus relative to the largest support cost.  There is no
    vertex cross-check.  Refuses larger supports.
    """
    if not (mu.size == nu.size == d.size):
        raise StructuralError("size mismatch between measures and semimetric")
    ia = np.flatnonzero(mu.w > 0)
    ib = np.flatnonzero(nu.w > 0)
    if len(ia) > ORACLE_SUPPORT_CAP or len(ib) > ORACLE_SUPPORT_CAP:
        raise SizeCapError(
            f"oracle supports at most {ORACLE_SUPPORT_CAP} atoms per side, "
            f"got {len(ia)}x{len(ib)}"
        )
    a = mu.w[ia].copy()
    b = nu.w[ib].copy()
    sub = d.d[np.ix_(ia, ib)]
    _, e = np.frexp(sub.max())
    return float(np.ldexp(_min_cost_flow(a, b, np.ldexp(sub, -e)), e))


def _min_cost_flow(a: np.ndarray, b: np.ndarray, dd: np.ndarray) -> float:
    """Successive shortest paths on the bipartite residual graph.

    Nodes 0..na-1 are supply atoms, na..na+nb-1 demand atoms; parent -2 marks
    a path root (an atom with remaining supply).
    """
    na, nb = dd.shape
    flow = np.zeros((na, nb))
    rem_a = a.copy()
    rem_b = b.copy()
    total = 0.0
    while np.any(rem_a > 1e-15):
        dist, parent = _bellman_ford(rem_a, flow, dd)
        reachable = np.where(rem_b > 1e-15, dist[na:], np.inf)
        j = int(np.argmin(reachable))
        if not np.isfinite(reachable[j]):
            raise RuntimeError("no augmenting path; marginals inconsistent")
        path = []
        node = na + j
        for _ in range(na + nb + 1):
            prev = int(parent[node])
            if prev == -2:
                break
            path.append((prev, node))
            node = prev
        else:
            raise RuntimeError("augmenting path reconstruction did not terminate")
        start = node
        push = min(rem_a[start], rem_b[j])
        for u, v in path:
            if u >= na:  # residual arc demand->supply undoes existing flow
                push = min(push, flow[v, u - na])
        for u, v in path:
            if u < na:
                flow[u, v - na] += push
                total += push * dd[u, v - na]
            else:
                flow[v, u - na] -= push
                total -= push * dd[v, u - na]
        rem_a[start] -= push
        rem_b[j] -= push
    return float(total)


def _bellman_ford(rem_a, flow, dd):
    na, nb = dd.shape
    n = na + nb
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=int)
    src = rem_a > 1e-15
    dist[:na][src] = 0.0
    parent[:na][src] = -2
    for _ in range(n):
        changed = False
        cand = dist[:na, None] + dd
        best = cand.min(axis=0)
        improve = best < dist[na:] - 1e-15
        if np.any(improve):
            dist[na:][improve] = best[improve]
            parent[na:][improve] = cand.argmin(axis=0)[improve]
            changed = True
        mask = flow > 1e-15
        if mask.any():
            cand2 = np.where(mask, dist[None, na:] - dd, np.inf)
            best2 = cand2.min(axis=1)
            improve2 = best2 < dist[:na] - 1e-15
            if np.any(improve2):
                dist[:na][improve2] = best2[improve2]
                parent[:na][improve2] = na + cand2.argmin(axis=1)[improve2]
                changed = True
        if not changed:
            break
    return dist, parent
