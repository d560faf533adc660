"""Exact Kantorovich distance and optimal couplings between discrete measures.

The main solver is a transportation simplex on the measures' supports.  Its
answer is certified: marginals at 1e-9, dual feasibility and complementary
slackness of its potentials at 1e-7.  Iterated constructions compound
per-call error across levels; the 1e-9 budget keeps 20 levels below 1e-7.

Both solvers scale the support's costs by the power of two that puts the
largest in [0.5, 1); this is exact, so every cost tolerance is relative to the
largest support cost.  ``kantorovich_bruteforce`` is an independent oracle for
tiny supports, a successive-shortest-paths flow: it guards the simplex, and
the test suite also checks the simplex against HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _solve_simplex(a: np.ndarray, b: np.ndarray, dd: np.ndarray):
    """Transportation simplex (the MODI or u-v method) on a spanning-tree basis.

    Rows are nodes 0..na-1, columns na..na+nb-1, and arc (i, j) has index
    i*nb + j.  The least-cost rule gives the first basis: a tree of na+nb-1
    arcs, rooted at row 0 with potentials u, v (u[0] = 0).  Each pivot enters
    the arc of most negative reduced cost dd - u - v (Dantzig) until none is
    below -1e-12, moves the least flow of the cycle's decreasing arcs around
    it, and drops the lowest-index such arc; the subtree that cuts off gets
    new potentials.

    Termination (in exact arithmetic): a pivot that moves flow lowers the
    cost, so no basis recurs across it.  After (na+nb)//4 degenerate pivots
    in a row the entering arc is the lowest-index one of negative reduced cost,
    until flow moves: with the lowest-index leaving arc that is Bland's rule,
    under which degenerate pivots cannot cycle among the finitely many bases.
    """
    # an exact power-of-two scale puts the largest cost in [0.5, 1): the
    # tolerances below are relative to it, and the plan needs no unscaling
    dd = np.ldexp(dd, -np.frexp(dd.max())[1])
    na, nb = dd.shape
    cost = dd.tolist()
    flow, adj = _least_cost_basis(a, b, dd)
    parent, depth, pot = [-1] * (na + nb), [0] * (na + nb), [0.0] * (na + nb)
    _hang(adj, cost, na, 0, parent, depth, pot)
    stalled = 0
    while True:
        u, v = np.array(pot[:na]), np.array(pot[na:])
        reduced = (dd - u[:, None] - v[None, :]).ravel()
        k = int(np.argmin(reduced))
        if reduced[k] >= -1e-12:
            break
        if stalled >= (na + nb) // 4:
            k = int(np.argmax(reduced < -1e-12))
        # the tree path from column j to row i; its arcs alternate -, +, ..., -
        i, j = divmod(k, nb)
        up, down = [na + j], [i]
        while up[-1] != down[-1]:
            if depth[up[-1]] >= depth[down[-1]]:
                up.append(parent[up[-1]])
            else:
                down.append(parent[down[-1]])
        path = up + down[-2::-1]
        arcs = [min(x, y) * nb + max(x, y) - na for x, y in zip(path, path[1:])]
        theta = min(flow[e] for e in arcs[::2])
        leave = min(e for e in arcs[::2] if flow[e] == theta)
        for t, e in enumerate(arcs):
            flow[e] += theta if t % 2 else -theta
        del flow[leave]
        flow[k] = theta
        stalled = stalled + 1 if theta == 0.0 else 0
        li, lj = divmod(leave, nb)
        adj[li].remove(na + lj)
        adj[na + lj].remove(li)
        adj[i].append(na + j)
        adj[na + j].append(i)
        # the subtree the leaving arc cuts off now hangs from the entering arc
        root, top = (na + j, i) if arcs.index(leave) < len(up) - 1 else (i, na + j)
        parent[root], depth[root], pot[root] = top, depth[top] + 1, cost[i][j] - pot[top]
        _hang(adj, cost, na, root, parent, depth, pot)
    q = np.bincount(list(flow), list(flow.values()), na * nb).reshape(na, nb)
    slack = u[:, None] + v[None, :] - dd
    if np.max(slack) > 1e-7:
        raise RuntimeError("dual infeasibility exceeds tolerance, solver unreliable here")
    value = float(np.sum(q * dd))
    gap = abs(value - (float(a @ u) + float(b @ v)))
    if gap > 1e-7:
        raise RuntimeError(f"complementary slackness violated: duality gap {gap:.3e}")
    return q


def _least_cost_basis(a: np.ndarray, b: np.ndarray, dd: np.ndarray):
    """Flows on na+nb-1 arcs allocated cheapest first, and their adjacency lists."""
    na, nb = dd.shape
    ra, rb = a.tolist(), b.tolist()
    rows_left, cols_left = na, nb
    flow, adj = {}, [[] for _ in range(na + nb)]
    for k in np.argsort(dd, axis=None, kind="stable").tolist():
        i, j = divmod(k, nb)
        if ra[i] is None or rb[j] is None:  # a closed line
            continue
        flow[k] = x = min(ra[i], rb[j])
        ra[i] -= x
        rb[j] -= x
        adj[i].append(na + j)
        adj[na + j].append(i)
        if rows_left == cols_left == 1:
            return flow, adj
        # close one line; the last open row (column) serves the columns (rows) left
        if cols_left == 1 or (rows_left > 1 and ra[i] <= rb[j]):
            ra[i], rows_left = None, rows_left - 1
        else:
            rb[j], cols_left = None, cols_left - 1


def _hang(adj: list, cost: list, na: int, root: int, parent: list, depth: list, pot: list):
    """Set parent, depth and potential below `root` (its own are set) by a DFS."""
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y != parent[x]:
                parent[y], depth[y] = x, depth[x] + 1
                pot[y] = (cost[x][y - na] if x < na else cost[y][x - na]) - pot[x]
                stack.append(y)


def kantorovich(mu: DiscreteMeasure, nu: DiscreteMeasure,
                d: SemimetricMatrix) -> tuple[float, Coupling]:
    """Exact minimal transport cost between mu and nu over the ground semimetric.

    Returns ``(value, plan)`` where the plan is a feasible coupling and the
    value is its cost, summed from the unscaled ``d``.  The optimality
    certificate's tolerances are relative to the largest support cost.
    """
    if not (mu.size == nu.size == d.size):
        raise StructuralError(f"size mismatch: mu has {mu.size}, nu has {nu.size}, d has {d.size}")
    if np.array_equal(mu.w, nu.w):
        return 0.0, Coupling(np.diag(mu.w))
    ia, ib = np.flatnonzero(mu.w > 0), np.flatnonzero(nu.w > 0)
    value, qs = _transport_support(mu.w[ia], nu.w[ib], d.d[np.ix_(ia, ib)])
    q = np.zeros((mu.size, mu.size))
    q[np.ix_(ia, ib)] = qs
    return value, Coupling(q)


def _transport_support(a: np.ndarray, b: np.ndarray, sub: np.ndarray) -> tuple[float, np.ndarray]:
    """`kantorovich` on the supports: positive weights a, b and their costs `sub`.
    Returns the value and the plan, nonnegative and within SOLVER_TOL of a, b."""
    if len(a) == 1:
        qs = b[None, :]
    elif len(b) == 1:
        qs = a[:, None]
    elif len(a) == 2 and len(b) == 2:
        qs = _solve_2x2(a, b, sub)
    else:
        # canonical atom order keeps the solve bit-identical under relabelings
        pa = _canonical_order(a, sub)
        pb = _canonical_order(b, sub.T)
        q_sorted = _solve_simplex(a[pa], b[pb], sub[np.ix_(pa, pb)])
        qs = np.empty_like(q_sorted)
        qs[np.ix_(pa, pb)] = q_sorted

    if np.any(qs < -1e-12):
        raise RuntimeError(f"solver produced negative mass {qs.min():.3e}")
    qs = np.maximum(qs, 0.0)
    err = max(np.abs(qs.sum(axis=1) - a).max(), np.abs(qs.sum(axis=0) - b).max())
    if err > SOLVER_TOL:
        raise RuntimeError(f"plan marginals off by {err:.3e}")
    # sorted accumulation keeps the value bit-identical under atom relabelings
    return float(np.sum(np.sort((qs * sub)[qs > 0]))), qs


def _solve_2x2(a: np.ndarray, b: np.ndarray, dd: np.ndarray) -> np.ndarray:
    # one free parameter t = q[0,0]; the cost is linear in t, so an endpoint
    # wins.  Each is priced in Python floats in np.sum's order over a C-ordered
    # 2x2 array, ((x0 + x1) + x2) + x3; the first wins a tie
    (a0, a1), (b0, b1) = a.tolist(), b.tolist()
    d00, d01, d10, d11 = dd.ravel().tolist()
    plans = [(t, a0 - t, b0 - t, a1 - (b0 - t)) for t in (max(0.0, a0 - b1), min(a0, b0))]
    best = min(plans, key=lambda q: q[0] * d00 + q[1] * d01 + q[2] * d10 + q[3] * d11)
    return np.array(best).reshape(2, 2)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

ORACLE_SUPPORT_CAP = 5


def kantorovich_bruteforce(mu: DiscreteMeasure, nu: DiscreteMeasure, d: SemimetricMatrix) -> float:
    """Independent exact optimum for supports of at most 5 atoms each.

    Solves the flow problem by successive shortest augmenting paths (no LP
    library involved) on costs scaled so the largest lies in [0.5, 1); its
    thresholds are thus relative to the largest support cost.  There is no
    vertex cross-check.  Refuses larger supports.
    """
    if not (mu.size == nu.size == d.size):
        raise StructuralError("size mismatch between measures and semimetric")
    ia, ib = np.flatnonzero(mu.w > 0), np.flatnonzero(nu.w > 0)
    if len(ia) > ORACLE_SUPPORT_CAP or len(ib) > ORACLE_SUPPORT_CAP:
        raise SizeCapError(f"oracle supports at most {ORACLE_SUPPORT_CAP} atoms per side, "
                           f"got {len(ia)}x{len(ib)}")
    a, b = mu.w[ia], nu.w[ib]
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
    rem_a, rem_b = a.copy(), b.copy()
    total = 0.0
    while np.any(rem_a > 1e-15):
        dist, parent = _bellman_ford(rem_a, flow, dd)
        reachable = np.where(rem_b > 1e-15, dist[na:], np.inf)
        j = int(np.argmin(reachable))
        if not np.isfinite(reachable[j]):
            raise RuntimeError("no augmenting path; marginals inconsistent")
        path, node = [], na + j
        for _ in range(na + nb + 1):
            prev = int(parent[node])
            if prev == -2:
                break
            path.append((prev, node))
            node = prev
        else:
            raise RuntimeError("augmenting path reconstruction did not terminate")
        start = node
        # a residual arc demand->supply undoes existing flow
        push = min([rem_a[start], rem_b[j]] + [flow[v, u - na] for u, v in path if u >= na])
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
        cand = dist[:na, None] + dd
        best = cand.min(axis=0)
        improve = best < dist[na:] - 1e-15
        dist[na:][improve] = best[improve]
        parent[na:][improve] = cand.argmin(axis=0)[improve]
        # residual arcs demand->supply exist only where flow runs
        cand2 = np.where(flow > 1e-15, dist[None, na:] - dd, np.inf)
        best2 = cand2.min(axis=1)
        improve2 = best2 < dist[:na] - 1e-15
        dist[:na][improve2] = best2[improve2]
        parent[:na][improve2] = na + cand2.argmin(axis=1)[improve2]
        if not (improve.any() or improve2.any()):
            break
    return dist, parent
