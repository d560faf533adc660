import numpy as np
import pytest

from filtlab.errors import SizeCapError, StructuralError
from filtlab.mmspace import DiscreteMeasure, SemimetricMatrix
from filtlab.transport import Coupling, _canonical_order, kantorovich, kantorovich_bruteforce


def discrete_metric(n):
    return SemimetricMatrix(1.0 - np.eye(n))


def line_metric(n):
    idx = np.arange(n, dtype=float)
    return SemimetricMatrix(np.abs(idx[:, None] - idx[None, :]))


def random_metric(rng, n):
    """Random metric from points on a line segment plus discrete jitter."""
    pts = rng.random((n, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(d, 0.0)
    return SemimetricMatrix(d)


def random_measure(rng, n, support=None):
    w = np.zeros(n)
    if support is None:
        support = range(n)
    support = list(support)
    raw = rng.random(len(support)) + 1e-3
    w[support] = raw / raw.sum()
    return DiscreteMeasure(w)


class TestKantorovich:
    def test_point_masses_forced_coupling(self):
        d = discrete_metric(2)
        value, plan = kantorovich(DiscreteMeasure.point_mass(2, 0), DiscreteMeasure.point_mass(2, 1), d)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert plan.q[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_equal_measures_diagonal_plan(self):
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 5)
        value, plan = kantorovich(mu, mu, random_metric(rng, 5))
        assert value == 0.0
        assert np.array_equal(plan.q, np.diag(mu.w))

    def test_two_point_closed_form(self):
        d = discrete_metric(2)
        mu = DiscreteMeasure([0.3, 0.7])
        nu = DiscreteMeasure([0.5, 0.5])
        value, plan = kantorovich(mu, nu, d)
        assert value == pytest.approx(0.2, abs=1e-12)
        assert plan.marginal_error(mu, nu) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            kantorovich(DiscreteMeasure.uniform(3), DiscreteMeasure.uniform(4), discrete_metric(4))

    def test_plan_is_feasible_and_value_matches(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            d = random_metric(rng, n)
            mu, nu = random_measure(rng, n), random_measure(rng, n)
            value, plan = kantorovich(mu, nu, d)
            assert plan.marginal_error(mu, nu) <= 1e-9
            assert value == pytest.approx(plan.cost(d), abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        for t in [0.0, 0.5, 3.0]:
            n = 6
            d = random_metric(rng, n)
            mu, nu = random_measure(rng, n), random_measure(rng, n)
            v1, _ = kantorovich(mu, nu, d)
            v2, _ = kantorovich(mu, nu, d.scaled(t))
            assert v2 == pytest.approx(t * v1, abs=1e-9)

    def test_trivial_coupling_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            d = random_metric(rng, n)
            mu, nu = random_measure(rng, n), random_measure(rng, n)
            value, _ = kantorovich(mu, nu, d)
            bound = 0.5 * np.abs(mu.w - nu.w).sum() * d.d.max()
            assert value <= bound + 1e-9

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(4)
        n = 7
        d = random_metric(rng, n)
        for _ in range(60):
            mu, nu, tau = (random_measure(rng, n) for _ in range(3))
            vmn, _ = kantorovich(mu, nu, d)
            vnm, _ = kantorovich(nu, mu, d)
            assert vmn == pytest.approx(vnm, abs=1e-9)
            vmt, _ = kantorovich(mu, tau, d)
            vtn, _ = kantorovich(tau, nu, d)
            assert vmn <= vmt + vtn + 1e-8

    def test_relabeling_keeps_value_bit_identical(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            d = random_metric(rng, n)
            mu, nu = random_measure(rng, n), random_measure(rng, n)
            v1, _ = kantorovich(mu, nu, d)
            perm = rng.permutation(n)
            dp = SemimetricMatrix(d.d[np.ix_(perm, perm)])
            mup = DiscreteMeasure(mu.w[perm])
            nup = DiscreteMeasure(nu.w[perm])
            v2, _ = kantorovich(mup, nup, dp)
            assert v1 == v2

    def test_canonical_order_matches_tuple_sort(self):
        # reference: sort atoms by (weight, sorted distance row, index) as tuples
        rng = np.random.default_rng(21)
        for _ in range(2000):
            na, nb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            w = rng.choice([0.25, 0.5, 1.0 / 3.0], size=na)
            rows = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=(na, nb))
            keys = [(w[i], tuple(np.sort(rows[i])), i) for i in range(na)]
            want = sorted(range(na), key=keys.__getitem__)
            assert _canonical_order(w, rows).tolist() == want


class TestBruteforceOracle:
    def test_refuses_large_support(self):
        with pytest.raises(SizeCapError):
            kantorovich_bruteforce(DiscreteMeasure.uniform(6), DiscreteMeasure.uniform(6), discrete_metric(6))

    def test_equal_measures(self):
        mu = DiscreteMeasure([0.2, 0.3, 0.5])
        assert kantorovich_bruteforce(mu, mu, discrete_metric(3)) == pytest.approx(0.0, abs=1e-12)

    def test_line_metric_to_delta(self):
        mu = DiscreteMeasure.uniform(3)
        nu = DiscreteMeasure.point_mass(3, 0)
        assert kantorovich_bruteforce(mu, nu, line_metric(3)) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_matches_solver(self):
        rng = np.random.default_rng(6)
        for _ in range(150):
            n = int(rng.integers(2, 8))
            d = random_metric(rng, n)
            ka = int(rng.integers(1, min(n, 5) + 1))
            kb = int(rng.integers(1, min(n, 5) + 1))
            mu = random_measure(rng, n, rng.choice(n, size=ka, replace=False))
            nu = random_measure(rng, n, rng.choice(n, size=kb, replace=False))
            value, _ = kantorovich(mu, nu, d)
            oracle = kantorovich_bruteforce(mu, nu, d)
            assert value == pytest.approx(oracle, abs=1e-9)


SCALES = [1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 2.0**-30, 2.0**30]


class TestScaleFree:
    """Both solvers' tolerances are relative to the largest support cost."""

    def test_scale_sweep_matches_unit_scale(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 12
            d = random_metric(rng, n)
            mu, nu = random_measure(rng, n), random_measure(rng, n)
            mu5, nu5 = (random_measure(rng, n, rng.choice(n, size=5, replace=False)) for _ in range(2))
            highs, flow = kantorovich(mu, nu, d)[0], kantorovich_bruteforce(mu5, nu5, d)
            for t in SCALES:
                dt = d.scaled(t)
                assert kantorovich(mu, nu, dt)[0] == pytest.approx(t * highs, rel=1e-12, abs=0)
                assert kantorovich_bruteforce(mu5, nu5, dt) == pytest.approx(t * flow, rel=1e-12, abs=0)

    def test_line_closed_form(self):
        # on the real line W1 = sum_k |F_k - G_k| (x_{k+1} - x_k) over sorted points
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = 8
            x = np.sort(rng.random(n))
            mu = random_measure(rng, n, rng.choice(n, size=int(rng.integers(1, 6)), replace=False))
            nu = random_measure(rng, n, rng.choice(n, size=int(rng.integers(1, 6)), replace=False))
            for t in [1e-9, 1e-3, 1.0, 1e3, 1e9]:
                xt = x * t
                d = SemimetricMatrix(np.abs(xt[:, None] - xt[None, :]))
                gap = np.abs(np.cumsum(mu.w) - np.cumsum(nu.w))[:-1]
                exact = float(np.sum(gap * np.diff(xt)))
                assert kantorovich(mu, nu, d)[0] == pytest.approx(exact, rel=1e-12, abs=0)
                assert kantorovich_bruteforce(mu, nu, d) == pytest.approx(exact, rel=1e-12, abs=0)


class TestCoupling:
    def test_rejects_negative(self):
        with pytest.raises(StructuralError):
            Coupling(np.array([[0.5, -0.1], [0.3, 0.3]]))
