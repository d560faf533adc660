import hashlib
import itertools
import math

import numpy as np
import pytest

from filtlab import entropy
from filtlab.errors import DomainError, InsufficientDataError, SizeCapError, StructuralError
from filtlab.entropy import (
    ScalingFamily,
    epsilon_entropy_bounds,
    epsilon_entropy_oracle,
    exponential_growth_test,
    scaled_entropy_eval,
    scaling_exponent_fit,
    _lipschitz_vertices,
)
from filtlab.mmspace import DiscreteMeasure, SemimetricMatrix
from filtlab.transport import kantorovich


def simplex_metric(n):
    return SemimetricMatrix(1.0 - np.eye(n))


def random_metric(rng, n):
    pts = rng.random((n, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    np.fill_diagonal(d, 0.0)
    return SemimetricMatrix(d)


def random_measure(rng, n):
    w = rng.random(n) + 0.05
    return DiscreteMeasure(w / w.sum())


def spanning_trees(n):
    """Every (n - 1)-subset of the pairs of K_n that connects all atoms."""
    pairs = list(itertools.combinations(range(n), 2))
    for edges in itertools.combinations(pairs, n - 1):
        reached = {0}
        for _ in range(n):
            reached |= {b for a, b in edges if a in reached} | {a for a, b in edges if b in reached}
        if len(reached) == n:
            yield edges


def lipschitz_vertices_reference(dd):
    """One (tree, signs) candidate at a time, propagated by a stack walk."""
    n = dd.shape[0]
    if n == 1:
        return np.zeros((1, 1))
    vertices = set()
    for tree in spanning_trees(n):
        edges = list(tree)
        for signs in itertools.product((1.0, -1.0), repeat=len(edges)):
            u = np.full(n, np.nan)
            u[0] = 0.0
            adj = {}
            for (a, b), s in zip(edges, signs):
                adj.setdefault(a, []).append((b, s))
                adj.setdefault(b, []).append((a, -s))
            stack = [0]
            while stack:
                cur = stack.pop()
                for nxt, s in adj.get(cur, []):
                    if np.isnan(u[nxt]):
                        u[nxt] = u[cur] + s * dd[cur, nxt]
                        stack.append(nxt)
            if np.any(np.isnan(u)):
                continue
            slack = u[:, None] - u[None, :] - dd
            if np.max(slack) <= 1e-9:
                vertices.add(tuple(np.round(u, 12)))
    return np.asarray(sorted(vertices))


def clear_oracle_caches():
    entropy._simplex_grid.cache_clear()
    entropy._space_memo.cache_clear()


class TestLipschitzVertices:
    def test_matches_reference_bytes(self):
        rng = np.random.default_rng(11)
        for n in range(1, 6):
            metrics = [1.0 - np.eye(n), np.zeros((n, n))]
            for _ in range(6):
                d = random_metric(rng, n).d
                metrics += [d, np.round(d * 4) / 4]
            if n >= 3:
                # two coincident atoms: a zero off-diagonal distance
                d = random_metric(rng, n).d.copy()
                d[1] = d[0]
                d[:, 1] = d[:, 0]
                d[0, 1] = d[1, 0] = 0.0
                metrics.append(d)
            for dd in metrics:
                got = _lipschitz_vertices(dd)
                want = lipschitz_vertices_reference(dd)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_spanning_tree_count(self):
        assert len(list(spanning_trees(3))) == 3
        assert len(list(spanning_trees(4))) == 16
        assert len(list(spanning_trees(5))) == 125

    def test_dual_value_matches_primal(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4, 5):
            d = random_metric(rng, n)
            verts = _lipschitz_vertices(d.d)
            for _ in range(20):
                mu, nu = random_measure(rng, n), random_measure(rng, n)
                dual = float(((mu.w - nu.w) @ verts.T).max())
                primal, _ = kantorovich(mu, nu, d)
                assert dual == pytest.approx(primal, abs=1e-9)


class TestEntropyBounds:
    def test_point_mass_everywhere_zero(self):
        d = simplex_metric(4)
        mu = DiscreteMeasure.point_mass(4, 2)
        for eps in (0.01, 0.3, 2.0):
            b = epsilon_entropy_bounds(d, mu, eps)
            assert b.lower == 0.0 and b.upper == 0.0

    def test_large_epsilon_single_atom(self):
        rng = np.random.default_rng(1)
        d = random_metric(rng, 5)
        mu = random_measure(rng, 5)
        worst = max(float(d.d[z] @ mu.w) for z in range(5))
        b = epsilon_entropy_bounds(d, mu, worst * 1.01)
        assert b.upper == 0.0

    def test_uniform_four_points(self):
        d = simplex_metric(4)
        mu = DiscreteMeasure.uniform(4)
        b = epsilon_entropy_bounds(d, mu, 0.05)
        assert b.upper == pytest.approx(2.0, abs=1e-12)
        assert b.lower >= 1.5
        oracle = epsilon_entropy_oracle(d, mu, 0.05)
        assert b.lower - oracle.grid_error <= oracle.value <= b.upper + oracle.grid_error

    def test_bounds_ordered_and_monotone_in_epsilon(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            d = random_metric(rng, n)
            mu = random_measure(rng, n)
            prev = None
            for eps in (0.02, 0.05, 0.1, 0.2, 0.5):
                b = epsilon_entropy_bounds(d, mu, eps)
                assert b.lower <= b.upper + 1e-12
                if prev is not None:
                    assert b.upper <= prev.upper + 1e-9
                    assert b.lower <= prev.lower + 1e-9
                prev = b

    def test_upper_at_most_log_atoms(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            d = random_metric(rng, n)
            mu = random_measure(rng, n)
            b = epsilon_entropy_bounds(d, mu, 0.01)
            assert b.upper <= math.log2(n) + 1e-12

    def test_isometry_invariance_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            d = random_metric(rng, n)
            mu = random_measure(rng, n)
            b = epsilon_entropy_bounds(d, mu, 0.1)
            perm = rng.permutation(n)
            dp = SemimetricMatrix(d.d[np.ix_(perm, perm)])
            mup = DiscreteMeasure(mu.w[perm])
            bp = epsilon_entropy_bounds(dp, mup, 0.1)
            assert (b.lower, b.upper) == (bp.lower, bp.upper)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(DomainError):
            epsilon_entropy_bounds(simplex_metric(2), DiscreteMeasure.uniform(2), 0.0)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(DomainError):
            epsilon_entropy_bounds(simplex_metric(2), DiscreteMeasure.uniform(2), math.nan)

    def test_bracket_values_pinned(self):
        # every bracket byte, over spaces with zero-weight and coincident
        # atoms, which the walk brackets (uniform measures) never have
        rng = np.random.default_rng(13)
        brackets = []
        for i in range(40):
            n = (3, 6, 12, 60)[i % 4]
            # odd rounds put the atoms on a coarse grid with weights in
            # {1, 2, 3}, so distances and weights tie
            coarse = i % 2 == 1
            pts = rng.integers(0, 4, (n, 3)) / 4 if coarse else rng.random((n, 3))
            coincident = rng.random(n) < 0.25
            coincident[0] = False
            pts[coincident] = pts[0]
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            w = rng.integers(1, 4, n).astype(float) if coarse else rng.random(n) + 0.05
            w[rng.random(n) < 0.3] = 0.0
            if not w.any():
                w[0] = 1.0
            mu = DiscreteMeasure(w / w.sum())
            for eps in (0.02, 0.05, 0.1, 0.3):
                b = epsilon_entropy_bounds(SemimetricMatrix(d), mu, eps)
                brackets.append((b.lower, b.upper, b.clamped))
        digest = hashlib.sha256(repr(brackets).encode()).hexdigest()
        assert digest == "e261ca7914839c0aaa1b77d5f4ac8c6819a9cd1e6325830e6b38aa2a69201f80"


class TestOracle:
    def test_criterion7_prefix_pinned(self):
        # (value, grid_error) of the first 40 spaces of acceptance criterion 7
        rng = np.random.default_rng(707)
        out = []
        for _ in range(40):
            n = int(rng.integers(2, 6))
            d = random_metric(rng, n)
            raw = rng.random(n) + 1e-3
            mu = DiscreteMeasure(raw / raw.sum())
            for eps in (0.05, 0.1, 0.3):
                o = epsilon_entropy_oracle(d, mu, eps)
                out.append((o.value, o.grid_error))
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == "0c6a98531cb64646c3668bab21719ccbec228632077ff0b2bb161bfc0307a97f"

    @pytest.mark.parametrize("atoms", [1, 2, 4])
    def test_rejects_size_mismatch(self, atoms):
        with pytest.raises(StructuralError, match="sizes differ"):
            epsilon_entropy_oracle(simplex_metric(3), DiscreteMeasure.uniform(atoms), 0.1)

    @pytest.mark.parametrize("n", [2, 4])
    def test_cache_keys_separate_measures_and_metrics(self, n):
        # at 2 atoms nothing is refined: the coarse pass alone sets the value
        rng = np.random.default_rng(12)
        d = random_metric(rng, n)
        changed = d.d.copy()
        # halfway to the longest d(0, 1) the triangle inequality allows
        longest = min((d.d[0, k] + d.d[k, 1] for k in range(2, n)), default=2 * d.d[0, 1])
        changed[0, 1] = changed[1, 0] = (d.d[0, 1] + longest) / 2
        a, b = random_measure(rng, n), random_measure(rng, n)
        spaces = [(d, a), (d, b), (SemimetricMatrix(changed), a)]
        epsilons = (0.05, 0.1, 0.3)
        warm = [[epsilon_entropy_oracle(dd, mu, eps) for eps in epsilons] for dd, mu in spaces]
        cold = []
        for dd, mu in spaces:
            clear_oracle_caches()
            cold.append([epsilon_entropy_oracle(dd, mu, eps) for eps in epsilons])
        assert warm == cold
        assert cold[0] != cold[1] and cold[0] != cold[2]

    def test_memo_holds_the_last_space(self):
        rng = np.random.default_rng(14)
        first = (random_metric(rng, 4), random_measure(rng, 4))
        second = (random_metric(rng, 4), random_measure(rng, 4))
        clear_oracle_caches()
        for eps in (0.05, 0.1, 0.3):
            epsilon_entropy_oracle(*first, eps)
        info = entropy._space_memo.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        epsilon_entropy_oracle(*second, 0.1)
        epsilon_entropy_oracle(*first, 0.1)
        info = entropy._space_memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 2, 1)

    def test_cached_arrays_read_only(self):
        d = simplex_metric(4)
        epsilon_entropy_oracle(d, DiscreteMeasure.uniform(4), 0.1)
        lams, entropies = entropy._simplex_grid(4, (0, 1, 2), entropy._coarse_step(3))
        vertices, kvalues = entropy._space_memo(d.d.tobytes(), DiscreteMeasure.uniform(4).w.tobytes())
        for array in (lams, entropies, vertices, kvalues[-1]):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_chunked_kvalues_equal_whole_product(self):
        rng = np.random.default_rng(13)
        d = random_metric(rng, 5)
        w = random_measure(rng, 5).w
        potentials = _lipschitz_vertices(d.d)
        lams, _ = entropy._simplex_grid(5, (0, 1, 2, 3, 4), entropy._coarse_step(5))
        assert len(lams) * len(potentials) > 4 * entropy._KVALUE_BUDGET  # several chunks
        whole = ((lams - w) @ potentials.T).max(axis=1)
        assert entropy._kvalues(lams, w, potentials).tobytes() == whole.tobytes()

    def test_refuses_large(self):
        with pytest.raises(SizeCapError):
            epsilon_entropy_oracle(simplex_metric(6), DiscreteMeasure.uniform(6), 0.1)

    def test_rejects_nan_epsilon(self):
        with pytest.raises(DomainError):
            epsilon_entropy_oracle(simplex_metric(2), DiscreteMeasure.uniform(2), math.nan)

    def test_point_mass(self):
        result = epsilon_entropy_oracle(simplex_metric(3), DiscreteMeasure.point_mass(3, 0), 0.1)
        assert result.value == 0.0

    def test_two_equal_atoms_merge(self):
        d = simplex_metric(2)
        mu = DiscreteMeasure.uniform(2)
        # one atom carries everything at transport cost 0.5 < 0.6
        assert epsilon_entropy_oracle(d, mu, 0.6).value == 0.0
        # with eps = 0.4 the merge is infeasible and compression is partial
        mid = epsilon_entropy_oracle(d, mu, 0.4).value
        assert 0.0 < mid < 1.0

    def test_containment_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            d = random_metric(rng, n)
            mu = random_measure(rng, n)
            for eps in (0.05, 0.1, 0.3):
                b = epsilon_entropy_bounds(d, mu, eps)
                o = epsilon_entropy_oracle(d, mu, eps)
                assert b.lower - o.grid_error <= o.value <= b.upper + o.grid_error


class TestScalingFamily:
    def test_power_evaluate(self):
        fam = ScalingFamily(form="power", beta=1.5)
        assert fam.evaluate(0.25, 4) == pytest.approx((4 * 2.0) ** 1.5)

    def test_exponential_evaluate(self):
        fam = ScalingFamily(form="exponential", radices=(2, 2, 3))
        assert fam.evaluate(0.1, 3) == 12.0

    def test_grid_validation(self):
        fam = ScalingFamily(form="power", beta=1.0)
        assert fam.validate_on_grid([0.1, 0.2, 0.3], [1, 2, 3, 4])
        bad = ScalingFamily(form="power", beta=0.0)  # constant in n
        assert not bad.validate_on_grid([0.1, 0.2], [1, 2, 3])

    def test_strict_equivalence(self):
        base = ScalingFamily(form="power", beta=1.0)
        table = {
            (eps, n): base.evaluate(eps, n) * (1 + 1.0 / n)
            for eps in (0.1, 0.2, 0.3)
            for n in range(1, 129)
        }
        near = ScalingFamily(form="table", table=table)
        levels = list(range(1, 129))
        assert base.strictly_equivalent(near, [0.1, 0.2, 0.3], levels)
        far = ScalingFamily(form="power", beta=2.0)
        assert not base.strictly_equivalent(far, [0.1, 0.2, 0.3], levels)


class TestScaledEntropyEval:
    def test_proportional_table(self):
        fam = ScalingFamily(form="power", beta=1.0)
        table = {
            (eps, n): 2.5 * fam.evaluate(eps, n)
            for eps in (0.1, 0.2, 0.3)
            for n in (1, 2, 3, 4, 5, 6, 7, 8)
        }
        result = scaled_entropy_eval(table, fam)
        assert result.h == pytest.approx(2.5, abs=1e-12)

    def test_zero_table(self):
        fam = ScalingFamily(form="power", beta=1.0)
        table = {(eps, n): 0.0 for eps in (0.1, 0.2, 0.3) for n in (1, 2, 3, 4)}
        assert scaled_entropy_eval(table, fam).h == 0.0

    def test_homogeneous(self):
        rng = np.random.default_rng(6)
        fam = ScalingFamily(form="power", beta=1.0)
        table = {
            (eps, n): float(rng.random() + 0.5) * fam.evaluate(eps, n)
            for eps in (0.1, 0.2, 0.3)
            for n in (1, 2, 3, 4)
        }
        h1 = scaled_entropy_eval(table, fam).h
        h3 = scaled_entropy_eval({k: 3.0 * v for k, v in table.items()}, fam).h
        assert h3 == pytest.approx(3.0 * h1, abs=1e-12)

    def test_strictly_equivalent_scalings_agree(self):
        # same proportional table read against c and c * (1 + 1/n)
        fam = ScalingFamily(form="power", beta=1.0)
        levels = list(range(1, 129))
        epsilons = (0.05, 0.1, 0.2)
        table = {(eps, n): 2.5 * fam.evaluate(eps, n) for eps in epsilons for n in levels}
        near = ScalingFamily(
            form="table",
            table={(eps, n): fam.evaluate(eps, n) * (1 + 1.0 / n) for eps in epsilons for n in levels},
        )
        h1 = scaled_entropy_eval(table, fam).h
        h2 = scaled_entropy_eval(table, near).h
        assert abs(h1 - h2) / h1 < 0.01

    def test_insufficient_grid(self):
        fam = ScalingFamily(form="power", beta=1.0)
        with pytest.raises(InsufficientDataError):
            scaled_entropy_eval({(0.1, 1): 1.0, (0.2, 1): 1.0}, fam)


class TestScalingExponentFit:
    def test_exact_power_law(self):
        table = {
            (eps, n): (n * math.log2(1 / eps)) ** 1.5
            for eps in (0.1, 0.2, 0.3)
            for n in range(3, 9)
        }
        fit = scaling_exponent_fit(table)
        assert fit.beta_hat == pytest.approx(1.5, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_constant_table(self):
        table = {(eps, n): 7.0 for eps in (0.1, 0.2, 0.3) for n in range(3, 9)}
        fit = scaling_exponent_fit(table)
        assert fit.beta_hat == pytest.approx(0.0, abs=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            scaling_exponent_fit({(0.1, 1): 0.0, (0.1, 2): 0.0})


class TestExponentialGrowthTest:
    def test_exponential(self):
        verdict = exponential_growth_test({n: 2.0**n for n in range(1, 8)})
        assert verdict.verdict == "exponential"
        assert verdict.rate == pytest.approx(1.0, abs=1e-9)

    def test_polynomial_is_subexponential(self):
        verdict = exponential_growth_test({n: float(n**2) for n in range(1, 8)})
        assert verdict.verdict == "subexponential"

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            exponential_growth_test({1: 1.0, 2: 2.0})
