import gc
import hashlib
import math
import weakref

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


def clear_oracle_caches():
    entropy._vertex_memo.cache_clear()


def tied_space(rng, n):
    """Random points with about a quarter coincident with atom 0 and about 30%
    of the weights zero; about half the spaces put the points on a coarse
    grid with weights in {1, 2, 3}, so that distances and weights tie."""
    coarse = rng.random() < 0.5
    pts = rng.integers(0, 4, (n, 3)) / 4 if coarse else rng.random((n, 3))
    coincident = rng.random(n) < 0.25
    coincident[0] = False
    pts[coincident] = pts[0]
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    w = rng.integers(1, 4, n).astype(float) if coarse else rng.random(n) + 0.05
    w[rng.random(n) < 0.3] = 0.0
    if not w.any():
        w[0] = 1.0
    return SemimetricMatrix(d), DiscreteMeasure(w / w.sum())


def greedy_merges(dd, w):
    """Every merge of the upper bound's greedy loop, run down to one atom, as
    (cumulative push cost, merged measure, each atom's target)."""
    n = len(w)
    assignment = np.arange(n)
    weights = w.copy()
    spent = 0.0
    merges = []
    while np.count_nonzero(weights) > 1:
        support = np.flatnonzero(weights > 0)
        sub = dd[np.ix_(support, support)].copy()
        np.fill_diagonal(sub, np.inf)
        move = weights[support, None] * sub
        src, dst = support[list(np.unravel_index(int(np.argmin(move)), move.shape))]
        spent += float(move.min())
        weights[dst] += weights[src]
        weights[src] = 0.0
        assignment[assignment == src] = dst
        merges.append((spent, entropy._cell_masses(assignment, w, n), assignment.copy()))
    return merges


def sorted_sum(terms):
    return float(np.sum(np.sort(terms[terms > 0])))


def map_cost(dd, w, cells):
    """Cost of the coupling that moves atom i to atom cells[i]."""
    return sorted_sum(w * dd[np.arange(len(w)), cells])


def support_floor(dd, w, lam):
    """sum_i w_i min over the support of lam of d_ij, at most W(lam, mu)."""
    return sorted_sum(w * dd[:, lam > 0].min(axis=1))


def at_most(a, b):
    return a <= b + 1e-12 * abs(b)


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


class TestUpperBoundCertificates:
    """The upper bound settles a candidate quantization lam by bounds on
    W(lam, mu) that need no LP: a Voronoi rung by its own cost, a greedy merge
    by the cost of its map or by the support floor."""

    def test_greedy_floor_transport_map_push_ordered(self):
        rng = np.random.default_rng(17)
        checked = 0
        for i in range(24):
            d, mu = tied_space(rng, (3, 6, 12, 24)[i % 4])
            for spent, lam, cells in greedy_merges(d.d, mu.w):
                value = kantorovich(DiscreteMeasure(lam), mu, d)[0]
                mapped = map_cost(d.d, mu.w, cells)
                assert at_most(support_floor(d.d, mu.w, lam), value)
                assert at_most(value, mapped)
                assert at_most(mapped, spent)
                checked += 1
        assert checked > 100

    def test_voronoi_rung_floor_is_its_cost(self):
        rng = np.random.default_rng(18)
        for i in range(40):
            d, mu = tied_space(rng, (3, 6, 12, 60)[i % 4])
            for cells in entropy._voronoi_ladder(d.d, mu.w):
                lam = entropy._cell_masses(cells, mu.w, d.size)
                cost = map_cost(d.d, mu.w, cells)
                assert support_floor(d.d, mu.w, lam) == pytest.approx(cost, rel=4e-16, abs=0)

    def test_lp_only_where_floor_and_map_straddle_the_budget(self, monkeypatch):
        calls = []

        def counting(lam, mu, d):
            calls.append(lam.w)
            return kantorovich(lam, mu, d)

        monkeypatch.setattr(entropy, "kantorovich", counting)
        rng = np.random.default_rng(19)
        verified = 0
        for i in range(80):
            d, mu = tied_space(rng, (6, 12, 24, 48)[i % 4])
            for eps in (0.02, 0.05, 0.1, 0.3):
                calls.clear()
                epsilon_entropy_bounds(d, mu, eps)
                budget = entropy._strict_budget(d, eps)
                over = [m for m in greedy_merges(d.d, mu.w) if m[0] > budget][:8]
                for lam in calls:
                    (_, _, cells), = [m for m in over if np.array_equal(m[1], lam)]
                    assert support_floor(d.d, mu.w, lam) <= budget < map_cost(d.d, mu.w, cells)
                verified += len(calls)
        assert verified > 0

    def test_merge_within_its_push_costs_but_not_its_map_cost(self):
        # no triangle inequality: the push costs of the two merges sum to
        # 0.03, but their map sends everything to atom 2 at cost 0.11, and
        # every one-atom quantization costs at least 0.09 > eps
        d = SemimetricMatrix([[0, 0.1, 1], [0.1, 0, 0.1], [1, 0.1, 0]])
        assert epsilon_entropy_bounds(d, DiscreteMeasure([0.1, 0.1, 0.8]), 0.05).upper > 0

    def test_positive_without_a_single_atom_in_budget(self):
        # random semimetrics that mostly break the triangle inequality
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(3, 8))
            d = np.triu(rng.random((n, n)) ** 3, 1)
            d = SemimetricMatrix(d + d.T)
            w = rng.random(n) + 0.05
            mu = DiscreteMeasure(w / w.sum())
            single = min(map_cost(d.d, mu.w, np.full(n, z)) for z in range(n))
            for eps in (0.02, 0.05, 0.1):
                if single > entropy._strict_budget(d, eps):
                    assert epsilon_entropy_bounds(d, mu, eps).upper > 0, (n, eps)
                    checked += 1
        assert checked > 400


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
        assert digest == "5e19a59ea6c38bd34947ddba52c123950dcbc8f80d35be1c5a6ad2412dc2379c"

    @pytest.mark.parametrize("atoms", [1, 2, 4])
    def test_rejects_size_mismatch(self, atoms):
        with pytest.raises(StructuralError, match="sizes differ"):
            epsilon_entropy_oracle(simplex_metric(3), DiscreteMeasure.uniform(atoms), 0.1)

    @pytest.mark.parametrize("n", [2, 4])
    def test_cache_keys_separate_measures_and_metrics(self, n):
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
        info = entropy._vertex_memo.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        epsilon_entropy_oracle(*second, 0.1)
        epsilon_entropy_oracle(*first, 0.1)
        info = entropy._vertex_memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 2, 1)

    def test_memo_frees_the_previous_space(self):
        rng = np.random.default_rng(15)
        first = (random_metric(rng, 5), random_measure(rng, 5))
        second = (random_metric(rng, 5), random_measure(rng, 5))
        clear_oracle_caches()
        epsilon_entropy_oracle(*first, 0.1)
        costs, pushes, splits = entropy._vertex_memo(first[0].d.tobytes(), first[1].w.tobytes())
        held = [weakref.ref(array) for array in (costs, pushes, *splits)]
        del costs, pushes, splits
        epsilon_entropy_oracle(*second, 0.1)
        gc.collect()
        assert entropy._vertex_memo.cache_info().currsize == 1
        assert all(ref() is None for ref in held)

    def test_cached_arrays_read_only(self):
        d = simplex_metric(4)
        mu = DiscreteMeasure.uniform(4)
        epsilon_entropy_oracle(d, mu, 0.1)
        costs, pushes, splits = entropy._vertex_memo(d.d.tobytes(), mu.w.tobytes())
        assert len(costs) == 4**4 and len(splits[0]) > 0
        for array in (costs, pushes, *splits):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_below_the_grid_value_on_criterion7_space_93(self):
        # at eps 0.05 the grid search read 1.5322 with a grid_error of 0.0554;
        # the least entropy within budget is 1.4624
        rng = np.random.default_rng(707)
        for _ in range(94):
            n = int(rng.integers(2, 6))
            d = random_metric(rng, n)
            raw = rng.random(n) + 1e-3
            mu = DiscreteMeasure(raw / raw.sum())
        o = epsilon_entropy_oracle(d, mu, 0.05)
        assert o.value < 1.5322 - 0.0554
        assert epsilon_entropy_bounds(d, mu, 0.05).contains(o.value, slack=1e-9)

    @pytest.mark.parametrize("kind", ["random", "tied", "simplex", "line"])
    def test_minimizer_within_budget_and_unbeaten(self, kind):
        # the definition, checked directly: an exact transport solve puts the
        # reported weights within budget of mu, and no feasible point among
        # 200 Dirichlet draws, half near mu and half near the weights, has
        # lower entropy
        rng = np.random.default_rng(21)
        feasible = 0
        for n in range(2, 6):
            for _ in range(2 if kind in ("random", "tied") else 1):
                if kind == "random":
                    d, mu = random_metric(rng, n), random_measure(rng, n)
                elif kind == "tied":
                    d, mu = tied_space(rng, n)
                elif kind == "simplex":
                    d, mu = simplex_metric(n), random_measure(rng, n)
                else:
                    pts = np.arange(n) / (n - 1)
                    d, mu = SemimetricMatrix(np.abs(pts[:, None] - pts[None, :])), random_measure(rng, n)
                for eps in (0.05, 0.1, 0.3):
                    o = epsilon_entropy_oracle(d, mu, eps)
                    budget = entropy._strict_budget(d, eps)
                    weights = np.asarray(o.weights)
                    if np.count_nonzero(weights) > 1:
                        assert o.value == entropy._entropy_bits(weights)
                    else:
                        assert o.value == 0.0 and math.copysign(1.0, o.value) == 1.0  # not -0.0
                    assert kantorovich(DiscreteMeasure(weights), mu, d)[0] <= budget * (1 + 1e-12)
                    centres = np.repeat([mu.w, weights], 100, axis=0)
                    t = rng.random((200, 1)) ** 3
                    for lam in (1 - t) * centres + t * rng.dirichlet(np.ones(n), 200):
                        if kantorovich(DiscreteMeasure(lam), mu, d)[0] <= budget:
                            feasible += 1
                            assert entropy._entropy_bits(lam) >= o.value - o.grid_error
        assert feasible > 0

    def test_value_keeps_its_bytes_under_relabelling(self):
        rng = np.random.default_rng(22)
        for i in range(40):
            n = int(rng.integers(2, 6))
            d, mu = tied_space(rng, n) if i % 2 else (random_metric(rng, n), random_measure(rng, n))
            perm = rng.permutation(n)
            dp, mup = SemimetricMatrix(d.d[np.ix_(perm, perm)]), DiscreteMeasure(mu.w[perm])
            for eps in (0.05, 0.1, 0.3):
                assert epsilon_entropy_oracle(dp, mup, eps).value == epsilon_entropy_oracle(d, mu, eps).value

    def test_power_of_two_scales_keep_every_byte(self):
        # d and epsilon scaled by 2^k: the strict margin scales with max d,
        # so the oracle and both bracket ends keep their bytes
        rng = np.random.default_rng(3)
        spaces = [tied_space(rng, 5) if i % 2 else (random_metric(rng, 5), random_measure(rng, 5))
                  for i in range(8)]
        epsilons = (0.05, 0.1, 0.3)
        for d, mu in spaces:
            unit = [(epsilon_entropy_oracle(d, mu, eps), epsilon_entropy_bounds(d, mu, eps)) for eps in epsilons]
            for k in range(-40, 41, 4):
                s = 2.0**k
                ds = SemimetricMatrix(d.d * s)
                for eps, (o, b) in zip(epsilons, unit):
                    assert epsilon_entropy_oracle(ds, mu, eps * s) == o
                    bs = epsilon_entropy_bounds(ds, mu, eps * s)
                    assert (bs.lower, bs.upper, bs.clamped) == (b.lower, b.upper, b.clamped)

    def test_epsilon_under_the_strict_margin_leaves_mu(self):
        # the budget would be negative; mu itself is still within epsilon
        rng = np.random.default_rng(23)
        d, mu = random_metric(rng, 4), random_measure(rng, 4)
        o = epsilon_entropy_oracle(d, mu, 1e-14)
        assert o.weights == tuple(mu.w.tolist())
        assert o.value == entropy._entropy_bits(mu.w)

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
