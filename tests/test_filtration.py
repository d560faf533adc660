import itertools

import numpy as np
import pytest

from filtlab import transport
from filtlab.errors import StructuralError
from filtlab.filtration import (
    cylinder_hamming,
    dyadic_bernoulli_chain,
    iterate_semimetric,
    mean_distance,
    standardness_profile,
)
from filtlab.mmspace import (
    DiscreteMeasure,
    Partition,
    PartitionChain,
    SemimetricMatrix,
    validate_semimetric,
)
from filtlab.transport import kantorovich


def discrete_metric(n):
    return SemimetricMatrix(1.0 - np.eye(n))


class TestIterateSemimetric:
    def test_four_point_split(self):
        # conditional uniforms on {0,1} and {2,3} have disjoint supports at
        # distance 1, so every unit of mass travels distance 1
        mu = DiscreteMeasure.uniform(4)
        chain = PartitionChain(4, (Partition.from_blocks(4, [[0, 1], [2, 3]]),))
        levels = iterate_semimetric(discrete_metric(4), mu, chain)
        assert levels[0].matrix.d[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert levels[0].point_distance(0, 1) == 0.0
        assert levels[0].point_distance(0, 2) == pytest.approx(1.0, abs=1e-12)

    def test_same_block_distance_zero(self):
        mu, chain = dyadic_bernoulli_chain(4)
        rho0 = cylinder_hamming(4, 4)
        levels = iterate_semimetric(rho0, mu, chain)
        for lv in levels:
            lifted = lv.lift_to_points()
            for members in lv.partition.blocks:
                sub = lifted[np.ix_(list(members), list(members))]
                assert np.all(sub == 0.0)

    def test_singleton_chain_preserves_rho(self):
        n = 5
        rng = np.random.default_rng(0)
        pts = rng.random((n, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        np.fill_diagonal(d, 0.0)
        rho0 = SemimetricMatrix(d)
        w = rng.random(n)
        mu = DiscreteMeasure(w / w.sum())
        chain = PartitionChain(n, (Partition.singletons(n), Partition.singletons(n)))
        levels = iterate_semimetric(rho0, mu, chain)
        for lv in levels:
            assert np.allclose(lv.matrix.d, rho0.d, atol=1e-12)

    def test_levels_are_valid_semimetrics(self):
        mu, chain = dyadic_bernoulli_chain(5)
        levels = iterate_semimetric(cylinder_hamming(5, 3), mu, chain)
        for lv in levels:
            report = validate_semimetric(lv.matrix.d)
            assert report.valid

    def test_depth_beyond_chain_raises(self):
        mu, chain = dyadic_bernoulli_chain(3)
        with pytest.raises(StructuralError):
            iterate_semimetric(cylinder_hamming(3, 3), mu, chain, depth=5)

    def test_negative_depth_raises(self):
        mu, chain = dyadic_bernoulli_chain(3)
        with pytest.raises(StructuralError):
            iterate_semimetric(cylinder_hamming(3, 3), mu, chain, depth=-1)
        with pytest.raises(StructuralError):
            standardness_profile(cylinder_hamming(3, 3), mu, chain, depth=-1)
        assert iterate_semimetric(cylinder_hamming(3, 3), mu, chain, depth=0) == []

    def test_null_blocks_skipped_not_fatal(self):
        from filtlab.errors import DegenerateBlockError

        # atoms 4,5 carry no mass; the block {4,5} is null: direct queries
        # error, everything else proceeds and ignores it
        mu = DiscreteMeasure([0.25, 0.25, 0.25, 0.25, 0.0, 0.0])
        chain = PartitionChain(
            6, (Partition.from_blocks(6, [[0, 1], [2, 3], [4, 5]]),)
        )
        level = iterate_semimetric(discrete_metric(6), mu, chain)[0]
        assert list(level.null_blocks) == [False, False, True]
        assert level.point_distance(0, 2) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DegenerateBlockError):
            level.point_distance(0, 4)
        masses = level.block_mass
        assert masses[2] == 0.0
        assert mean_distance(level.matrix, DiscreteMeasure(masses)) == pytest.approx(
            0.5, abs=1e-12
        )


def dense_levels(rho0, mu, chain):
    """Each level's matrix the long way: full-size conditional measures over the
    previous quotient, every non-null block pair through public kantorovich."""
    out = []
    prev_d, prev_mass, prev_part = rho0, mu.w, Partition.singletons(mu.size)
    for xi in chain.partitions:
        node_block = np.empty(prev_d.size, dtype=int)
        node_block[prev_part.block_of] = xi.block_of
        mass = np.bincount(node_block, weights=prev_mass, minlength=xi.n_blocks)
        conds = {}
        for b in np.flatnonzero(mass > 0):
            members = np.flatnonzero(node_block == b)
            w = np.zeros(prev_d.size)
            w[members] = prev_mass[members] / mass[b]
            conds[b] = DiscreteMeasure(w)
        d = np.zeros((xi.n_blocks, xi.n_blocks))
        for b, c in itertools.combinations(conds, 2):
            d[b, c] = d[c, b] = kantorovich(conds[b], conds[c], prev_d)[0]
        out.append(d)
        prev_d, prev_mass, prev_part = SemimetricMatrix(d), mass, xi
    return out


class TestSupportLevelSolve:
    def test_bitwise_equal_to_dense_reference(self):
        # random chains with zero-weight atoms, null blocks and coincident
        # atoms; the blocks' supports span the 1-atom, 2x2 and simplex paths
        rng = np.random.default_rng(19)
        seen = set()
        for _ in range(30):
            n = int(rng.integers(8, 25))
            pts = rng.random((n, 2))
            dup = rng.random(n) < 0.25
            pts[dup] = pts[rng.integers(0, n, size=int(dup.sum()))]
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            np.fill_diagonal(d, 0.0)
            rho0 = SemimetricMatrix(d)
            w = rng.random(n) * (rng.random(n) > 0.35)
            w[0] += 0.1
            mu = DiscreteMeasure(w / w.sum())
            labels, parts = np.arange(n), []
            while len(np.unique(labels)) > 1:
                k = len(np.unique(labels))
                merge_into = rng.integers(0, max(1, k // 3), size=k)
                _, labels = np.unique(merge_into[labels], return_inverse=True)
                parts.append(Partition(labels))
            chain = PartitionChain(n, tuple(parts))

            levels = iterate_semimetric(rho0, mu, chain)
            for lv, ref in zip(levels, dense_levels(rho0, mu, chain), strict=True):
                assert lv.matrix.d.tobytes() == ref.tobytes()
            seen.add("coincident" if np.any(d[~np.eye(n, dtype=bool)] == 0) else "distinct")
            # positive atoms per block over the previous quotient; 0 is a null block
            prev_part, prev_mass = Partition.singletons(n), mu.w
            for lv in levels:
                node_block = np.empty(len(prev_mass), dtype=int)
                node_block[prev_part.block_of] = lv.partition.block_of
                positive = np.bincount(node_block, weights=prev_mass > 0,
                                       minlength=len(lv.block_mass))
                seen.update(min(int(p), 3) for p in positive)
                prev_part, prev_mass = lv.partition, lv.block_mass
        assert {"coincident", 0, 1, 2, 3} <= seen

    def test_dyadic_profile_without_public_kantorovich(self, monkeypatch):
        # the levels never build a full-size measure or coupling
        def refuse(*args, **kwargs):
            raise AssertionError("iterated levels must not call this")

        monkeypatch.setattr(transport, "kantorovich", refuse)
        monkeypatch.setattr(transport, "Coupling", refuse)
        L = 7
        mu, chain = dyadic_bernoulli_chain(L)
        prof = standardness_profile(cylinder_hamming(L, L), mu, chain)
        assert np.allclose(prof.c, [(L - k) / (2 * L) for k in range(L + 1)], atol=1e-12)


class TestMeanDistance:
    def test_uniform_discrete(self):
        assert mean_distance(discrete_metric(4), DiscreteMeasure.uniform(4)) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_zero_matrix(self):
        assert mean_distance(SemimetricMatrix(np.zeros((3, 3))), DiscreteMeasure.uniform(3)) == 0.0

    def test_after_one_split(self):
        mu = DiscreteMeasure.uniform(4)
        chain = PartitionChain(4, (Partition.from_blocks(4, [[0, 1], [2, 3]]),))
        lv = iterate_semimetric(discrete_metric(4), mu, chain)[0]
        assert mean_distance(lv.matrix, DiscreteMeasure(lv.block_mass)) == pytest.approx(0.5, abs=1e-12)


class TestDyadicBernoulliChain:
    def test_negative_depth_raises(self):
        with pytest.raises(StructuralError):
            dyadic_bernoulli_chain(3, -1)
        with pytest.raises(StructuralError):
            dyadic_bernoulli_chain(3, 4)
        mu, chain = dyadic_bernoulli_chain(3, 0)
        assert chain.depth == 0 and mu.size == 8


class TestStandardnessProfile:
    def test_dyadic_bernoulli_exact_sequence(self):
        # full-width cylinder Hamming start: c_k = (L - k) / (2 L) exactly
        L = 7
        mu, chain = dyadic_bernoulli_chain(L, depth=6)
        prof = standardness_profile(cylinder_hamming(L, L), mu, chain)
        expected = np.array([(L - k) / (2 * L) for k in range(7)])
        assert np.allclose(prof.c, expected, atol=1e-12)
        assert np.all(np.diff(prof.c) < 0)
        assert prof.terminal_ratio == pytest.approx(1 / 7, abs=1e-12)
        assert prof.terminal_ratio < 0.2

    def test_order_one_cylinder_collapses_immediately(self):
        # distances that read only the freed bit die at the first iteration
        mu, chain = dyadic_bernoulli_chain(7, depth=6)
        prof = standardness_profile(cylinder_hamming(7, 1), mu, chain)
        assert prof.c[0] == pytest.approx(0.5, abs=1e-12)
        assert np.all(prof.c[1:] == 0.0)
        assert prof.terminal_ratio < 0.2

    def test_trivial_refinements_constant(self):
        n = 6
        rng = np.random.default_rng(1)
        pts = rng.random((n, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        np.fill_diagonal(d, 0.0)
        rho0 = SemimetricMatrix(d)
        mu = DiscreteMeasure.uniform(n)
        chain = PartitionChain(n, (Partition.singletons(n),) * 3)
        prof = standardness_profile(rho0, mu, chain)
        assert np.allclose(prof.c, prof.c[0], atol=1e-12)

    def test_monotone_on_random_chains(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(4, 17))
            pts = rng.random((n, 2))
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            np.fill_diagonal(d, 0.0)
            rho0 = SemimetricMatrix(d)
            w = rng.random(n) + 0.05
            mu = DiscreteMeasure(w / w.sum())
            labels = np.arange(n)
            parts = []
            while len(np.unique(labels)) > 1:
                k = len(np.unique(labels))
                merge_into = rng.integers(0, max(1, k // 2), size=k)
                _, labels = np.unique(merge_into[labels], return_inverse=True)
                parts.append(Partition(labels))
            chain = PartitionChain(n, tuple(parts))
            prof = standardness_profile(rho0, mu, chain)
            assert np.all(np.diff(prof.c) <= 1e-9)

    def test_dyadic_levels_match_tree_matching(self):
        # an r-adic chain level realized as labeled trees: the iterated metric
        # between two blocks equals the automorphism-matching distance of the
        # trees whose leaves carry the blocks' points, labeled by the bits the
        # start metric reads (order > depth keeps the labels block-dependent)
        from filtlab.treewalk import TreeLeafSystem, tree_distance

        L, order, depth = 5, 4, 3
        mu, chain = dyadic_bernoulli_chain(L, depth=depth)
        rho0 = cylinder_hamming(L, order)
        levels = iterate_semimetric(rho0, mu, chain)
        level = levels[depth - 1]
        base = cylinder_hamming(order, order)  # normalized Hamming on label ints

        def system(block):
            members = np.sort(np.asarray(chain.partitions[depth - 1].blocks[block]))
            labels = members & ((1 << order) - 1)
            return TreeLeafSystem((2,) * depth, labels, base)

        n_blocks = level.matrix.size
        assert n_blocks == 4
        nonzero = 0
        for b in range(n_blocks):
            for c in range(b + 1, n_blocks):
                expected = tree_distance(system(b), system(c))
                assert level.matrix.d[b, c] == pytest.approx(expected, abs=1e-10)
                nonzero += expected > 0
        assert nonzero > 0

    def test_relabeling_invariance(self):
        # a measure-preserving relabeling that maps the chain to itself leaves
        # every level matrix invariant up to the relabeling, and c_n unchanged
        rng = np.random.default_rng(3)
        L = 5
        mu, chain = dyadic_bernoulli_chain(L)
        rho0 = cylinder_hamming(L, L)
        prof = standardness_profile(rho0, mu, chain)

        # permute points by XOR with a fixed word: preserves uniform mu, the
        # chain (blocks map to blocks), and the Hamming semimetric
        word = int(rng.integers(0, 1 << L))
        perm = np.arange(1 << L) ^ word
        rho0_p = SemimetricMatrix(rho0.d[np.ix_(perm, perm)])
        parts_p = []
        for p in chain.partitions:
            _, labels = np.unique(p.block_of[perm], return_inverse=True)
            parts_p.append(Partition(labels))
        chain_p = PartitionChain(1 << L, tuple(parts_p))
        prof_p = standardness_profile(rho0_p, mu, chain_p)
        assert np.array_equal(prof.c, prof_p.c)

        levels = iterate_semimetric(rho0, mu, chain)
        levels_p = iterate_semimetric(rho0_p, mu, chain_p)
        for lv, lvp in zip(levels, levels_p):
            lifted = lv.lift_to_points()
            lifted_p = lvp.lift_to_points()
            assert np.array_equal(lifted_p, lifted[np.ix_(perm, perm)])
