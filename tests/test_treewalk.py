import itertools

import numpy as np
import pytest

from filtlab.errors import SizeCapError, StructuralError
from filtlab.mmspace import DiscreteMeasure, Partition, SemimetricMatrix, partition_entropy
from filtlab.treewalk import (
    TreeLeafSystem,
    apply_automorphism,
    automorphism_count,
    exponential_entropy_estimate,
    iid_word_measure,
    orbit_partition,
    random_automorphism,
    tree_distance,
    tree_distance_bruteforce,
)


def discrete_base(k):
    return SemimetricMatrix(1.0 - np.eye(k))


def random_base(rng, k):
    pts = rng.random((k, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    np.fill_diagonal(d, 0.0)
    return SemimetricMatrix(d)


class TestTreeDistance:
    def test_height_zero_is_base_distance(self):
        base = discrete_base(3)
        x = TreeLeafSystem.homogeneous(2, 0, [1], base)
        y = TreeLeafSystem.homogeneous(2, 0, [2], base)
        assert tree_distance(x, y) == 1.0

    def test_swap_aligns_leaves(self):
        base = discrete_base(2)
        x = TreeLeafSystem.homogeneous(2, 1, [0, 1], base)
        y = TreeLeafSystem.homogeneous(2, 1, [1, 0], base)
        assert tree_distance(x, y) == 0.0

    def test_single_mismatch(self):
        base = discrete_base(2)
        x = TreeLeafSystem.homogeneous(2, 1, [0, 0], base)
        y = TreeLeafSystem.homogeneous(2, 1, [0, 1], base)
        assert tree_distance(x, y) == 0.5

    def test_shape_mismatch_raises(self):
        base = discrete_base(2)
        x = TreeLeafSystem.homogeneous(2, 1, [0, 0], base)
        y = TreeLeafSystem.homogeneous(2, 2, [0, 0, 1, 1], base)
        with pytest.raises(StructuralError):
            tree_distance(x, y)

    def test_matches_bruteforce_exhaustive_r2_n2(self):
        base = discrete_base(2)
        assert automorphism_count((2, 2)) == 8
        for lx in itertools.product([0, 1], repeat=4):
            x = TreeLeafSystem.homogeneous(2, 2, list(lx), base)
            for ly in itertools.product([0, 1], repeat=4):
                y = TreeLeafSystem.homogeneous(2, 2, list(ly), base)
                assert tree_distance(x, y) == tree_distance_bruteforce(x, y)

    def test_matches_bruteforce_random_r3(self):
        rng = np.random.default_rng(0)
        base = random_base(rng, 4)
        for _ in range(100):
            x = TreeLeafSystem.homogeneous(3, 1, rng.integers(0, 4, 3), base)
            y = TreeLeafSystem.homogeneous(3, 1, rng.integers(0, 4, 3), base)
            assert tree_distance(x, y) == pytest.approx(tree_distance_bruteforce(x, y), abs=1e-12)

    def test_matches_bruteforce_random_r2_n3(self):
        rng = np.random.default_rng(1)
        base = random_base(rng, 3)
        for _ in range(40):
            x = TreeLeafSystem.homogeneous(2, 3, rng.integers(0, 3, 8), base)
            y = TreeLeafSystem.homogeneous(2, 3, rng.integers(0, 3, 8), base)
            assert tree_distance(x, y) == pytest.approx(tree_distance_bruteforce(x, y), abs=1e-12)

    def test_mixed_radices(self):
        rng = np.random.default_rng(2)
        base = random_base(rng, 3)
        radices = (2, 3)
        for _ in range(30):
            x = TreeLeafSystem(radices, rng.integers(0, 3, 6), base)
            y = TreeLeafSystem(radices, rng.integers(0, 3, 6), base)
            assert tree_distance(x, y) == pytest.approx(tree_distance_bruteforce(x, y), abs=1e-12)

    def test_negative_height_rejected(self):
        with pytest.raises(StructuralError, match="height"):
            TreeLeafSystem.homogeneous(2, -1, [1], discrete_base(2))

    def test_bruteforce_size_guard(self):
        base = discrete_base(2)
        x = TreeLeafSystem.homogeneous(2, 5, np.zeros(32, dtype=int), base)
        with pytest.raises(SizeCapError):
            tree_distance_bruteforce(x, x)

    def test_semimetric_axioms(self):
        rng = np.random.default_rng(3)
        base = random_base(rng, 4)
        for _ in range(60):
            systems = [
                TreeLeafSystem.homogeneous(2, 2, rng.integers(0, 4, 4), base) for _ in range(3)
            ]
            a, b, c = systems
            assert tree_distance(a, b) == tree_distance(b, a)
            assert tree_distance(a, b) <= tree_distance(a, c) + tree_distance(c, b) + 1e-9
            assert tree_distance(a, a) == 0.0

    def test_automorphism_invariance(self):
        rng = np.random.default_rng(4)
        base = random_base(rng, 5)
        for _ in range(40):
            radices = (2, 2) if rng.random() < 0.5 else (3, 2)
            n_leaves = int(np.prod(radices))
            x = TreeLeafSystem(radices, rng.integers(0, 5, n_leaves), base)
            y = TreeLeafSystem(radices, rng.integers(0, 5, n_leaves), base)
            d0 = tree_distance(x, y)
            perm = random_automorphism(radices, rng)
            y2 = TreeLeafSystem(radices, apply_automorphism(y.labels, perm), base)
            assert tree_distance(x, y2) == d0
            perm2 = random_automorphism(radices, rng)
            x2 = TreeLeafSystem(radices, apply_automorphism(x.labels, perm2), base)
            assert tree_distance(x2, y) == d0

    def test_identity_matching_upper_bound(self):
        rng = np.random.default_rng(5)
        base = random_base(rng, 4)
        for _ in range(60):
            x = TreeLeafSystem.homogeneous(2, 3, rng.integers(0, 4, 8), base)
            y = TreeLeafSystem.homogeneous(2, 3, rng.integers(0, 4, 8), base)
            identity_avg = float(np.mean(base.d[x.labels, y.labels]))
            assert tree_distance(x, y) <= identity_avg + 1e-12


class TestOrbitPartition:
    def test_two_leaf_binary_orbits(self):
        mu = iid_word_measure(2, 2)
        result = orbit_partition(1, 2, 2, mu)
        assert result.orbit_count == 3  # {00}, {01,10}, {11}
        assert result.entropy_bits == pytest.approx(1.5, abs=1e-12)

    def test_single_letter_alphabet(self):
        mu = iid_word_measure(1, 4)
        result = orbit_partition(2, 2, 1, mu)
        assert result.orbit_count == 1
        assert result.entropy_bits == 0.0

    def test_empty_alphabet_rejected(self):
        with pytest.raises(StructuralError):
            iid_word_measure(0, 4)

    def test_negative_leaf_count_rejected(self):
        with pytest.raises(StructuralError, match="leaves"):
            iid_word_measure(2, -2)

    def test_n2_matches_bruteforce_enumeration(self):
        # enumerate orbits of the 8-element automorphism group on 16 words
        mu = iid_word_measure(2, 4)
        result = orbit_partition(2, 2, 2, mu)

        from filtlab.treewalk import _enumerate_automorphisms

        perms = list(_enumerate_automorphisms((2, 2)))
        assert len(perms) == 8
        words = list(itertools.product([0, 1], repeat=4))
        orbit_of = {}
        for w in words:
            canon = min(tuple(np.asarray(w)[p]) for p in perms)
            orbit_of[w] = canon
        orbits = {}
        for w in words:
            orbits.setdefault(orbit_of[w], []).append(w)
        assert result.orbit_count == len(orbits)
        masses = sorted(len(v) / 16 for v in orbits.values())
        expected_entropy = -sum(p * np.log2(p) for p in masses)
        assert result.entropy_bits == pytest.approx(expected_entropy, abs=1e-12)
        # partition blocks must agree with enumerated orbits
        sizes = sorted(len(b) for b in result.partition.blocks)
        assert sizes == sorted(len(v) for v in orbits.values())

    def test_word_cap(self):
        with pytest.raises(SizeCapError):
            orbit_partition(5, 4, 2, DiscreteMeasure.uniform(2))

    @pytest.mark.parametrize("n, r, k", [(1, 3, 3), (2, 2, 3), (3, 2, 2), (2, 3, 2), (0, 2, 3)])
    def test_blocks_match_enumerated_orbits(self, n, r, k):
        from filtlab.treewalk import _enumerate_automorphisms

        leaves = r**n
        words = np.array(list(itertools.product(range(k), repeat=leaves)))  # big-endian order
        powers = k ** np.arange(leaves - 1, -1, -1)
        # two words share an orbit iff their least codes over all automorphisms agree
        least = np.min([words[:, perm] @ powers for perm in _enumerate_automorphisms((r,) * n)], axis=0)
        block_of = orbit_partition(n, r, k, iid_word_measure(k, leaves)).partition.block_of
        pairs = np.unique(np.stack([block_of, least]), axis=1).shape[1]
        assert pairs == len(np.unique(block_of)) == len(np.unique(least))

    def test_continuity_under_alphabet_partition(self):
        # normalized orbit entropies of two coarsenings of an i.i.d. alphabet
        # move by at most the Rokhlin distance 2 H(g1 v g2) - H(g1) - H(g2)
        # of the two alphabet partitions under the symbol measure
        rng = np.random.default_rng(6)
        for _ in range(15):
            k0 = int(rng.integers(2, 5))
            probs = rng.random(k0) + 0.1
            probs /= probs.sum()
            symbol_mu = DiscreteMeasure(probs)
            _, l1 = np.unique(rng.integers(0, 2, k0), return_inverse=True)
            _, l2 = np.unique(rng.integers(0, 3, k0), return_inverse=True)
            join = Partition(np.unique(l1 * k0 + l2, return_inverse=True)[1])
            rok = 2 * partition_entropy(symbol_mu, join) - sum(
                partition_entropy(symbol_mu, Partition(l)) for l in (l1, l2)
            )
            for n, r in [(1, 2), (2, 2), (1, 3)]:
                leaves = r**n
                # the coarsened words are i.i.d. under the pushed-forward symbol measure
                h1, h2 = (
                    orbit_partition(n, r, len(p), iid_word_measure(len(p), leaves, p)).entropy_bits / leaves
                    for p in (np.bincount(l1, probs), np.bincount(l2, probs))
                )
                assert abs(h1 - h2) <= rok + 1e-9


class TestExponentialEntropy:
    def test_first_value(self):
        est = exponential_entropy_estimate([1.5], [2])
        assert est.h[0] == pytest.approx(0.75, abs=1e-12)
        assert est.limit_estimate == pytest.approx(0.75, abs=1e-12)

    def test_zero_sequence(self):
        est = exponential_entropy_estimate([0.0, 0.0, 0.0], [2, 2, 2])
        assert np.all(est.h == 0.0)

    def test_dyadic_orbit_chain_is_nonincreasing(self):
        entropies = []
        for n in range(1, 5):
            mu = iid_word_measure(2, 2**n)
            entropies.append(orbit_partition(n, 2, 2, mu).entropy_bits)
        est = exponential_entropy_estimate(entropies, [2] * 4)
        assert np.all(np.diff(est.h) <= 1e-9)
        assert est.h[0] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("radices", [[2, 0], [1, 2], [2, -2]])
    def test_radix_below_two_rejected(self, radices):
        with pytest.raises(StructuralError, match="radix"):
            exponential_entropy_estimate([1.0, 0.5], radices)

    def test_increasing_sequence_rejected(self):
        with pytest.raises(RuntimeError):
            exponential_entropy_estimate([1.0, 3.0], [2, 2])
