"""Bipartite soft matching: partition, scoring, selection, merging, laws."""

import numpy as np
import pytest

from astmerge import ToMeConfig, merge_step
from astmerge.errors import ShapeError
from astmerge.tome import merge_capacity

from oracles import add_at_merge_fold, brute_force_merge


def merge_one(pool, tokens, keys, cfg, sizes=None):
    """merge_step on a batch of one: (tokens, sizes, edges) of that row, with
    edges as a list of (src, dst, sim) triples ([] when nothing merged)."""
    tokens = np.asarray(tokens, dtype=np.float32)
    if sizes is None:
        sizes = np.ones(tokens.shape[0], dtype=np.float32)
    sizes = np.asarray(sizes, dtype=np.float32)
    keys = np.asarray(keys, dtype=np.float64)
    out, out_sizes, edges = merge_step(tokens[None], sizes[None], keys[None], cfg, pool)
    if edges is None:
        return out[0], out_sizes[0], []
    src, dst, sim = (e[0].tolist() for e in edges)
    return out[0], out_sizes[0], list(zip(src, dst, sim))


def pair_keys(n):
    """Tokens 2j and 2j+1 share the key e_j and are orthogonal to the rest."""
    return np.eye((n + 1) // 2)[np.arange(n) // 2]


class TestPartition:
    def test_protected_puts_cls_in_destination_side(self, pool):
        _, _, edges = merge_one(pool, np.zeros((5, 1)), pair_keys(5), ToMeConfig(r=2))
        assert [(s, t) for s, t, _ in edges] == [(1, 0), (3, 2)]
        assert 0 not in [s for s, _, _ in edges]

    @pytest.mark.parametrize("n", range(2, 12))
    def test_partition_is_balanced_and_covers(self, n, pool):
        rng = np.random.default_rng(n)
        cfg = ToMeConfig(r=n)
        out, _, edges = merge_one(pool, np.zeros((n, 1)), rng.standard_normal((n, 3)), cfg)
        src = sorted(s for s, _, _ in edges)
        if merge_capacity(n) == 0:  # a pair: [CLS] + one
            assert edges == [] and out.shape[0] == n
            return
        # r = n merges the whole source side: the odd positions, half of n
        assert src == list(range(1, n, 2))
        assert len(src) == n // 2
        assert {t for _, t, _ in edges} <= set(range(0, n, 2))
        assert out.shape[0] == n - len(src)
        assert 0 not in src


class TestScoreEdges:
    def test_identical_keys_similarity_one(self, pool):
        _, _, edges = merge_one(pool, np.zeros((4, 1)), np.ones((4, 3)), ToMeConfig(r=2))
        assert len(edges) == 2
        np.testing.assert_allclose([s for _, _, s in edges], 1.0, atol=1e-12)

    def test_orthogonal_keys_similarity_zero(self, pool):
        keys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        _, _, edges = merge_one(pool, np.zeros((3, 1)), keys, ToMeConfig(r=1))
        assert len(edges) == 1
        np.testing.assert_allclose([s for _, _, s in edges], 0.0, atol=1e-12)

    def test_direct_cosine_row(self, pool):
        """Source 1 scores 1.0 against destination 0 and 0.0 against 2."""
        keys = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        _, _, edges = merge_one(pool, np.zeros((3, 1)), keys, ToMeConfig(r=1))
        ((src, dst, sim),) = edges
        assert (src, dst) == (1, 0)
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_sentinel(self, pool):
        """Each sentinel on its own input, so neither can hide the other: a
        zero-key source with non-zero destinations, then a non-zero source
        whose destinations all have zero keys. Both edges score -1."""
        for keys in ([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 2.0], [0.0, 0.0]]):
            _, _, edges = merge_one(pool, np.zeros((3, 1)), keys, ToMeConfig(r=1))
            assert [s for _, _, s in edges] == [-1.0]


class TestSelectEdges:
    def test_r_zero_empty(self, pool):
        _, _, edges = merge_one(pool, np.zeros((3, 1)), np.ones((3, 2)), ToMeConfig(r=0))
        assert edges == []

    def test_clamp_to_set_size(self, pool):
        """Five tokens have two sources, and r=10 is clamped to them."""
        keys = np.array([[1.0, 0.0], [0.9, 0.1], [1.0, 0.0], [0.2, 0.8], [0.0, 1.0]])
        _, _, edges = merge_one(pool, np.zeros((5, 1)), keys, ToMeConfig(r=10))
        assert len(edges) == 2

    def test_hand_ranked_case(self, pool):
        """Source similarities 1.0 and 0.8; r=1 keeps only the 1.0 edge."""
        keys = np.array([[-1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        _, _, edges = merge_one(pool, np.zeros((5, 1)), keys, ToMeConfig(r=1))
        assert len(edges) == 1
        src, dst, sim = edges[0]
        assert (src, dst) == (1, 2)
        assert sim == pytest.approx(1.0)

    def test_tie_breaks_lower_a_first(self, pool):
        keys = np.array([[-1.0, 0.0], [0.7, 0.1], [1.0, 0.0], [0.7, 0.1], [0.0, 1.0]])
        _, _, edges = merge_one(pool, np.zeros((5, 1)), keys, ToMeConfig(r=1))
        assert edges[0][0] == 1


class TestApplyMerge:
    # The mean cases give [CLS] (index 0) a key orthogonal to the sources',
    # so the sources merge into token 2.
    def test_unweighted_mean(self, pool):
        tokens = [[9.0, 9.0], [0.0, 0.0], [2.0, 2.0]]
        keys = [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
        out, sizes, _ = merge_one(pool, tokens, keys, ToMeConfig(r=1))
        np.testing.assert_array_equal(out, [[9.0, 9.0], [1.0, 1.0]])
        np.testing.assert_array_equal(sizes, [1.0, 2.0])

    def test_size_weighted_mean(self, pool):
        keys = [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
        out, sizes, _ = merge_one(
            pool, [[9.0], [0.0], [4.0]], keys, ToMeConfig(r=1), sizes=[1.0, 3.0, 1.0]
        )
        np.testing.assert_allclose(out, [[9.0], [1.0]])
        np.testing.assert_array_equal(sizes, [1.0, 4.0])

    def test_many_to_one_destination(self, pool):
        tokens = [[9.0], [2.0], [8.0], [5.0], [7.0]]
        keys = [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        out, sizes, edges = merge_one(pool, tokens, keys, ToMeConfig(r=2))
        assert [(s, t) for s, t, _ in edges] == [(1, 2), (3, 2)]
        np.testing.assert_allclose(out, [[9.0], [5.0], [7.0]])
        np.testing.assert_array_equal(sizes, [1.0, 3.0, 1.0])

    def test_survivors_keep_original_order(self, pool):
        # source 3 matches [CLS] exactly; source 1 only scores 0.71 against 2 and 4
        keys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        out, _, edges = merge_one(
            pool, [[0.0], [1.0], [2.0], [3.0], [4.0]], keys, ToMeConfig(r=1)
        )
        assert [(s, t) for s, t, _ in edges] == [(3, 0)]
        np.testing.assert_allclose(out.ravel(), [1.5, 1.0, 2.0, 4.0])


class TestMergeStep:
    def test_r_zero_is_strict_noop(self, pool):
        rng = np.random.default_rng(1)
        tokens = rng.standard_normal((1, 6, 4)).astype(np.float32)
        sizes = np.ones((1, 6), np.float32)
        keys = rng.standard_normal((1, 6, 4))
        out, out_sizes, edges = merge_step(tokens, sizes, keys, ToMeConfig(r=0), pool)
        assert out is tokens and out_sizes is sizes
        assert edges is None

    def test_reference_token_count(self, pool):
        rng = np.random.default_rng(2)
        tokens, keys = rng.standard_normal((589, 8)), rng.standard_normal((589, 8))
        out, _, edges = merge_one(pool, tokens, keys, ToMeConfig(r=40))
        assert out.shape[0] == 549
        assert len(edges) == 40

    def test_duplicate_tokens_merge_idempotently(self, pool):
        """Averaging identical vectors returns the vector itself, any r."""
        base = np.arange(6, dtype=np.float32)
        tokens = np.tile(base, (8, 1))
        keys = np.tile(np.ones(4), (8, 1))
        for r in (1, 2, 3, 4):
            out, sizes, _ = merge_one(pool, tokens, keys, ToMeConfig(r=r))
            np.testing.assert_array_equal(out, np.tile(base, (out.shape[0], 1)))
            assert sizes.sum() == 8.0

    def test_cls_never_removed(self, pool):
        rng = np.random.default_rng(3)
        for n in range(2, 10):
            tokens = rng.standard_normal((n, 4))
            keys = rng.standard_normal((n, 4))
            for r in range(0, n):
                _, _, edges = merge_one(pool, tokens, keys, ToMeConfig(r=r))
                assert all(src != 0 for src, _, _ in edges)
                assert all(dst % 2 == 0 for _, dst, _ in edges)

    def test_capacity_floor_protected_pair(self, pool):
        # [CLS] and one token: nothing may merge
        tokens = [[1.0, 0.0], [0.0, 1.0]]
        out, _, edges = merge_one(pool, tokens, np.eye(2), ToMeConfig(r=5))
        assert out.shape[0] == 2 and edges == []

    def test_single_token_is_noop(self, pool):
        tokens = np.ones((1, 1, 3), np.float32)
        sizes = np.ones((1, 1), np.float32)
        out, out_sizes, edges = merge_step(tokens, sizes, np.ones((1, 1, 2)), ToMeConfig(r=3), pool)
        assert out is tokens and out_sizes is sizes and edges is None

    @pytest.mark.parametrize(
        "sizes_shape, keys_shape",
        [((2, 5), (2, 6, 3)), ((2, 6), (2, 5, 3)), ((2, 6), (2, 6)), ((1, 6), (2, 6, 3))],
    )
    def test_shape_mismatch_rejected(self, sizes_shape, keys_shape, pool):
        with pytest.raises(ShapeError):
            merge_step(
                np.zeros((2, 6, 4), np.float32), np.ones(sizes_shape, np.float32),
                np.ones(keys_shape), ToMeConfig(r=1), pool,
            )


class TestBatch:
    def test_rows_equal_rows_merged_alone(self, pool):
        """Each row of a batched merge is bitwise what merging that row alone
        gives, including a zero-norm key in one row only and exact ties."""
        rng = np.random.default_rng(8)
        b, n, d, k = 5, 13, 6, 4
        tokens = rng.standard_normal((b, n, d)).astype(np.float32)
        sizes = rng.integers(1, 4, size=(b, n)).astype(np.float32)
        keys = rng.standard_normal((b, n, k)).astype(np.float32)
        keys[1, 4] = 0.0  # an all-zero key in sample 1 only
        keys[3, [1, 3, 5]] = keys[3, 7]  # equal sources: tied edge similarities
        keys[3, [2, 4]] = keys[3, 7]  # equal destinations: tied row maxima
        keys[3, 0] = keys[3, 7]  # [CLS] ties too
        for r in (1, 2, 3, 4, 5, 6, 20):
            cfg = ToMeConfig(r=r)
            out, out_sizes, edges = merge_step(tokens, sizes, keys, cfg, pool)
            if r > 1:
                assert edges[2][3, 0] == edges[2][3, 1]  # a real tie
            for i in range(b):
                one, one_sizes, one_edges = merge_step(
                    tokens[i : i + 1], sizes[i : i + 1], keys[i : i + 1], cfg, pool
                )
                np.testing.assert_array_equal(out[i], one[0])
                np.testing.assert_array_equal(out_sizes[i], one_sizes[0])
                for got, alone in zip(edges, one_edges):
                    np.testing.assert_array_equal(got[i], alone[0])


class TestFold:
    def test_fold_bitwise_equals_add_at_reference(self, pool):
        """merge_step's dense fold, one clip at a time on the pool, against
        the per-row np.add.at fold over one slot per destination, bit for
        bit: destinations that take from 1 to more than 8 sources (a pairwise
        reduction regroups sums of 8 or more), -0.0 tokens, and destinations
        shared across rows only by their index."""
        rng = np.random.default_rng(9)
        fan_in = set()
        for _ in range(300):
            b, n, d = int(rng.integers(1, 5)), int(rng.integers(2, 40)), int(rng.integers(1, 7))
            tokens = rng.standard_normal((b, n, d)).astype(np.float32)
            tokens[rng.random((b, n, d)) < 0.15] = -0.0
            tokens[rng.random((b, n)) < 0.1] = -0.0  # whole -0.0 rows
            sizes = rng.integers(1, 6, size=(b, n)).astype(np.float32)
            # few distinct key directions: many sources share one destination
            keys = rng.integers(-1, 2, size=(b, n, int(rng.integers(1, 4)))).astype(np.float32)
            cfg = ToMeConfig(r=int(rng.integers(1, n + 1)))
            out, out_sizes, edges = merge_step(tokens, sizes, keys, cfg, pool)
            if edges is None:
                continue
            src, dst, _ = edges
            ref, ref_sizes = add_at_merge_fold(tokens, sizes, src, dst)
            np.testing.assert_array_equal(out.view(np.uint32), ref.view(np.uint32))
            np.testing.assert_array_equal(out_sizes.view(np.uint32), ref_sizes.view(np.uint32))
            for row in dst:
                fan_in.update(np.unique(row, return_counts=True)[1].tolist())
        assert {1, 2, 3, 4, 5} <= fan_in
        assert max(fan_in) > 8


class TestConservationLaws:
    def test_count_mass_centroid(self, pool):
        rng = np.random.default_rng(4)
        for trial in range(60):
            n = int(rng.integers(2, 24))
            d = int(rng.integers(2, 9))
            r = int(rng.integers(0, n))
            sizes = rng.integers(1, 4, size=n).astype(np.float32)
            tokens = rng.standard_normal((n, d)).astype(np.float32)
            keys = rng.standard_normal((n, d))
            out, out_sizes, _ = merge_one(pool, tokens, keys, ToMeConfig(r=r), sizes=sizes)
            expected_drop = min(r, merge_capacity(n))
            assert out.shape[0] == n - expected_drop
            assert float(out_sizes.sum()) == float(sizes.sum())
            before = (sizes[:, None].astype(np.float64) * tokens).sum(axis=0)
            after = (out_sizes[:, None].astype(np.float64) * out).sum(axis=0)
            np.testing.assert_allclose(
                after, before, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(before).max())
            )


class TestOracleEquivalence:
    def test_small_sequences_match_brute_force(self, pool):
        rng = np.random.default_rng(5)
        for trial in range(240):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(0, n // 2 + 1))
            d = int(rng.integers(2, 6))
            tokens = rng.standard_normal((n, d)).astype(np.float32)
            sizes = rng.integers(1, 4, size=n).astype(np.float32)
            keys = rng.standard_normal((n, d))
            out, out_sizes, edges = merge_one(pool, tokens, keys, ToMeConfig(r=r), sizes=sizes)
            ref_tokens, ref_sizes, ref_edges = brute_force_merge(tokens, sizes, keys, r)
            assert [(s, t) for s, t, _ in edges] == [(s, t) for s, t, _ in ref_edges]
            np.testing.assert_allclose(out, ref_tokens, atol=1e-6)
            np.testing.assert_allclose(out_sizes, ref_sizes, atol=0)
