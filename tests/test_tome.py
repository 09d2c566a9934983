"""Bipartite soft matching: partition, scoring, selection, merging, laws."""

import numpy as np
import pytest

from astmerge import ToMeConfig, merge_step
from astmerge.errors import ShapeError
from astmerge.tome import merge_capacity

from oracles import brute_force_merge


def merge_one(tokens, keys, cfg, sizes=None):
    """merge_step on a batch of one: (tokens, sizes, edges) of that row, with
    edges as a list of (src, dst, sim) triples ([] when nothing merged)."""
    tokens = np.asarray(tokens, dtype=np.float32)
    if sizes is None:
        sizes = np.ones(tokens.shape[0], dtype=np.float32)
    sizes = np.asarray(sizes, dtype=np.float32)
    keys = np.asarray(keys, dtype=np.float64)
    out, out_sizes, edges = merge_step(tokens[None], sizes[None], keys[None], cfg)
    if edges is None:
        return out[0], out_sizes[0], []
    src, dst, sim = (e[0].tolist() for e in edges)
    return out[0], out_sizes[0], list(zip(src, dst, sim))


def unprotected(r):
    return ToMeConfig(r=r, protect_cls=False)


def pair_keys(n):
    """Tokens 2j and 2j+1 share the key e_j and are orthogonal to the rest."""
    return np.eye((n + 1) // 2)[np.arange(n) // 2]


def a_side(n, protect):
    return list(range(1 if protect else 0, n, 2))


class TestPartition:
    def test_unprotected_alternation(self):
        _, _, edges = merge_one(np.zeros((6, 1)), pair_keys(6), unprotected(3))
        assert [(s, t) for s, t, _ in edges] == [(0, 1), (2, 3), (4, 5)]

    def test_protected_puts_cls_in_destination_side(self):
        _, _, edges = merge_one(np.zeros((5, 1)), pair_keys(5), ToMeConfig(r=2, protect_cls=True))
        assert [(s, t) for s, t, _ in edges] == [(1, 0), (3, 2)]
        assert 0 not in [s for s, _, _ in edges]

    def test_minimal(self):
        _, _, edges = merge_one(np.zeros((2, 1)), np.ones((2, 2)), unprotected(1))
        assert [(s, t) for s, t, _ in edges] == [(0, 1)]

    @pytest.mark.parametrize("n", range(2, 12))
    @pytest.mark.parametrize("protect", [False, True])
    def test_partition_is_balanced_and_covers(self, n, protect):
        rng = np.random.default_rng(n)
        cfg = ToMeConfig(r=n, protect_cls=protect)
        out, _, edges = merge_one(np.zeros((n, 1)), rng.standard_normal((n, 3)), cfg)
        src = sorted(s for s, _, _ in edges)
        if merge_capacity(n, protect) == 0:  # a protected pair: [CLS] + one
            assert edges == [] and out.shape[0] == n
            return
        # r = n merges the whole source side: every other token, half of n
        assert src == a_side(n, protect)
        assert len(src) in (n // 2, (n + 1) // 2)
        assert {t for _, t, _ in edges} <= set(range(n)) - set(src)
        assert out.shape[0] == n - len(src)
        if protect:
            assert 0 not in src


class TestScoreEdges:
    def test_identical_keys_similarity_one(self):
        _, _, edges = merge_one(np.zeros((4, 1)), np.ones((4, 3)), unprotected(2))
        np.testing.assert_allclose([s for _, _, s in edges], 1.0, atol=1e-12)

    def test_orthogonal_keys_similarity_zero(self):
        keys = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, _, edges = merge_one(np.zeros((2, 1)), keys, unprotected(1))
        np.testing.assert_allclose([s for _, _, s in edges], 0.0, atol=1e-12)

    def test_direct_cosine_row(self):
        """Source 1 scores 1.0 against destination 0 and 0.0 against 2."""
        keys = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        _, _, edges = merge_one(np.zeros((3, 1)), keys, ToMeConfig(r=1, protect_cls=True))
        ((src, dst, sim),) = edges
        assert (src, dst) == (1, 0)
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_sentinel(self):
        keys = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        _, _, edges = merge_one(np.zeros((4, 1)), keys, unprotected(2))
        assert all(s == -1.0 for _, _, s in edges)


class TestSelectEdges:
    def test_r_zero_empty(self):
        _, _, edges = merge_one(np.zeros((2, 1)), np.ones((2, 2)), unprotected(0))
        assert edges == []

    def test_clamp_to_set_size(self):
        keys = np.array([[0.9, 0.1], [1.0, 0.0], [0.2, 0.8], [0.0, 1.0]])
        _, _, edges = merge_one(np.zeros((4, 1)), keys, unprotected(10))
        assert len(edges) == 2

    def test_hand_ranked_case(self):
        """Source similarities 1.0 and 0.8; r=1 keeps only the 1.0 edge."""
        keys = np.array([[1.0, 0.0], [1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        _, _, edges = merge_one(np.zeros((4, 1)), keys, unprotected(1))
        assert len(edges) == 1
        src, dst, sim = edges[0]
        assert (src, dst) == (0, 1)
        assert sim == pytest.approx(1.0)

    def test_tie_breaks_lower_a_first(self):
        keys = np.array([[0.7, 0.1], [1.0, 0.0], [0.7, 0.1], [0.0, 1.0]])
        _, _, edges = merge_one(np.zeros((4, 1)), keys, unprotected(1))
        assert edges[0][0] == 0


class TestApplyMerge:
    def test_unweighted_mean(self):
        out, sizes, _ = merge_one([[0.0, 0.0], [2.0, 2.0]], np.ones((2, 2)), unprotected(1))
        np.testing.assert_array_equal(out, [[1.0, 1.0]])
        np.testing.assert_array_equal(sizes, [2.0])

    def test_size_weighted_mean(self):
        out, sizes, _ = merge_one(
            [[0.0], [4.0]], np.ones((2, 2)), unprotected(1), sizes=[3.0, 1.0]
        )
        np.testing.assert_allclose(out, [[1.0]])
        np.testing.assert_array_equal(sizes, [4.0])

    def test_many_to_one_destination(self):
        out, sizes, edges = merge_one([[2.0], [8.0], [5.0]], np.ones((3, 2)), unprotected(2))
        assert [(s, t) for s, t, _ in edges] == [(0, 1), (2, 1)]
        np.testing.assert_allclose(out, [[5.0]])
        np.testing.assert_array_equal(sizes, [3.0])

    def test_survivors_keep_original_order(self):
        # source 3 matches [CLS] exactly; source 1 only scores 0.71 against 2 and 4
        keys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        out, _, edges = merge_one(
            [[0.0], [1.0], [2.0], [3.0], [4.0]], keys, ToMeConfig(r=1, protect_cls=True)
        )
        assert [(s, t) for s, t, _ in edges] == [(3, 0)]
        np.testing.assert_allclose(out.ravel(), [1.5, 1.0, 2.0, 4.0])


class TestMergeStep:
    def test_r_zero_is_strict_noop(self):
        rng = np.random.default_rng(1)
        tokens = rng.standard_normal((1, 6, 4)).astype(np.float32)
        sizes = np.ones((1, 6), np.float32)
        keys = rng.standard_normal((1, 6, 4))
        out, out_sizes, edges = merge_step(tokens, sizes, keys, ToMeConfig(r=0))
        assert out is tokens and out_sizes is sizes
        assert edges is None

    def test_reference_token_count(self):
        rng = np.random.default_rng(2)
        tokens, keys = rng.standard_normal((589, 8)), rng.standard_normal((589, 8))
        out, _, edges = merge_one(tokens, keys, ToMeConfig(r=40))
        assert out.shape[0] == 549
        assert len(edges) == 40

    def test_duplicate_tokens_merge_idempotently(self):
        """Averaging identical vectors returns the vector itself, any r."""
        base = np.arange(6, dtype=np.float32)
        tokens = np.tile(base, (8, 1))
        keys = np.tile(np.ones(4), (8, 1))
        for r in (1, 2, 3, 4):
            out, sizes, _ = merge_one(tokens, keys, ToMeConfig(r=r))
            np.testing.assert_array_equal(out, np.tile(base, (out.shape[0], 1)))
            assert sizes.sum() == 8.0

    def test_cls_never_removed(self):
        rng = np.random.default_rng(3)
        for n in range(2, 10):
            tokens = rng.standard_normal((n, 4))
            keys = rng.standard_normal((n, 4))
            for r in range(0, n):
                _, _, edges = merge_one(tokens, keys, ToMeConfig(r=r, protect_cls=True))
                assert all(src != 0 for src, _, _ in edges)
                assert all(dst % 2 == 0 for _, dst, _ in edges)

    def test_capacity_floor_protected_pair(self):
        # two tokens with protection: nothing may merge
        tokens = [[1.0, 0.0], [0.0, 1.0]]
        out, _, edges = merge_one(tokens, np.eye(2), ToMeConfig(r=5, protect_cls=True))
        assert out.shape[0] == 2 and edges == []
        # without protection the pair may collapse to one token
        out2, _, edges2 = merge_one(tokens, np.eye(2), unprotected(5))
        assert out2.shape[0] == 1 and len(edges2) == 1

    def test_single_token_is_noop(self):
        tokens = np.ones((1, 1, 3), np.float32)
        sizes = np.ones((1, 1), np.float32)
        out, out_sizes, edges = merge_step(tokens, sizes, np.ones((1, 1, 2)), unprotected(3))
        assert out is tokens and out_sizes is sizes and edges is None

    @pytest.mark.parametrize(
        "sizes_shape, keys_shape",
        [((2, 5), (2, 6, 3)), ((2, 6), (2, 5, 3)), ((2, 6), (2, 6)), ((1, 6), (2, 6, 3))],
    )
    def test_shape_mismatch_rejected(self, sizes_shape, keys_shape):
        with pytest.raises(ShapeError):
            merge_step(
                np.zeros((2, 6, 4), np.float32), np.ones(sizes_shape, np.float32),
                np.ones(keys_shape), ToMeConfig(r=1),
            )


class TestBatch:
    def test_rows_equal_rows_merged_alone(self):
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
        for protect in (True, False):
            for r in (1, 3, 6, 20):
                cfg = ToMeConfig(r=r, protect_cls=protect)
                out, out_sizes, edges = merge_step(tokens, sizes, keys, cfg)
                if r > 1:
                    assert edges[2][3, 0] == edges[2][3, 1]  # a real tie
                for i in range(b):
                    one, one_sizes, one_edges = merge_step(
                        tokens[i : i + 1], sizes[i : i + 1], keys[i : i + 1], cfg
                    )
                    np.testing.assert_array_equal(out[i], one[0])
                    np.testing.assert_array_equal(out_sizes[i], one_sizes[0])
                    for got, alone in zip(edges, one_edges):
                        np.testing.assert_array_equal(got[i], alone[0])


class TestConservationLaws:
    @pytest.mark.parametrize("protect", [False, True])
    def test_count_mass_centroid(self, protect):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(2, 24))
            d = int(rng.integers(2, 9))
            r = int(rng.integers(0, n))
            sizes = rng.integers(1, 4, size=n).astype(np.float32)
            tokens = rng.standard_normal((n, d)).astype(np.float32)
            keys = rng.standard_normal((n, d))
            cfg = ToMeConfig(r=r, protect_cls=protect)
            out, out_sizes, _ = merge_one(tokens, keys, cfg, sizes=sizes)
            expected_drop = min(r, merge_capacity(n, protect))
            assert out.shape[0] == n - expected_drop
            assert float(out_sizes.sum()) == float(sizes.sum())
            before = (sizes[:, None].astype(np.float64) * tokens).sum(axis=0)
            after = (out_sizes[:, None].astype(np.float64) * out).sum(axis=0)
            np.testing.assert_allclose(
                after, before, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(before).max())
            )


class TestOracleEquivalence:
    @pytest.mark.parametrize("protect", [False, True])
    def test_small_sequences_match_brute_force(self, protect):
        rng = np.random.default_rng(5)
        for trial in range(120):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(0, n // 2 + 1))
            d = int(rng.integers(2, 6))
            tokens = rng.standard_normal((n, d)).astype(np.float32)
            sizes = rng.integers(1, 4, size=n).astype(np.float32)
            keys = rng.standard_normal((n, d))
            cfg = ToMeConfig(r=r, protect_cls=protect)
            out, out_sizes, edges = merge_one(tokens, keys, cfg, sizes=sizes)
            ref_tokens, ref_sizes, ref_edges = brute_force_merge(
                tokens, sizes, keys, r, protect
            )
            assert [(s, t) for s, t, _ in edges] == [(s, t) for s, t, _ in ref_edges]
            np.testing.assert_allclose(out, ref_tokens, atol=1e-6)
            np.testing.assert_allclose(out_sizes, ref_sizes, atol=0)
