"""Encoder blocks: attention oracle, merge placement, count laws, and the
proportional-attention equivalence that justifies size tracking."""

from dataclasses import replace

import numpy as np
import pytest

from astmerge import (
    ModelConfig,
    ToMeConfig,
    TokenSequence,
    count_trajectory,
    encoder_forward,
    generate_synthetic_model,
)
from astmerge.transformer import (
    BlockWeights,
    attention_batch,
    encoder_forward_batch,
    forward_spectrograms,
    layer_norm,
    tokens_from_spectrogram,
)
from astmerge.tome import merge_step

from conftest import random_token_sequence
from oracles import naive_attention


def random_block(rng, d, hidden):
    def f32(*shape):
        return (rng.standard_normal(shape) / np.sqrt(d)).astype(np.float32)

    return BlockWeights(
        ln1_gain=np.ones(d, np.float32),
        ln1_bias=np.zeros(d, np.float32),
        qkv=f32(d, 3 * d),
        qkv_bias=f32(3 * d),
        proj=f32(d, d),
        proj_bias=f32(d),
        ln2_gain=np.ones(d, np.float32),
        ln2_bias=np.zeros(d, np.float32),
        mlp_in=f32(d, hidden),
        mlp_in_bias=f32(hidden),
        mlp_out=f32(hidden, d),
        mlp_out_bias=f32(d),
    )


def zero_block(d, hidden):
    z = lambda *shape: np.zeros(shape, np.float32)
    return BlockWeights(
        ln1_gain=z(d), ln1_bias=z(d), qkv=z(d, 3 * d), qkv_bias=z(3 * d),
        proj=z(d, d), proj_bias=z(d), ln2_gain=z(d), ln2_bias=z(d),
        mlp_in=z(d, hidden), mlp_in_bias=z(hidden),
        mlp_out=z(hidden, d), mlp_out_bias=z(d),
    )


def one_block_model(w, n_heads):
    """Depth-1 model whose only block is ``w``."""
    cfg = ModelConfig(
        depth=1, embed_dim=w.qkv.shape[0], n_heads=n_heads, mlp_ratio=2.0,
        clip_seconds=0.16, n_classes=3,
    )
    return replace(generate_synthetic_model(0, cfg), blocks=[w])


def run_block(ts, model, tome):
    """All final-LayerNormed output tokens of one sequence, [n_final x d]."""
    final, _, _ = encoder_forward_batch(ts.tokens[None], ts.sizes[None], model, tome)
    return final[0]


def attention(ts, w, n_heads):
    out, keys = attention_batch(ts.tokens[None], ts.sizes[None], w, n_heads)
    return out[0], keys[0]


class TestAttention:
    def test_unit_sizes_match_naive_standard_attention(self):
        rng = np.random.default_rng(0)
        ts = random_token_sequence(rng, 6, 12)
        w = random_block(rng, 12, 24)
        out, keys = attention(ts, w, n_heads=2)
        ref_out, ref_keys = naive_attention(ts.tokens, ts.sizes, w, 2)
        np.testing.assert_allclose(out, ref_out, atol=1e-5)
        np.testing.assert_allclose(keys, ref_keys, atol=1e-5)

    def test_merged_sizes_match_naive_proportional_attention(self):
        rng = np.random.default_rng(1)
        sizes = np.array([1, 3, 1, 2, 5, 1], dtype=np.float32)
        ts = TokenSequence(
            tokens=rng.standard_normal((6, 12)).astype(np.float32), sizes=sizes
        )
        w = random_block(rng, 12, 24)
        out, _ = attention(ts, w, n_heads=3)
        ref_out, _ = naive_attention(ts.tokens, sizes, w, 3)
        np.testing.assert_allclose(out, ref_out, atol=1e-5)

    def test_single_token_is_value_projection(self):
        """Softmax over one key is exactly 1, so the output reduces to the
        value path; checked bitwise against the softmax-free computation."""
        rng = np.random.default_rng(2)
        ts = random_token_sequence(rng, 1, 8)
        w = random_block(rng, 8, 16)
        out, _ = attention(ts, w, n_heads=2)
        h = layer_norm(ts.tokens, w.ln1_gain, w.ln1_bias)
        qkv = h @ w.qkv + w.qkv_bias
        v = qkv[:, 16:]
        direct = ts.tokens + (v @ w.proj + w.proj_bias)
        np.testing.assert_array_equal(out, direct)

    def test_returned_keys_are_head_averaged(self):
        rng = np.random.default_rng(3)
        ts = random_token_sequence(rng, 5, 12)
        w = random_block(rng, 12, 24)
        _, keys = attention(ts, w, n_heads=3)
        assert keys.shape == (5, 4)


class TestEncoderBlock:
    def test_r0_bitwise_equals_merge_free_block(self):
        rng = np.random.default_rng(4)
        ts = random_token_sequence(rng, 10, 16)
        w = random_block(rng, 16, 32)
        model = one_block_model(w, 2)
        with_tome = run_block(ts, model, ToMeConfig(r=0))
        without = run_block(ts, model, None)
        np.testing.assert_array_equal(with_tome, without)

    def test_zero_weights_reduce_to_merging_only(self):
        """With all-zero weights both sub-layers contribute nothing, so the
        block output equals a bare merge of the inputs (seen through the
        final LayerNorm)."""
        rng = np.random.default_rng(5)
        ts = random_token_sequence(rng, 8, 8)
        model = one_block_model(zero_block(8, 16), 2)
        cfg = ToMeConfig(r=2)
        out = run_block(ts, model, cfg)
        merged, _, _ = merge_step(ts.tokens[None], ts.sizes[None], np.zeros((1, 8, 4)), cfg)
        expected = layer_norm(merged[0], model.final_ln_gain, model.final_ln_bias)
        np.testing.assert_array_equal(out, expected)

    def test_token_count_drops_by_r(self):
        rng = np.random.default_rng(6)
        ts = random_token_sequence(rng, 10, 16)
        w = random_block(rng, 16, 32)
        out = run_block(ts, one_block_model(w, 2), ToMeConfig(r=3))
        assert out.shape[0] == 7


class TestEncoderForward:
    def test_r0_counts_constant(self, small_model):
        rng = np.random.default_rng(7)
        ts = random_token_sequence(rng, 109, 32)
        out = encoder_forward(ts, small_model, ToMeConfig(r=0))
        assert out.per_block_counts == [109] * 4
        assert out.final_token_count == 109

    def test_r0_bitwise_equals_merge_free_encoder(self, small_model):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ts = random_token_sequence(rng, 109, 32)
            a = encoder_forward(ts, small_model, ToMeConfig(r=0))
            b = encoder_forward(ts, small_model, None)
            np.testing.assert_array_equal(a.cls_embedding, b.cls_embedding)

    def test_count_trajectory_with_clamp(self):
        """12 blocks of r=10 from 109 tokens runs into the capacity clamp;
        the simulated count law predicts the exact trajectory."""
        cfg = ModelConfig(
            depth=12, embed_dim=16, n_heads=2, mlp_ratio=2.0,
            clip_seconds=1.0, n_classes=3,
        )
        weights = generate_synthetic_model(3, cfg)
        rng = np.random.default_rng(9)
        ts = random_token_sequence(rng, 109, 16)
        out = encoder_forward(ts, weights, ToMeConfig(r=10))
        expected = count_trajectory(109, 12, 10)
        assert out.per_block_counts == expected
        assert expected[:4] == [109, 99, 89, 79]
        assert out.final_token_count == expected[-1]

    def test_parity_preserving_permutation_invariance_single_block(self):
        """Shuffling tokens within each partition side (CLS fixed) relabels
        the same merges, so a block's output token multiset and its [CLS]
        row are unchanged up to float noise. Deeper stacks lose this: the
        survivor ordering feeds the next block's alternating partition."""
        rng = np.random.default_rng(10)
        model = one_block_model(random_block(rng, 16, 32), 2)
        for trial in range(5):
            ts = random_token_sequence(rng, 21, 16)
            perm = np.arange(21)
            perm[1::2] = rng.permutation(np.arange(1, 21, 2))
            perm[2::2] = rng.permutation(np.arange(2, 21, 2))
            ts2 = TokenSequence(tokens=ts.tokens[perm], sizes=ts.sizes[perm])
            a = run_block(ts, model, ToMeConfig(r=4))
            b = run_block(ts2, model, ToMeConfig(r=4))
            np.testing.assert_allclose(a[0], b[0], atol=1e-5)
            sort_a = a[np.lexsort(a.T)]
            sort_b = b[np.lexsort(b.T)]
            np.testing.assert_allclose(sort_a, sort_b, atol=1e-5)

    def test_merge_trace_collection(self, small_model):
        rng = np.random.default_rng(11)
        ts = random_token_sequence(rng, 109, 32)
        out = encoder_forward(ts, small_model, ToMeConfig(r=8), collect_trace=True)
        assert len(out.merge_trace) == 3
        for entry in out.merge_trace:
            assert entry.size_sum_before == entry.size_sum_after == 109.0


class TestMergedDuplicateEquivalence:
    def test_duplicate_collapses_to_size_two_token(self):
        """An input with two identical tokens, merged in the first block,
        must match running the deduplicated input with that token at size 2.
        This is the property proportional attention exists to provide."""
        cfg = ModelConfig(
            depth=1, embed_dim=24, n_heads=3, mlp_ratio=2.0,
            clip_seconds=0.16, n_classes=3,
        )
        weights = generate_synthetic_model(4, cfg)
        rng = np.random.default_rng(12)
        for trial in range(10):
            n = 9
            tokens = rng.standard_normal((n, 24)).astype(np.float32)
            tokens[3] = tokens[6]  # src odd (set A), dst even nonzero (set B)
            s1 = TokenSequence(tokens=tokens.copy(), sizes=np.ones(n, np.float32))
            out1 = encoder_forward(s1, weights, ToMeConfig(r=1))
            keep = [i for i in range(n) if i != 3]
            sizes2 = np.ones(n - 1, np.float32)
            sizes2[keep.index(6)] = 2.0
            s2 = TokenSequence(tokens=tokens[keep].copy(), sizes=sizes2)
            out2 = encoder_forward(s2, weights, ToMeConfig(r=0))
            np.testing.assert_allclose(
                out1.cls_embedding, out2.cls_embedding, atol=1e-5
            )


class TestBatchedPath:
    def test_batched_equals_single_sequence(self, small_model):
        rng = np.random.default_rng(13)
        seqs = [random_token_sequence(rng, 109, 32) for _ in range(3)]
        tokens = np.stack([s.tokens for s in seqs])
        sizes = np.stack([s.sizes for s in seqs])
        final, counts, _ = encoder_forward_batch(
            tokens, sizes, small_model, ToMeConfig(r=6)
        )
        for i, s in enumerate(seqs):
            single = encoder_forward(s, small_model, ToMeConfig(r=6))
            np.testing.assert_allclose(
                final[i, 0], single.cls_embedding, atol=1e-5
            )
            assert counts == single.per_block_counts

    def test_forward_spectrograms_batch_boundaries_do_not_matter(self, tiny_model):
        rng = np.random.default_rng(14)
        specs = rng.standard_normal((5, 128, 16)).astype(np.float32)
        a, _ = forward_spectrograms(tiny_model, specs, ToMeConfig(r=2), batch_size=2)
        b, _ = forward_spectrograms(tiny_model, specs, ToMeConfig(r=2), batch_size=5)
        np.testing.assert_allclose(a, b, atol=1e-5)


class TestPipeline:
    def test_tokens_from_spectrogram_shapes(self, tiny_model):
        rng = np.random.default_rng(15)
        values = rng.standard_normal((128, 16)).astype(np.float32)
        ts = tokens_from_spectrogram(values, tiny_model)
        assert ts.n_tokens == 13
        assert np.all(ts.sizes == 1.0)

    def test_short_clip_padded_long_rejected(self, tiny_model):
        from astmerge.errors import ShapeError

        short = np.zeros((128, 10), dtype=np.float32)
        ts = tokens_from_spectrogram(short, tiny_model)
        assert ts.n_tokens == 13
        with pytest.raises(ShapeError):
            tokens_from_spectrogram(np.zeros((128, 17), np.float32), tiny_model)
