"""Encoder blocks: attention oracle, merge placement, count laws, and the
proportional-attention equivalence that justifies size tracking."""

import re
import sys
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from astmerge import (
    ConfigError,
    ModelConfig,
    ShapeError,
    ToMeConfig,
    count_trajectory,
    generate_synthetic_model,
)
from astmerge.transformer import (
    BlockWeights,
    ModelWeights,
    attention_batch,
    encoder_forward_batch,
    forward_spectrograms,
    layer_norm,
    mlp_batch,
    tokens_from_spectrogram,
)
from astmerge.features import fit_frames
from astmerge.pool import sample_pool
from astmerge.tome import merge_step

from conftest import DEPTH1_TENSOR_AXES, random_token_sequence
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
    tokens, sizes = ts
    final, _ = encoder_forward_batch(tokens[None], sizes[None], model, tome)
    return layer_norm(final[0], model.final_ln_gain, model.final_ln_bias)


def encode(ts, model, tome):
    """(final-LayerNormed [CLS] row, per-block counts) of one (tokens, sizes)
    sequence run as a batch of one."""
    tokens, sizes = ts
    final, counts = encoder_forward_batch(tokens[None], sizes[None], model, tome)
    return layer_norm(final[0, 0], model.final_ln_gain, model.final_ln_bias), counts


def attention(ts, w, n_heads, pool):
    tokens, sizes = ts
    out, keys = attention_batch(tokens[None], sizes[None], w, n_heads, pool)
    return out[0], keys[0]


class TestAttention:
    def test_unit_sizes_match_naive_standard_attention(self, pool):
        rng = np.random.default_rng(0)
        ts = random_token_sequence(rng, 6, 12)
        w = random_block(rng, 12, 24)
        out, keys = attention(ts, w, n_heads=2, pool=pool)
        ref_out, ref_keys = naive_attention(*ts, w, 2)
        np.testing.assert_allclose(out, ref_out, atol=1e-5)
        np.testing.assert_allclose(keys, ref_keys, atol=1e-5)

    def test_merged_sizes_match_naive_proportional_attention(self, pool):
        rng = np.random.default_rng(1)
        sizes = np.array([1, 3, 1, 2, 5, 1], dtype=np.float32)
        ts = (rng.standard_normal((6, 12)).astype(np.float32), sizes)
        w = random_block(rng, 12, 24)
        out, _ = attention(ts, w, n_heads=3, pool=pool)
        ref_out, _ = naive_attention(ts[0], sizes, w, 3)
        np.testing.assert_allclose(out, ref_out, atol=1e-5)

    def test_large_sizes_match_log_offset_softmax(self, pool):
        """Size-weighted values and normaliser against the explicit
        softmax(q k^T / sqrt(dh) + ln s) reference, sizes up to 50."""
        rng = np.random.default_rng(20)
        for n, heads in ((7, 3), (40, 2)):
            sizes = rng.integers(1, 51, size=n).astype(np.float32)
            sizes[n // 2] = 50.0
            ts = (rng.standard_normal((n, 24)).astype(np.float32), sizes)
            w = random_block(rng, 24, 48)
            out, _ = attention(ts, w, n_heads=heads, pool=pool)
            ref_out, _ = naive_attention(ts[0], sizes, w, heads)
            np.testing.assert_allclose(out, ref_out, atol=1e-5)

    def test_single_token_is_value_projection(self, pool):
        """Softmax over one key is exactly 1, so the output reduces to the
        value path; checked bitwise against the softmax-free computation."""
        rng = np.random.default_rng(2)
        ts = random_token_sequence(rng, 1, 8)
        w = random_block(rng, 8, 16)
        out, _ = attention(ts, w, n_heads=2, pool=pool)
        h = layer_norm(ts[0], w.ln1_gain, w.ln1_bias)
        qkv = h @ w.qkv + w.qkv_bias
        v = qkv[:, 16:]
        direct = ts[0] + (v @ w.proj + w.proj_bias)
        np.testing.assert_array_equal(out, direct)

    def test_returned_keys_are_head_averaged(self, pool):
        rng = np.random.default_rng(3)
        ts = random_token_sequence(rng, 5, 12)
        w = random_block(rng, 12, 24)
        _, keys = attention(ts, w, n_heads=3, pool=pool)
        assert keys.shape == (5, 4)


class TestEncoderBlock:
    def test_zero_weights_reduce_to_merging_only(self, pool):
        """With all-zero weights both sub-layers contribute nothing, so the
        block output equals a bare merge of the inputs (seen through the
        final LayerNorm)."""
        rng = np.random.default_rng(5)
        ts = random_token_sequence(rng, 8, 8)
        model = one_block_model(zero_block(8, 16), 2)
        cfg = ToMeConfig(r=2)
        out = run_block(ts, model, cfg)
        merged, _, _ = merge_step(ts[0][None], ts[1][None], np.zeros((1, 8, 4)), cfg, pool)
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
        _, counts = encode(ts, small_model, ToMeConfig(r=0))
        assert counts == [109] * 4
        assert counts[-1] == 109

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
        _, counts = encode(ts, weights, ToMeConfig(r=10))
        expected = count_trajectory(109, 12, 10)
        assert counts == expected
        assert expected[:4] == [109, 99, 89, 79]
        assert counts[-1] == expected[-1]

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
            ts2 = (ts[0][perm], ts[1][perm])
            a = run_block(ts, model, ToMeConfig(r=4))
            b = run_block(ts2, model, ToMeConfig(r=4))
            np.testing.assert_allclose(a[0], b[0], atol=1e-5)
            sort_a = a[np.lexsort(a.T)]
            sort_b = b[np.lexsort(b.T)]
            np.testing.assert_allclose(sort_a, sort_b, atol=1e-5)


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
            s1 = (tokens.copy(), np.ones(n, np.float32))
            out1, _ = encode(s1, weights, ToMeConfig(r=1))
            keep = [i for i in range(n) if i != 3]
            sizes2 = np.ones(n - 1, np.float32)
            sizes2[keep.index(6)] = 2.0
            s2 = (tokens[keep].copy(), sizes2)
            out2, _ = encode(s2, weights, ToMeConfig(r=0))
            np.testing.assert_allclose(out1, out2, atol=1e-5)


class TestBatchedPath:
    def test_batched_equals_single_sequence(self, small_model):
        rng = np.random.default_rng(13)
        seqs = [random_token_sequence(rng, 109, 32) for _ in range(3)]
        tokens = np.stack([s[0] for s in seqs])
        sizes = np.stack([s[1] for s in seqs])
        final, counts = encoder_forward_batch(tokens, sizes, small_model, ToMeConfig(r=6))
        cls = layer_norm(final[:, 0], small_model.final_ln_gain, small_model.final_ln_bias)
        for i, s in enumerate(seqs):
            single, single_counts = encode(s, small_model, ToMeConfig(r=6))
            np.testing.assert_allclose(cls[i], single, atol=1e-5)
            assert counts == single_counts

    def test_forward_spectrograms_batch_boundaries_do_not_matter(self, tiny_model):
        """Bitwise: the batched patch embedding and the blocks must give
        each clip the same bits whatever chunk it lands in."""
        rng = np.random.default_rng(14)
        specs = rng.standard_normal((5, 128, 16)).astype(np.float32)
        for r in (0, 2):
            whole, _ = forward_spectrograms(tiny_model, specs, ToMeConfig(r=r), batch_size=5)
            for batch_size in (1, 2, 3):
                a, _ = forward_spectrograms(
                    tiny_model, specs, ToMeConfig(r=r), batch_size=batch_size
                )
                np.testing.assert_array_equal(bits(a), bits(whole))


def bits(a):
    """The raw float32 bits, so -0.0 and NaN payloads compare exactly."""
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


class TestBlockBuffers:
    """The block runs in reused per-call buffers; the bits must not move."""

    def test_layer_norm_into_out_is_bitwise(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((7, 24)).astype(np.float32)
        x[2] = -0.0
        gain, bias = rng.standard_normal((2, 24)).astype(np.float32)
        before = x.copy()
        buf = np.empty_like(x)
        got = layer_norm(x, gain, bias, out=buf)
        assert got is buf
        np.testing.assert_array_equal(bits(got), bits(layer_norm(x, gain, bias)))
        np.testing.assert_array_equal(bits(x), bits(before))

    def test_constant_row_normalizes_to_bias(self):
        """A constant row has zero variance: LayerNorm gives exactly bias,
        for dyadic constants whose row mean is exact, -0.0 included."""
        rng = np.random.default_rng(22)
        gain, bias = rng.standard_normal((2, 192)).astype(np.float32)
        gain[::3] *= -1.0
        x = np.repeat(
            np.array([0.0, -0.0, 3.0, -2.5, 1024.0, 0.25], np.float32)[:, None], 192, axis=1
        )
        want = np.broadcast_to(bias, x.shape)
        np.testing.assert_array_equal(bits(layer_norm(x, gain, bias)), bits(want))
        np.testing.assert_array_equal(bits(layer_norm(x[2], gain, bias)), bits(bias))

    @pytest.mark.parametrize(
        "b, n", [(3, 13), (2, 109), (5, 109), (4, 128), (1, 300)],
        ids=["Bn39", "Bn218", "Bn545", "Bn512", "one-sample-300"],
    )
    def test_batch_rows_equal_rows_run_alone(self, b, n, pool):
        """B·n below 256, a multiple of 256 and neither; merged sizes in all
        rows but the first, whose unit sizes take the plain-softmax path
        when run alone."""
        rng = np.random.default_rng(17 + b * n)
        d, heads = 24, 3
        w = random_block(rng, d, 2 * d)
        x = rng.standard_normal((b, n, d)).astype(np.float32)
        x[-1, n // 2] = -0.0
        sizes = rng.integers(1, 4, size=(b, n)).astype(np.float32)
        sizes[0] = 1.0
        before = x.copy()
        out, keys = attention_batch(x, sizes, w, heads, pool)
        mlp = mlp_batch(x, w, pool)
        np.testing.assert_array_equal(bits(x), bits(before))
        for i in range(b):
            out1, keys1 = attention_batch(x[i : i + 1], sizes[i : i + 1], w, heads, pool)
            np.testing.assert_array_equal(bits(out[i]), bits(out1[0]))
            np.testing.assert_array_equal(bits(keys[i]), bits(keys1[0]))
            np.testing.assert_array_equal(bits(mlp[i]), bits(mlp_batch(x[i : i + 1], w, pool)[0]))

    def test_peak_memory_has_no_batch_sized_temporaries(self, pool):
        """Desk-shaped [4 x 589 x 192] batch on one worker, its scratch
        buffers counted. Batch-wide LayerNorm, QKV and context arrays would
        peak near 8x and 5x the input."""
        import tracemalloc

        rng = np.random.default_rng(18)
        w = random_block(rng, 192, 768)
        x = rng.standard_normal((4, 589, 192)).astype(np.float32)
        sizes = np.ones((4, 589), np.float32)
        # BLAS is pinned to one thread by ``pool``, so this pool has one worker
        with sample_pool() as one:
            assert one.workers == 1
            for run, bound in ((lambda: attention_batch(x, sizes, w, 3, one), 4),
                               (lambda: mlp_batch(x, w, one), 3)):
                tracemalloc.start()
                try:
                    run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < bound * x.nbytes


class TestPipeline:
    def test_tokens_from_spectrogram_shapes(self, tiny_model):
        rng = np.random.default_rng(15)
        values = rng.standard_normal((2, 128, 16)).astype(np.float32)
        tokens, sizes = tokens_from_spectrogram(values, tiny_model)
        assert tokens.shape == (2, 13, 16)
        assert sizes.shape == (2, 13)
        assert np.all(sizes == 1.0)

    def test_short_clip_padded_long_rejected(self, tiny_model):
        short = np.zeros((1, 128, 10), dtype=np.float32)
        tokens, _ = tokens_from_spectrogram(fit_frames(short, 16), tiny_model)
        assert tokens.shape[1] == 13
        with pytest.raises(ShapeError):
            tokens_from_spectrogram(np.zeros((1, 128, 17), np.float32), tiny_model)

    def test_batch_rows_equal_clips_run_alone(self, small_model):
        """Each row of one batched patchify is bitwise the clip patchified
        alone, a short zero-padded clip included: the embedding GEMM's bits
        must not depend on how many clips share it."""
        rng = np.random.default_rng(19)
        specs = rng.standard_normal((5, 128, 100)).astype(np.float32)
        specs[3, :, 61:] = 0.0  # what padding a 61-frame clip gives
        tokens, sizes = tokens_from_spectrogram(specs, small_model)
        for i in range(5):
            alone, alone_sizes = tokens_from_spectrogram(specs[i : i + 1], small_model)
            np.testing.assert_array_equal(bits(tokens[i]), bits(alone[0]))
            np.testing.assert_array_equal(sizes[i], alone_sizes[0])
        short, _ = tokens_from_spectrogram(fit_frames(specs[3:4, :, :61], 100), small_model)
        np.testing.assert_array_equal(bits(tokens[3]), bits(short[0]))
        with pytest.raises(ShapeError):
            tokens_from_spectrogram(np.zeros((2, 128, 101), np.float32), small_model)

    @pytest.mark.parametrize("shape", [(2, 128, 10), (2, 128, 17), (2, 64, 16), (128, 16)],
                             ids=["short", "long", "64-mel", "one-clip"])
    def test_stack_off_the_model_clip_is_shape_error(self, tiny_model, shape):
        """tokens_from_spectrogram takes only padded [B x 128 x 16] stacks;
        a 64-mel stack used to end in a NumPy broadcast error."""
        with pytest.raises(ShapeError, match=r"expected a \[B x 128 x 16\] stack"):
            tokens_from_spectrogram(np.zeros(shape, np.float32), tiny_model)

    def test_short_clip_padded_before_normalizing(self, small_model):
        """A short clip gives the same bits as the clip zero-padded first,
        as bench.load_inputs pads it: padding comes before normalization."""
        model = replace(small_model, norm_mean=-4.0, norm_std=2.0)
        clip = np.random.default_rng(23).standard_normal((1, 128, 60)).astype(np.float32)
        short, _ = forward_spectrograms(model, clip, ToMeConfig(r=4))
        padded, _ = forward_spectrograms(model, fit_frames(clip, 100), ToMeConfig(r=4))
        np.testing.assert_array_equal(bits(short), bits(padded))

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="older CPython keeps call arguments alive until the call returns",
    )
    def test_forward_frees_the_block0_tokens(self):
        """Desk-shaped forward (16 clips, 589 tokens, width 192, one block):
        the block-0 token array is freed once block 0's attention replaced
        it. Holding it for the whole encoder call put the tracemalloc peak
        near 4.8 token arrays; without it the peak is near 3.9."""
        import tracemalloc

        model = generate_synthetic_model(0, ModelConfig(depth=1, n_classes=4))
        specs = np.random.default_rng(24).standard_normal(
            (16, 128, model.expected_frames)
        ).astype(np.float32)
        token_bytes = 16 * model.n_tokens * model.config.embed_dim * 4
        tracemalloc.start()
        try:
            forward_spectrograms(model, specs, ToMeConfig(r=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.4 * token_bytes, peak / token_bytes


class TestModelWeights:
    def test_extra_block_rejected(self, tiny_model):
        with pytest.raises(ConfigError, match="depth 1 but carries 2 blocks"):
            replace(tiny_model, blocks=tiny_model.blocks * 2)

    def test_weight_records_are_frozen(self, tiny_model):
        """A tensor cannot be swapped into a built model's records past the
        construction check; it used to end in a broadcast error in the MLP."""
        w = generate_synthetic_model(0, tiny_model.config)
        assert isinstance(w.blocks, tuple)
        for record, field in ((w.blocks[0], "mlp_in"), (w.embedding, "projection"),
                              (w.head, "linear")):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field, np.zeros((16, 33), np.float32))

    @pytest.mark.parametrize("name, axis", DEPTH1_TENSOR_AXES,
                             ids=[f"{n}[{a}]" for n, a in DEPTH1_TENSOR_AXES])
    def test_tensor_off_by_one_is_shape_error(self, tiny_model, name, axis):
        """Building or replace-ing a model with one tensor a row or column off
        its layout names that tensor."""
        tensors = dict(tiny_model.tensors())
        shape = list(tensors[name].shape)
        shape[axis] += 1
        bad = tensors[name] = np.zeros(shape, np.float32)
        named = re.escape(repr(name))
        with pytest.raises(ShapeError, match=named):
            ModelWeights.from_tensors(
                tensors, config=tiny_model.config, spec_config=tiny_model.spec_config
            )
        owner, _, field = name.rpartition(".")
        if owner == "":
            change = {field: bad}
        elif owner == "block0":
            change = {"blocks": [replace(tiny_model.blocks[0], **{field: bad})]}
        else:
            attr = {"patch": "embedding", "head": "head"}[owner]
            change = {attr: replace(getattr(tiny_model, attr), **{field: bad})}
        with pytest.raises(ShapeError, match=named):
            replace(tiny_model, **change)
