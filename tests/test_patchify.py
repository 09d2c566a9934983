"""Patch grid law, gather purity, embedding and [CLS]/positional assembly."""

from dataclasses import replace

import numpy as np
import pytest

from astmerge import (
    ConfigError,
    EmbeddingWeights,
    SpectrogramConfig,
    add_positional_and_cls,
    embed_patches,
    extract_patches,
    patch_count,
)
from astmerge.errors import ShapeError

from oracles import naive_matmul


def spec(values):
    """A batch of one [mels x frames] spectrogram."""
    return np.asarray(values, dtype=np.float32)[None]


class TestPatchCount:
    def test_five_second_clip(self):
        assert patch_count(5.0) == 588

    def test_one_second_clip(self):
        assert patch_count(1.0) == 108

    def test_exact_fit_boundary_still_has_one_column(self):
        # 16 frames: the ceiling formula degenerates to 0 but one patch fits.
        assert patch_count(0.16) == 12

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            patch_count(0.15)

    def test_too_few_mels_rejected(self):
        with pytest.raises(ShapeError, match="15 x 100"):
            patch_count(1.0, SpectrogramConfig(n_mels=15))

    @pytest.mark.parametrize("t", range(1, 11))
    def test_formula_matches_extraction(self, t):
        values = np.zeros((128, 100 * t), dtype=np.float32)
        patches = extract_patches(spec(values))
        assert patch_count(float(t)) == patches.shape[1]


class TestExtractPatches:
    def test_reference_grid_5s(self):
        rng = np.random.default_rng(0)
        patches = extract_patches(spec(rng.standard_normal((128, 500))))
        assert patches.shape == (1, 12 * 49, 256)

    def test_single_time_column(self):
        values = spec(np.zeros((128, 16)))
        patches = extract_patches(values)
        assert patches.shape == (1, 12, 256)
        # a copy, not the reshaped view of the input
        assert patches.flags.c_contiguous and not np.shares_memory(patches, values)

    def test_64_mel_grid(self):
        assert extract_patches(np.zeros((2, 64, 26), np.float32)).shape == (2, 5 * 2, 256)

    def test_constant_input_gives_constant_patches(self):
        patches = extract_patches(spec(np.full((128, 26), 2.5)))
        assert np.all(patches == np.float32(2.5))

    def test_pure_gather(self):
        """Every output value is an input value; patching does no arithmetic."""
        rng = np.random.default_rng(1)
        values = rng.permutation(128 * 40).astype(np.float32).reshape(128, 40)
        patches = extract_patches(spec(values))
        assert set(patches.ravel().tolist()) <= set(values.ravel().tolist())

    def test_enumeration_frequency_fastest_and_row_major(self):
        # value encodes its (mel, frame) coordinate
        mel = np.arange(128)[:, None] * 1000.0
        frame = np.arange(60)[None, :] * 1.0
        patches = extract_patches(spec(mel + frame))
        for p_idx in [0, 1, 11, 12, 25, patches.shape[1] - 1]:
            j, i = divmod(p_idx, 12)
            top_left = patches[0, p_idx][0]
            assert top_left == 10 * i * 1000.0 + 10 * j
            # row-major flattening: entry 16 starts the second mel row
            assert patches[0, p_idx][16] == (10 * i + 1) * 1000.0 + 10 * j

    def test_too_small_rejected(self):
        with pytest.raises(ShapeError):
            extract_patches(spec(np.zeros((128, 15))))
        with pytest.raises(ShapeError):
            extract_patches(spec(np.zeros((15, 100))))


class TestEmbedPatches:
    def weights(self, **fields):
        """Random d=16, 13-token weights, with ``fields`` replaced."""
        rng = np.random.default_rng(2)
        return replace(EmbeddingWeights(
            projection=rng.standard_normal((256, 16)).astype(np.float32),
            projection_bias=rng.standard_normal(16).astype(np.float32),
            positional=rng.standard_normal((13, 16)).astype(np.float32),
            cls_token=rng.standard_normal(16).astype(np.float32),
        ), **fields)

    def test_zero_patches_zero_bias(self):
        w = self.weights(projection_bias=np.zeros(16, dtype=np.float32))
        out = embed_patches(np.zeros((2, 5, 256), dtype=np.float32), w)
        assert np.all(out == 0.0)

    def test_selector_projection_copies_entries(self):
        proj = np.zeros((256, 16), dtype=np.float32)
        proj[:16, :16] = np.eye(16, dtype=np.float32)
        w = self.weights(projection=proj, projection_bias=np.zeros(16, dtype=np.float32))
        rng = np.random.default_rng(3)
        patches = rng.standard_normal((2, 7, 256)).astype(np.float32)
        np.testing.assert_array_equal(embed_patches(patches, w), patches[..., :16])

    def test_matches_triple_loop_matmul(self):
        # 0.1-scale values keep float32 round-off inside the 1e-6 budget
        rng = np.random.default_rng(4)
        w = self.weights(projection=(0.1 * rng.standard_normal((256, 16))).astype(np.float32))
        patches = (0.1 * rng.standard_normal((2, 6, 256))).astype(np.float32)
        ref = [naive_matmul(p, w.projection) + w.projection_bias for p in patches]
        np.testing.assert_allclose(embed_patches(patches, w), ref, atol=1e-6)


class TestAddPositionalAndCls:
    def test_all_zero(self):
        w = EmbeddingWeights(
            projection=np.zeros((256, 4), np.float32),
            projection_bias=np.zeros(4, np.float32),
            positional=np.zeros((3, 4), np.float32),
            cls_token=np.zeros(4, np.float32),
        )
        tokens, sizes = add_positional_and_cls(np.zeros((1, 2, 4), np.float32), w)
        assert tokens.shape[1] == 3
        assert np.all(tokens == 0.0)
        np.testing.assert_array_equal(sizes, [[1.0, 1.0, 1.0]])

    def test_zero_input_yields_positional_rows(self):
        rng = np.random.default_rng(5)
        pos = rng.standard_normal((4, 6)).astype(np.float32)
        w = EmbeddingWeights(
            projection=np.zeros((256, 6), np.float32),
            projection_bias=np.zeros(6, np.float32),
            positional=pos,
            cls_token=np.zeros(6, np.float32),
        )
        tokens, _ = add_positional_and_cls(np.zeros((2, 3, 6), np.float32), w)
        np.testing.assert_array_equal(tokens, [pos, pos])

    def test_token_count_for_5s_model(self):
        rng = np.random.default_rng(6)
        n = patch_count(5.0)
        w = EmbeddingWeights(
            projection=rng.standard_normal((256, 8)).astype(np.float32),
            projection_bias=np.zeros(8, np.float32),
            positional=rng.standard_normal((n + 1, 8)).astype(np.float32),
            cls_token=rng.standard_normal(8).astype(np.float32),
        )
        tokens, sizes = add_positional_and_cls(
            rng.standard_normal((1, n, 8)).astype(np.float32), w
        )
        assert tokens.shape[1] == 589
        assert np.all(sizes == 1.0)
