"""Log-mel front end: shape law, silence, tone localization, scaling,
and the model's input normalization."""

import hashlib
import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from astmerge import (
    ConfigError,
    FormatError,
    ModelConfig,
    Spectrogram,
    SpectrogramConfig,
    ToMeConfig,
    Waveform,
    compute_log_mel,
    generate_synthetic_model,
    load_model,
    load_spec,
    read_wav,
    save_model,
    save_spec,
)
from astmerge import features
from astmerge.features import (
    LOG_FLOOR,
    MAX_SAMPLE_RATE,
    _hann_window,
    fit_frames,
    frames_for_duration,
    mel_filterbank,
    write_wav,
)
from astmerge.errors import ShapeError
from astmerge.kd import load_teacher_logits, save_teacher_logits
from astmerge.transformer import (
    encoder_forward_batch,
    forward_spectrograms,
    layer_norm,
    tokens_from_spectrogram,
)

from oracles import dft_peak_hz

SR = 16000
CFG = SpectrogramConfig()


def sine(freq, seconds, sr=SR, amp=0.5):
    t = np.arange(int(round(seconds * sr))) / sr
    return Waveform(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=sr)


class TestShape:
    def test_silence_is_log_floor_everywhere(self):
        w = Waveform(samples=np.zeros(5 * SR), sample_rate=SR)
        s = compute_log_mel(w, CFG)
        assert s.values.shape == (128, 500)
        expected = np.float32(np.log(LOG_FLOOR))
        assert np.all(s.values == expected)

    def test_one_second_gives_100_frames(self):
        s = compute_log_mel(sine(440, 1.0), CFG)
        assert s.values.shape == (128, 100)

    @pytest.mark.parametrize("seconds", [0.5, 1.0, 2.35, 5.0, 7.77])
    def test_frame_count_tracks_duration(self, seconds):
        s = compute_log_mel(sine(300, seconds), CFG)
        assert abs(s.values.shape[1] - round(100 * seconds)) <= 1

    def test_frames_for_duration_is_float_noise_proof(self):
        assert frames_for_duration(0.16) == 16
        assert frames_for_duration(5.0) == 500
        assert frames_for_duration(1.001) == 101

    def test_determinism(self):
        w = sine(700, 1.0)
        a = compute_log_mel(w, CFG).values.tobytes()
        b = compute_log_mel(w, CFG).values.tobytes()
        assert a == b

    def test_empty_waveform_rejected(self):
        with pytest.raises(ConfigError):
            Waveform(samples=np.array([]), sample_rate=SR)

    @pytest.mark.parametrize("sr, fps, digest", [
        (16000, 100, "1631744ba1f0e0bf33074c9c88869e8b7c83616e2b7919662c15916e65ef44df"),
        (16000, 50, "ef3b47d557db22269ef8d3a876e07352faeeb5b942dd7ed54ed60aff8798de11"),
        (22050, 100, "708bdeb2146fe8b65ec0db1fced88a85918b98b0a26999f189c5442900fd8034"),
        (22050, 50, "d0fc2af5a1e5276d12d28d9cfd8fe29c6377aba698c49a353a59e72dacb786a4"),
    ])
    def test_pinned_log_mel_digest(self, sr, fps, digest):
        """The fixed front end's bits, frozen for one seeded half-second of
        noise: window, hop, FFT size, mel edges and log floor all feed them."""
        x = np.random.default_rng(7).uniform(-0.5, 0.5, size=sr // 2)
        s = compute_log_mel(Waveform(samples=x, sample_rate=sr),
                            SpectrogramConfig(frames_per_second=fps))
        assert hashlib.sha256(s.values.tobytes()).hexdigest() == digest


class TestToneLocalization:
    def test_1khz_sine_peaks_in_nearest_mel_bin(self):
        """Oracle: the per-frame DFT peak sits at 1 kHz, so the mel bin whose
        center is nearest 1 kHz must carry the column maximum."""
        w = sine(1000, 1.0)
        s = compute_log_mel(w, CFG)
        _, centers = mel_filterbank(CFG, SR)
        target = int(np.argmin(np.abs(centers - 1000.0)))

        win = CFG.window_samples(SR)
        hop = CFG.hop_samples(SR)
        n_fft = CFG.fft_samples(SR)
        interior = [
            k
            for k in range(s.values.shape[1])
            if k * hop - win // 2 >= 0 and k * hop + win // 2 <= w.samples.size
        ]
        assert len(interior) >= 90
        # oracle premise: raw spectrum peak is within one DFT bin of 1 kHz
        for k in interior[:: len(interior) // 10]:
            frame = w.samples[k * hop - win // 2 : k * hop - win // 2 + win]
            assert abs(dft_peak_hz(frame, SR, n_fft) - 1000.0) <= SR / n_fft + 1e-9

        hits = sum(int(np.argmax(s.values[:, k]) == target) for k in interior)
        assert hits / len(interior) >= 0.95


class TestFilterbankCache:
    def test_cached_tables_are_shared_and_read_only(self):
        fb, centers = mel_filterbank(CFG, SR)
        assert mel_filterbank(CFG, SR)[0] is fb
        assert mel_filterbank(CFG, 2 * SR)[0].shape != fb.shape
        window = _hann_window(CFG.window_samples(SR))
        assert _hann_window(CFG.window_samples(SR)) is window
        for table in (fb, centers, window):
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_warm_cache_gives_the_cold_bits(self):
        w = sine(440, 0.5)
        mel_filterbank.cache_clear()
        _hann_window.cache_clear()
        cold = compute_log_mel(w, CFG).values
        np.testing.assert_array_equal(
            compute_log_mel(w, CFG).values.view(np.uint32), cold.view(np.uint32)
        )


class TestScaling:
    def test_amplitude_scale_shifts_log_by_2_ln_k(self):
        """Power scales with k^2, so log-mel shifts by 2 ln k wherever the
        energy dominates the log floor (the lowest mel filter can be empty
        at this FFT resolution and stays pinned at the floor)."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.2, 0.2, size=SR)
        k = 3.7
        s1 = compute_log_mel(Waveform(samples=x, sample_rate=SR), CFG)
        s2 = compute_log_mel(Waveform(samples=k * x, sample_rate=SR), CFG)
        energized = s1.values > math.log(LOG_FLOOR) + 5.0
        assert energized.mean() > 0.95
        shift = s2.values.astype(np.float64) - s1.values.astype(np.float64)
        np.testing.assert_allclose(shift[energized], 2.0 * math.log(k), atol=1e-3)


class TestNormalize:
    """forward_spectrograms maps every value v to (v - norm_mean) / norm_std
    before patchify; checked bitwise on the CLS embeddings it returns."""

    @staticmethod
    def encode(model, values):
        cls, _ = forward_spectrograms(model, np.asarray(values, np.float32), ToMeConfig(r=0))
        return cls

    def test_identity_parameters(self, tiny_model):
        s = compute_log_mel(sine(500, 0.16), CFG)
        model = replace(tiny_model, norm_mean=0.0, norm_std=1.0)
        tokens, sizes = tokens_from_spectrogram(s.values[None], model)
        final, _ = encoder_forward_batch(tokens, sizes, model, ToMeConfig(r=0))
        cls = layer_norm(final[:, 0], model.final_ln_gain, model.final_ln_bias)
        np.testing.assert_array_equal(self.encode(model, s.values[None]), cls)

    def test_constant_goes_to_zero(self, tiny_model):
        shifted = replace(tiny_model, norm_mean=3.25, norm_std=2.0)
        out = self.encode(shifted, np.full((1, 128, 16), 3.25))
        np.testing.assert_array_equal(out, self.encode(tiny_model, np.zeros((1, 128, 16))))

    def test_two_point_case(self, tiny_model):
        shifted = replace(tiny_model, norm_mean=2.0, norm_std=1.0)
        out = self.encode(shifted, np.tile([1.0, 3.0], (1, 128, 8)))
        expected = self.encode(tiny_model, np.tile([-1.0, 1.0], (1, 128, 8)))
        np.testing.assert_array_equal(out, expected)

    def test_nonpositive_std_rejected(self, tiny_model):
        for mean, std in ((0.0, 0.0), (0.0, -1.0), (0.0, math.nan), (0.0, math.inf),
                          (math.nan, 1.0), (0.0, 1e-300), (0.0, 1e-45), (0.0, 1e39),
                          (1e39, 1.0)):
            with pytest.raises(ConfigError):
                replace(tiny_model, norm_mean=mean, norm_std=std)


class TestSpecFile:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        s = Spectrogram(values=rng.standard_normal((128, 37)).astype(np.float32))
        p1 = tmp_path / "a.spec"
        p2 = tmp_path / "b.spec"
        save_spec(p1, s)
        loaded = load_spec(p1)
        np.testing.assert_array_equal(loaded.values, s.values)
        save_spec(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected_by_name(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(FormatError, match="NOPE!"):
            load_spec(p)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        s = Spectrogram(values=rng.standard_normal((8, 8)).astype(np.float32))
        p = tmp_path / "t.spec"
        save_spec(p, s)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_spec(p)


class TestPayloadRead:
    @pytest.mark.parametrize("fmt", ["MODL1", "SPEC1", "TLOG1"])
    def test_file_that_shrinks_while_read_is_format_error(self, tmp_path, monkeypatch, fmt):
        """The payload size passes its check against fstat, then the file is
        cut before the read: the short read is a format error. Payloads span
        many read buffers, so the cut is seen."""
        rng = np.random.default_rng(3)
        p = tmp_path / fmt
        if fmt == "MODL1":
            save_model(p, generate_synthetic_model(0, ModelConfig(
                depth=2, embed_dim=64, n_heads=2, clip_seconds=1.0, n_classes=4,
            )))
            load = load_model
        elif fmt == "SPEC1":
            values = rng.standard_normal((128, 2000)).astype(np.float32)
            save_spec(p, Spectrogram(values=values))
            load = load_spec
        else:
            save_teacher_logits(p, rng.standard_normal((65536, 4)).astype(np.float32))
            load = load_teacher_logits

        def fstat_then_shrink(fd):
            st = os.fstat(fd)
            os.truncate(p, 0)
            return st

        monkeypatch.setattr(features, "os", SimpleNamespace(fstat=fstat_then_shrink))
        with pytest.raises(FormatError, match="shrank while it was read"):
            load(p)

    def test_matching_out_is_filled_in_place(self, tmp_path):
        values = np.random.default_rng(4).standard_normal((8, 5)).astype(np.float32)
        save_spec(tmp_path / "a.spec", Spectrogram(values=values))
        out = np.zeros((8, 5), np.float32)
        assert load_spec(tmp_path / "a.spec", out=out).values is out
        np.testing.assert_array_equal(out, values)
        other = np.zeros((8, 6), np.float32)
        loaded = load_spec(tmp_path / "a.spec", out=other).values
        assert loaded is not other and not other.any()
        np.testing.assert_array_equal(loaded, values)


class TestWav:
    def test_wav_round_trip_within_quantization(self, tmp_path):
        w = sine(640, 0.25)
        p = tmp_path / "x.wav"
        write_wav(p, w)
        back = read_wav(p)
        assert back.sample_rate == SR
        assert back.samples.size == w.samples.size
        assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32767

    def test_sample_rate_ceiling(self, tmp_path):
        """The highest allowed rate reads; one more is a format error."""
        p = tmp_path / "x.wav"
        write_wav(p, Waveform(samples=np.zeros(8), sample_rate=MAX_SAMPLE_RATE))
        assert read_wav(p).sample_rate == MAX_SAMPLE_RATE
        write_wav(p, Waveform(samples=np.zeros(8), sample_rate=MAX_SAMPLE_RATE + 1))
        with pytest.raises(FormatError, match="sample rate"):
            read_wav(p)


class TestFitFrames:
    def test_pads_short_clip_with_zeros(self):
        v = np.ones((128, 90), dtype=np.float32)
        out = fit_frames(v, 100)
        assert out.shape == (128, 100)
        assert np.all(out[:, 90:] == 0.0)
        np.testing.assert_array_equal(out[:, :90], v)

    def test_rejects_long_clip(self):
        v = np.ones((128, 101), dtype=np.float32)
        with pytest.raises(ShapeError):
            fit_frames(v, 100)
