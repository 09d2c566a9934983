"""MODL1/MANI1 round-trips, seeded generation, synthetic data, probe fit."""

import hashlib
import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest

from astmerge import (
    DatasetManifest,
    FormatError,
    ModelConfig,
    SpectrogramConfig,
    SyntheticDataConfig,
    ToMeConfig,
    fit_head_probe,
    generate_synthetic_dataset,
    generate_synthetic_model,
    load_manifest,
    load_model,
    save_manifest,
    save_model,
)
from astmerge.errors import AlignmentError, ConfigError, ShapeError
from astmerge.head import softmax
from astmerge.model_io import (
    _MODL1_HEADER,
    class_templates,
    generate_synthetic_teacher_logits,
)
from astmerge.transformer import forward_spectrograms, tensor_layout

TINY = ModelConfig(
    depth=1, embed_dim=16, n_heads=2, mlp_ratio=2.0, clip_seconds=0.16, n_classes=3
)

# Frozen from the Philox(key=seed) draw order; stable across runs and
# platforms for a given numpy generation (numpy 2.x stream).
TINY_SEED0_SHA256 = "02d46c90e8fb6ce4799d173ffd5d060250ba00e3652e19e7ef8a7352e1a3ae7b"


def modl1_header(data):
    """A MODL1 file's JSON header, and the payload after it."""
    (header_len,) = struct.unpack_from("<I", data, 6)
    return json.loads(data[10 : 10 + header_len]), data[10 + header_len :]


def model_digest(weights):
    h = hashlib.sha256()
    for _, t in weights.tensors():
        h.update(np.ascontiguousarray(t, dtype="<f4").tobytes())
    return h.hexdigest()


class TestModelFile:
    def test_save_load_save_byte_identical(self, tmp_path):
        w = generate_synthetic_model(3, TINY)
        p1, p2 = tmp_path / "a.modl", tmp_path / "b.modl"
        save_model(p1, w)
        loaded = load_model(p1)
        save_model(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.config == w.config
        for (n1, t1), (n2, t2) in zip(w.tensors(), loaded.tensors()):
            assert n1 == n2
            assert t2.dtype == np.float32 and t2.flags.c_contiguous
            assert not t2.flags.writeable
            np.testing.assert_array_equal(t1.view(np.uint32), t2.view(np.uint32))

    def test_corrupted_magic_named_in_error(self, tmp_path):
        p = tmp_path / "bad.modl"
        w = generate_synthetic_model(0, TINY)
        save_model(p, w)
        data = bytearray(p.read_bytes())
        data[:5] = b"WRONG"
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="WRONG"):
            load_model(p)

    def test_unknown_version_rejected(self, tmp_path):
        p = tmp_path / "v9.modl"
        w = generate_synthetic_model(0, TINY)
        save_model(p, w)
        data = bytearray(p.read_bytes())
        data[5] = 9
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_model(p)

    def test_version_1_file_is_format_error(self, tmp_path):
        """A version-1 file, whose header could carry window or patch
        settings this build does not read, and a version-2 file, whose
        tensor table repeated the layout, are refused by their version byte."""
        p = tmp_path / "old.modl"
        save_model(p, generate_synthetic_model(0, TINY))
        data = bytearray(p.read_bytes())
        assert data[5] == 3
        for version in (1, 2):
            data[5] = version
            p.write_bytes(bytes(data))
            with pytest.raises(
                FormatError, match=f"unknown MODL1 version {version}, expected 3"
            ):
                load_model(p)

    def test_header_holds_the_configs_and_norm_only(self, tmp_path):
        """The header states no tensor table: the layout follows from its
        configs."""
        p = tmp_path / "m.modl"
        save_model(p, generate_synthetic_model(0, TINY))
        header, _ = modl1_header(p.read_bytes())
        assert sorted(header) == ["model", "norm_mean", "norm_std", "spectrogram"]

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "trunc.modl"
        save_model(p, generate_synthetic_model(0, TINY))
        p.write_bytes(p.read_bytes()[:-17])
        with pytest.raises(FormatError):
            load_model(p)

    def test_header_payload_tensor_mismatch_rejected(self, tmp_path):
        # bloat the payload without touching the header
        p = tmp_path / "extra.modl"
        save_model(p, generate_synthetic_model(0, TINY))
        p.write_bytes(p.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="payload"):
            load_model(p)

    def test_huge_declared_depth_fails_on_payload_size(self, tmp_path):
        """A header declaring 10**8 blocks is refused on the file's size,
        sized from one block, before any tensor is listed."""
        p = tmp_path / "m.modl"
        save_model(p, generate_synthetic_model(0, TINY))
        data = p.read_bytes()
        header, payload = modl1_header(data)
        header["model"]["depth"] = 10**8
        blob = json.dumps(header).encode()
        p.write_bytes(data[:6] + struct.pack("<I", len(blob)) + blob + payload)
        layout = tensor_layout(TINY, SpectrogramConfig())
        block = sum(math.prod(s) for n, s in layout.items() if n.startswith("block0."))
        size = 4 * sum(map(math.prod, layout.values()))
        expected = f"payload is {size} bytes, expected {size + 4 * (10**8 - 1) * block}$"
        with pytest.raises(FormatError, match=expected):
            load_model(p)

    def test_writing_one_tensor_leaves_the_others(self, tmp_path):
        """The tensors are read-only views that tile one buffer in layout
        order, so none overlaps another."""
        w = generate_synthetic_model(4, TINY)
        save_model(tmp_path / "m.modl", w)
        table = load_model(tmp_path / "m.modl").tensors()
        starts = [t.ctypes.data for _, t in table]
        ends = [start + t.nbytes for start, (_, t) in zip(starts, table)]
        assert starts[1:] == ends[:-1]
        assert ends[-1] - starts[0] == sum(t.nbytes for _, t in w.tensors())
        assert not any(t.flags.writeable for _, t in table)

    def test_peak_memory_is_one_payload(self, tmp_path):
        """load_model reads the payload once into the buffer its tensors
        view; holding the file and a copy of every tensor peaks near 2x."""
        import tracemalloc

        w = generate_synthetic_model(0, ModelConfig(
            depth=2, embed_dim=64, n_heads=2, mlp_ratio=4.0, clip_seconds=1.0, n_classes=4,
        ))
        save_model(tmp_path / "m.modl", w)
        payload = sum(t.nbytes for _, t in w.tensors())
        tracemalloc.start()
        try:
            load_model(tmp_path / "m.modl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * payload, (peak, payload)


    def test_header_sections_are_the_config_fields(self):
        sections = {"model": ModelConfig, "spectrogram": SpectrogramConfig}
        assert [k for k, v in _MODL1_HEADER.items() if isinstance(v, dict)] == list(sections)
        keys = []
        for section, cls in sections.items():
            assert list(_MODL1_HEADER[section]) == [f.name for f in fields(cls)]
            keys += list(_MODL1_HEADER[section])
        assert len(keys) == len(set(keys)), "a config field is spelled in two sections"


class TestSyntheticModel:
    def test_same_seed_bit_identical(self):
        assert model_digest(generate_synthetic_model(0, TINY)) == model_digest(
            generate_synthetic_model(0, TINY)
        )

    def test_tensors_are_read_only(self):
        assert not any(t.flags.writeable for _, t in generate_synthetic_model(0, TINY).tensors())

    def test_pinned_checksum(self):
        assert model_digest(generate_synthetic_model(0, TINY)) == TINY_SEED0_SHA256

    def test_different_seeds_differ_everywhere_random(self):
        """Every randomly drawn tensor differs in >99% of its elements
        (LayerNorm gains and biases are deterministic constants)."""
        a = generate_synthetic_model(0, TINY)
        b = generate_synthetic_model(1, TINY)
        for (name, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            if "gain" in name or "bias" in name or "ln" in name:
                continue
            assert np.mean(ta != tb) > 0.99, name

    def test_positional_rows_match_clip_length(self):
        w = generate_synthetic_model(0, TINY)
        assert w.embedding.positional.shape[0] == 13
        assert w.n_tokens == 13


    @pytest.mark.parametrize(
        "spec",
        [SpectrogramConfig(n_mels=64),
         SpectrogramConfig(frames_per_second=50)],
        ids=["64-mels", "50-fps"],
    )
    def test_token_count_follows_spectrogram_config(self, spec, tmp_path):
        """The positional table is sized from the model's own mel count and
        frame rate, so the model runs a forward on its own clips."""
        cfg = ModelConfig(depth=1, embed_dim=16, n_heads=2, mlp_ratio=2.0,
                          clip_seconds=1.0, n_classes=3)
        w = generate_synthetic_model(0, cfg, spec_config=spec)
        nf = (spec.n_mels - 16) // 10 + 1
        nt = (spec.frames_per_second - 16) // 10 + 1
        assert w.n_tokens == w.embedding.positional.shape[0] == nf * nt + 1
        save_model(tmp_path / "m.modl", w)
        loaded = load_model(tmp_path / "m.modl")
        specs = np.zeros((2, spec.n_mels, w.expected_frames), dtype=np.float32)
        cls, counts = forward_spectrograms(loaded, specs, ToMeConfig(r=2))
        assert cls.shape == (2, 16) and counts[0] == w.n_tokens


class TestSyntheticDataset:
    def test_empty_dataset(self):
        specs, labels = generate_synthetic_dataset(0, 0, SyntheticDataConfig())
        assert specs.shape[0] == 0 and labels.shape[0] == 0

    def test_same_class_shares_template_not_noise(self):
        cfg = SyntheticDataConfig(n_classes=4, clip_seconds=0.5, noise_std=0.3)
        specs, labels = generate_synthetic_dataset(7, 8, cfg)
        assert labels[0] == labels[4]
        assert not np.array_equal(specs[0], specs[4])
        clean, _ = generate_synthetic_dataset(7, 8, SyntheticDataConfig(
            n_classes=4, clip_seconds=0.5, noise_std=0.0))
        np.testing.assert_array_equal(clean[0], clean[4])

    def test_generation_is_pure_function_of_seed(self):
        cfg = SyntheticDataConfig(n_classes=3, clip_seconds=0.5)
        a, _ = generate_synthetic_dataset(5, 6, cfg)
        b, _ = generate_synthetic_dataset(5, 6, cfg)
        np.testing.assert_array_equal(a, b)

    def test_noiseless_nearest_template_is_exact(self):
        cfg = SyntheticDataConfig(n_classes=4, clip_seconds=0.5, noise_std=0.0)
        specs, labels = generate_synthetic_dataset(1, 200, cfg)
        templates = class_templates(cfg).reshape(4, -1)
        flat = specs.reshape(specs.shape[0], -1)
        # correlate against each template; argmax must recover the label
        preds = np.argmax(flat @ templates.T, axis=1)
        assert np.mean(preds == labels) == 1.0

    def test_multi_label_rows_are_one_hot(self):
        cfg = SyntheticDataConfig(n_classes=3, clip_seconds=0.5, task_kind="multi-label")
        _, labels = generate_synthetic_dataset(2, 6, cfg)
        assert labels.shape == (6, 3)
        np.testing.assert_array_equal(labels.sum(axis=1), np.ones(6))

    @pytest.mark.parametrize("clip_seconds", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_clip_seconds_rejected(self, clip_seconds):
        with pytest.raises(ConfigError, match="clip_seconds"):
            SyntheticDataConfig(clip_seconds=clip_seconds)

    @pytest.mark.parametrize("noise_std", [-0.5, math.nan, math.inf])
    def test_bad_noise_std_rejected(self, noise_std):
        with pytest.raises(ConfigError, match="noise_std"):
            SyntheticDataConfig(noise_std=noise_std, clip_seconds=0.16)

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ConfigError, match="n_samples"):
            generate_synthetic_dataset(0, -1, SyntheticDataConfig(clip_seconds=0.16))

    @pytest.mark.parametrize("task_kind", ["multi_label", "", "Single-label"])
    def test_unknown_task_kind_rejected(self, task_kind):
        # a misspelt kind must not fall back to single-label index labels
        with pytest.raises(ConfigError, match="task_kind"):
            SyntheticDataConfig(task_kind=task_kind, clip_seconds=0.16)


class TestManifest:
    def test_round_trip_byte_identical(self, tmp_path):
        m = DatasetManifest(
            entries=[("specs/a.spec", 2), ("specs/b.spec", 0)],
            task_kind="single-label",
            clip_seconds=0.5,
        )
        p1, p2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        save_manifest(p1, m)
        loaded = load_manifest(p1)
        assert loaded.entries == m.entries
        assert loaded.base_dir == tmp_path.resolve()
        save_manifest(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"magic":"XXXX1","task_kind":"single-label","clip_seconds":1.0}\n')
        with pytest.raises(FormatError, match="XXXX1"):
            load_manifest(p)

    def test_labels_array_single_and_multi(self, tmp_path):
        m = DatasetManifest(
            entries=[("a", [1, 0]), ("b", [0, 1])],
            task_kind="multi-label",
            clip_seconds=1.0,
        )
        mat = m.labels_array(2)
        np.testing.assert_array_equal(mat, [[1, 0], [0, 1]])

    @pytest.mark.parametrize(
        "label, n_classes, error",
        [
            ([1, 0], 3, ShapeError),
            ([[1, 0, 1]], 3, ShapeError),
            (1, 3, ShapeError),
            (["a", 0, 1], 3, AlignmentError),
            ([[1], [0, 1]], 3, AlignmentError),
            ([2, 0, 0], 3, AlignmentError),
            ([0, -1, 1], 3, AlignmentError),
            ([0.5, 0, 1], 3, AlignmentError),
            ([float("nan"), 1, 0], 3, AlignmentError),
        ],
        ids=["short", "nested", "scalar", "string", "jagged", "two", "minus-one", "half", "nan"],
    )
    def test_malformed_multi_label_row_rejected(self, label, n_classes, error):
        m = DatasetManifest(
            entries=[("a", [0, 1, 1]), ("b", label)],
            task_kind="multi-label",
            clip_seconds=1.0,
        )
        with pytest.raises(error, match="manifest entry 1"):
            m.labels_array(n_classes)


class TestTeacherLogits:
    def test_shape_and_determinism(self):
        labels = np.array([0, 1, 2, 0])
        a = generate_synthetic_teacher_logits(labels, 3, seed=4)
        b = generate_synthetic_teacher_logits(labels, 3, seed=4)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (4, 3)
        assert np.all(np.argmax(a, axis=1) == labels)  # scale dominates noise


class TestHeadProbe:
    @pytest.mark.parametrize("mels", [64, 200])
    def test_wrong_mel_count_is_shape_error(self, tiny_model, mels):
        specs = np.zeros((4, mels, 16), dtype=np.float32)
        with pytest.raises(ShapeError, match=f"clip has {mels} mel bins, the model expects 128"):
            fit_head_probe(tiny_model, specs, np.arange(4) % 3)

    def test_probe_beats_chance_in_sample(self):
        cfg = ModelConfig(
            depth=2, embed_dim=32, n_heads=4, mlp_ratio=2.0,
            clip_seconds=1.0, n_classes=4,
        )
        weights = generate_synthetic_model(2, cfg)
        data_cfg = SyntheticDataConfig(n_classes=4, clip_seconds=1.0, noise_std=0.5)
        specs, labels = generate_synthetic_dataset(3, 40, data_cfg)
        head = fit_head_probe(weights, specs, labels, batch_size=8)
        assert not (head.linear.flags.writeable or head.bias.flags.writeable)
        cls, _ = forward_spectrograms(weights, specs, ToMeConfig(r=0), batch_size=8)
        probs = softmax(cls @ head.linear + head.bias)
        acc = float(np.mean(np.argmax(probs, axis=1) == labels))
        assert acc >= 0.75  # 3x chance on the fitting set
