"""End-to-end CLI behavior: generation, bench runs, error categories."""

import json
import re
import struct
import wave
from dataclasses import replace

import numpy as np
import pytest

from astmerge import (
    HeadWeights,
    ModelConfig,
    bench,
    generate_synthetic_model,
    load_model,
    save_model,
)
from astmerge.cli import main
from astmerge.features import Spectrogram, Waveform, save_spec, write_wav

from conftest import DEPTH1_TENSOR_AXES

# Every MODL1 header field, as (section, key); section None is the top level.
MODL1_FIELDS = [
    *(("model", k) for k in (
        "depth", "embed_dim", "n_heads", "mlp_ratio", "clip_seconds", "n_classes",
        "task_kind",
    )),
    *(("spectrogram", k) for k in ("n_mels", "frames_per_second")),
    *((None, k) for k in ("model", "spectrogram", "norm_mean", "norm_std")),
]

# Binary input header fields as (format, field, offset, struct layout, wrong
# values). The workspace's SPEC1 clips are 128 x 16 and its TLOG1 teacher
# logits 6 x 3; a swapped pair keeps the payload size right. The WAV clip
# holds 2560 samples (5120 data bytes) at 16 kHz.
HEADER_FIELDS = [
    ("SPEC1", "rows", 5, "<I", [(0,), (127,), (129,), (0xFFFFFFFF,)]),
    ("SPEC1", "cols", 9, "<I", [(0,), (15,), (17,), (0xFFFFFFFF,)]),
    ("SPEC1", "rows+cols", 5, "<II", [(16, 128)]),
    ("TLOG1", "rows", 5, "<I", [(0,), (5,), (7,), (0xFFFFFFFF,)]),
    ("TLOG1", "cols", 9, "<I", [(0,), (2,), (4,), (0xFFFFFFFF,)]),
    ("TLOG1", "rows+cols", 5, "<II", [(3, 6)]),
    ("WAV", "channels", 22, "<H", [(0,), (2,)]),
    ("WAV", "rate", 24, "<I", [(0,), (1,), (0xFFFFFFFF,)]),
    ("WAV", "bits", 34, "<H", [(0,), (8,), (24,)]),
    ("WAV", "data-length", 40, "<I", [(0,), (5122,), (0xFFFFFFFF,)]),
]

def write_empty_wav(path):
    """A well-formed 16 kHz mono 16-bit WAV holding no samples."""
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(16000)


def edited_model(model, out, edit):
    """Copy the MODL1 file ``model`` to ``out`` with ``edit`` applied to its
    JSON header; the tensor payload is kept as it is."""
    data = model.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, 6)
    header = json.loads(data[10 : 10 + header_len])
    edit(header)
    blob = json.dumps(header).encode()
    out.write_bytes(data[:6] + struct.pack("<I", len(blob)) + blob + data[10 + header_len :])
    return out


@pytest.fixture()
def workspace(tmp_path):
    model = tmp_path / "model.modl"
    data = tmp_path / "data"
    assert main([
        "make-model", "--out", str(model), "--seed", "0",
        "--depth", "1", "--dim", "16", "--heads", "2", "--mlp-ratio", "2.0",
        "--clip-seconds", "0.16", "--classes", "3",
    ]) == 0
    assert main([
        "make-data", "--out-dir", str(data), "--seed", "1",
        "--samples", "6", "--classes", "3", "--clip-seconds", "0.16",
        "--teacher-logits-out", str(tmp_path / "teacher.tlog"),
    ]) == 0
    return tmp_path, model, data / "manifest.jsonl", tmp_path / "teacher.tlog"


class TestGeneration:
    def test_artifacts_exist(self, workspace):
        tmp, model, manifest, teacher = workspace
        assert model.exists() and manifest.exists() and teacher.exists()
        assert (tmp / "data" / "specs" / "00000.spec").exists()


class TestBenchCommand:
    def test_single_r_json_report(self, workspace, capsys):
        tmp, model, manifest, _ = workspace
        out = tmp / "report.json"
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest),
            "--r", "2", "--batch", "4", "--out-json", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["r"] == 2
        assert report["final_token_count"] == 11
        assert "accuracy" in report["metrics"]

    def test_sweep_writes_json_and_csv(self, workspace):
        tmp, model, manifest, _ = workspace
        oj, oc = tmp / "sweep.json", tmp / "sweep.csv"
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest),
            "--r-sweep", "0,2,4", "--batch", "4", "--warmup-runs", "0",
            "--out-json", str(oj), "--out-csv", str(oc),
        ])
        assert code == 0
        doc = json.loads(oj.read_text())
        assert [row["r"] for row in doc["rows"]] == [0, 2, 4]
        assert doc["rows"][0]["drop"] == 0.0
        assert oc.read_text().splitlines()[0] == "r,metric,drop,s_per_s,tokens_final"

    def test_kd_eval_attaches_to_single_r(self, workspace, capsys):
        tmp, model, manifest, teacher = workspace
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest),
            "--r", "0", "--teacher-logits", str(teacher),
            "--lambda", "0.1", "--tau", "1.0",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        kd = report["kd"]
        assert kd["lambda"] == 0.1 and kd["tau"] == 1.0
        assert kd["loss"] == pytest.approx(
            0.1 * kd["loss_g"] + 0.9 * kd["loss_d"], abs=1e-12
        )

    def test_kd_eval_reuses_the_inference_pass(self, workspace, monkeypatch, capsys):
        tmp, model, manifest, teacher = workspace
        calls = []
        forward_all = bench._forward_all

        def counted(*args, **kwargs):
            calls.append(args)
            return forward_all(*args, **kwargs)

        monkeypatch.setattr(bench, "_forward_all", counted)
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest),
            "--r", "2", "--teacher-logits", str(teacher),
        ])
        assert code == 0
        assert "kd" in json.loads(capsys.readouterr().out)
        assert len(calls) == 1


class TestErrorReporting:
    def test_missing_model_is_io_error(self, workspace, capsys):
        tmp, _, manifest, _ = workspace
        code = main([
            "bench", "--model", str(tmp / "nope.modl"), "--manifest", str(manifest),
            "--r", "0",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:io:")

    def test_corrupt_model_is_format_error(self, workspace, capsys):
        tmp, model, manifest, _ = workspace
        bad = tmp / "bad.modl"
        bad.write_bytes(b"JUNKFILE")
        code = main([
            "bench", "--model", str(bad), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:format:")

    @pytest.mark.parametrize(
        "flags",
        [["--norm-std", "0"], ["--dim", "0"], ["--heads", "-2"], ["--heads", "0"],
         ["--mlp-ratio", "-1"], ["--mlp-ratio", "0.01"], ["--mlp-ratio", "nan"],
         ["--clip-seconds", "nan"], ["--classes", "0"], ["--classes", "-1"],
         ["--norm-std", "1e-300"], ["--norm-mean", "1e39"]],
        ids=["norm-std-0", "dim-0", "heads-minus-2", "heads-0", "mlp-ratio-minus-1",
             "hidden-0", "mlp-ratio-nan", "clip-seconds-nan", "classes-0",
             "classes-minus-1", "norm-std-1e-300", "norm-mean-1e39"],
    )
    def test_bad_model_setting_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "m.modl"
        code = main([
            "make-model", "--out", str(out), "--depth", "1", "--dim", "16",
            "--heads", "2", "--clip-seconds", "0.16", *flags,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--samples", "-1"], "n_samples"), (["--samples", "0"], "n_samples"),
         (["--clip-seconds", "-1"], "clip_seconds"),
         (["--clip-seconds", "0"], "clip_seconds"), (["--clip-seconds", "nan"], "clip_seconds"),
         (["--noise", "nan"], "noise_std"), (["--noise", "inf"], "noise_std"),
         (["--noise", "-1"], "noise_std")],
        ids=["samples-minus-1", "samples-0", "clip-seconds-minus-1", "clip-seconds-0",
             "clip-seconds-nan", "noise-nan", "noise-inf", "noise-minus-1"],
    )
    def test_bad_data_setting_is_config_error(self, tmp_path, capsys, flags, named):
        out = tmp_path / "data"
        code = main([
            "make-data", "--out-dir", str(out), "--samples", "2", "--clip-seconds", "0.16",
            *flags,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:config: {named} must be") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value, named", [
        ("n_heads", 0, "n_heads"), ("embed_dim", 0, "embed_dim"),
        ("mlp_ratio", -1.0, "hidden_dim"),
    ])
    def test_bad_model_size_in_header_is_config_error(
        self, workspace, capsys, key, value, named
    ):
        tmp, model, manifest, _ = workspace
        bad = edited_model(
            model, tmp / "bad_size.modl", lambda header: header["model"].update({key: value})
        )
        code = main([
            "bench", "--model", str(bad), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and len(err.splitlines()) == 1
        assert f"{named} must be >= 1" in err

    @pytest.mark.parametrize("mode", [["--r", "0"], ["--r-sweep", "0,2"]],
                             ids=["r", "r-sweep"])
    @pytest.mark.parametrize("setting", [["--batch", "0"], ["--threads", "0"]],
                             ids=["batch-0", "threads-0"])
    def test_bad_run_setting_is_config_error(self, workspace, capsys, mode, setting):
        """Both bench modes reject the setting before reading a clip: the
        clips are deleted first, so a late check would be an io error."""
        tmp, model, manifest, _ = workspace
        for clip in (tmp / "data" / "specs").iterdir():
            clip.unlink()
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), *mode, *setting,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config: batch_size and threads must be >= 1")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("setting, named", [
        (["--r", "-1"], "reduction factors must be >= 0"),
        (["--warmup-runs", "-5"], "warmup_runs must be >= 0"),
        (["--measured-runs", "0"], "measured_runs must be >= 3"),
        (["--lambda", "7"], "lambda must be in [0, 1]"),
        (["--tau", "nan"], "temperature must be finite"),
    ], ids=["r-minus-1", "warmup-minus-5", "measured-0", "lambda-7", "tau-nan"])
    def test_bad_single_r_setting_is_config_error(self, workspace, capsys, setting, named):
        """A single-r run without a teacher file checks every bench setting
        before reading a clip, as a sweep does."""
        tmp, model, manifest, _ = workspace
        for clip in (tmp / "data" / "specs").iterdir():
            clip.unlink()
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
            *setting,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:config: {named}") and len(err.splitlines()) == 1

    def test_empty_r_sweep_is_config_error(self, workspace, capsys):
        _, model, manifest, _ = workspace
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r-sweep", "",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config: --r-sweep lists no values")
        assert len(err.splitlines()) == 1

    def test_head_width_mismatch_is_format_error(self, workspace, capsys):
        tmp, _, manifest, _ = workspace
        cfg = ModelConfig(
            depth=1, embed_dim=32, n_heads=2, mlp_ratio=2.0,
            clip_seconds=0.16, n_classes=3,
        )
        weights = generate_synthetic_model(0, cfg)
        weights.head = HeadWeights(linear=weights.head.linear[:31], bias=weights.head.bias)
        bad = tmp / "narrow_head.modl"
        save_model(bad, weights)
        code = main([
            "bench", "--model", str(bad), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:format: {bad}: MODL1 tensor payload is ")
        assert len(err.splitlines()) == 1

    def test_head_columns_differ_from_n_classes_is_format_error(self, workspace, capsys):
        tmp, _, manifest, _ = workspace
        cfg = ModelConfig(
            depth=1, embed_dim=16, n_heads=2, mlp_ratio=2.0,
            clip_seconds=0.16, n_classes=3,
        )
        weights = generate_synthetic_model(0, cfg)
        weights.head = HeadWeights(linear=weights.head.linear[:, :2], bias=weights.head.bias[:2])
        bad = tmp / "two_class_head.modl"
        save_model(bad, weights)
        code = main([
            "bench", "--model", str(bad), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:format: {bad}: MODL1 tensor payload is ")
        assert len(err.splitlines()) == 1

    def test_label_outside_the_classes_is_alignment_error(self, workspace, capsys):
        tmp, model, manifest, _ = workspace
        lines = manifest.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["label"] = 9  # the model has 3 classes
        manifest.write_text("\n".join([lines[0], json.dumps(entry), *lines[2:]]) + "\n")
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:alignment:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "header, category",
        [
            ({"task_kind": None}, "format"),
            ({"task_kind": "bogus"}, "format"),
            ({"clip_seconds": None}, "format"),
            ({"clip_seconds": "0.16"}, "format"),
            ({"task_kind": "multi-label"}, "alignment"),
        ],
        ids=["no-task-kind", "unknown-task-kind", "no-clip-seconds",
             "string-clip-seconds", "task-kind-differs"],
    )
    def test_bad_manifest_header(self, workspace, capsys, header, category):
        """Each header change (None drops the key) exits 2 with one line."""
        tmp, model, manifest, _ = workspace
        lines = manifest.read_text().splitlines()
        doc = json.loads(lines[0])
        for key, value in header.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        manifest.write_text("\n".join([json.dumps(doc), *lines[1:]]) + "\n")
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:{category}:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("seconds", [-3.0, 0.0, float("nan"), 0.4])
    def test_clip_seconds_off_the_model_is_alignment_error(self, workspace, capsys, seconds):
        """A manifest whose clips are not positive and at most the 0.16 s
        model's length exits 2 naming both lengths, before any clip is read."""
        tmp, model, manifest, _ = workspace
        lines = manifest.read_text().splitlines()
        doc = json.loads(lines[0]) | {"clip_seconds": seconds}
        manifest.write_text("\n".join([json.dumps(doc), *lines[1:]]) + "\n")
        for spec in (tmp / "data" / "specs").iterdir():
            spec.unlink()
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:alignment:") and len(err.splitlines()) == 1
        assert f"{seconds} s clips" in err and "0.16 s" in err

    @pytest.mark.parametrize(
        "line, text, where",
        [
            (0, "[]", "manifest header is not a JSON object"),
            (1, "7", "manifest line 2 is not a JSON object"),
            (1, '{"path": 7, "label": 0}', "manifest line 2 field 'path' has the wrong type"),
            (2, '{"label": 0}', "manifest line 3 lacks field 'path'"),
            (2, "\n\n[1]", "manifest line 5 is not a JSON object"),
        ],
        ids=["header-list", "entry-number", "path-number", "no-path", "after-blank-lines"],
    )
    def test_malformed_manifest_line_is_format_error(
        self, workspace, capsys, line, text, where
    ):
        """A header or entry line that is not a JSON object, or an entry
        without a string path, exits 2 with one format line naming it by its
        line in the file, blank lines counted."""
        tmp, model, manifest, _ = workspace
        lines = manifest.read_text().splitlines()
        lines[line] = text
        manifest.write_text("\n".join(lines) + "\n")
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and len(err.splitlines()) == 1
        assert where in err

    @pytest.mark.parametrize("change", ["delete", "retype"])
    @pytest.mark.parametrize(
        "section, key", MODL1_FIELDS, ids=[f"{s or 'top'}.{k}" for s, k in MODL1_FIELDS]
    )
    def test_bad_model_header(self, workspace, capsys, section, key, change):
        """Each MODL1 header field deleted, or given a value of the wrong JSON
        type, exits 2 with one format line that names the field."""
        tmp, model, manifest, _ = workspace

        def edit(header):
            fields = header if section is None else header[section]
            if change == "delete":
                del fields[key]
            else:  # a string, or a number where a string belongs
                fields[key] = 7 if isinstance(fields[key], str) else "7"

        bad = edited_model(model, tmp / "bad_header.modl", edit)
        code = main([
            "bench", "--model", str(bad), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and len(err.splitlines()) == 1
        assert repr(f"{section}.{key}" if section else key) in err

    @pytest.mark.parametrize("name, axis", DEPTH1_TENSOR_AXES,
                             ids=[f"{n}[{a}]" for n, a in DEPTH1_TENSOR_AXES])
    def test_tensor_shape_off_by_one(self, workspace, capsys, name, axis):
        """A saved tensor one row or column off the model's config makes the
        payload the wrong size: one format line that names the file."""
        tmp, model, manifest, _ = workspace
        weights = load_model(model)
        owner, _, field = name.rpartition(".")
        holder = {"patch": weights.embedding, "block0": weights.blocks[0],
                  "": weights, "head": weights.head}[owner]
        shape = list(getattr(holder, field).shape)
        shape[axis] += 1
        bad_tensor = np.zeros(shape, dtype=np.float32)
        if owner == "":
            setattr(weights, field, bad_tensor)
        else:  # the weight records are frozen; the model is not
            attr = {"patch": "embedding", "block0": "blocks", "head": "head"}[owner]
            edited = replace(holder, **{field: bad_tensor})
            setattr(weights, attr, (edited,) if owner == "block0" else edited)
        bad = tmp / "bad_shape.modl"
        save_model(bad, weights)
        code = main([
            "bench", "--model", str(bad), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:format: {bad}: MODL1 tensor payload is ")
        assert len(err.splitlines()) == 1

    def test_nan_spectrogram_is_format_error(self, workspace, capsys):
        tmp, model, manifest, _ = workspace
        spec = tmp / "data" / "specs" / "00003.spec"
        data = spec.read_bytes()
        spec.write_bytes(data[:13] + np.full((len(data) - 13) // 4, np.nan, "<f4").tobytes())
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and len(err.splitlines()) == 1
        assert "00003.spec" in err

    def test_infinite_teacher_logit_is_format_error(self, workspace, capsys):
        tmp, model, manifest, teacher = workspace
        data = bytearray(teacher.read_bytes())
        data[13 + 4 * 4 : 13 + 4 * 5] = np.float32(np.inf).tobytes()
        teacher.write_bytes(bytes(data))
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest),
            "--r", "0", "--teacher-logits", str(teacher),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and len(err.splitlines()) == 1
        assert "teacher.tlog" in err

    def test_non_finite_model_weight_is_format_error(self, workspace, capsys):
        """A MODL1 tensor holding a NaN and an infinity fails closed instead
        of running to a metric."""
        tmp, model, manifest, _ = workspace
        weights = load_model(model)
        qkv = weights.blocks[0].qkv.copy()
        qkv[0, 0] = np.nan
        qkv[1, 2] = np.inf
        weights.blocks = (replace(weights.blocks[0], qkv=qkv),)
        bad = tmp / "nan.modl"
        save_model(bad, weights)
        code = main([
            "bench", "--model", str(bad), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and len(err.splitlines()) == 1
        assert "'block0.qkv'" in err

    def test_undecodable_manifest_is_format_error(self, workspace, capsys):
        tmp, model, manifest, _ = workspace
        manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and len(err.splitlines()) == 1
        assert "manifest.jsonl" in err

    def test_ragged_multi_label_row_is_shape_error(self, tmp_path, capsys):
        model, data = tmp_path / "ml.modl", tmp_path / "ml"
        common = ["--seed", "0", "--classes", "3", "--clip-seconds", "0.16", "--task", "multi-label"]
        assert main([
            "make-model", "--out", str(model), "--depth", "1", "--dim", "16",
            "--heads", "2", *common,
        ]) == 0
        assert main(["make-data", "--out-dir", str(data), "--samples", "4", *common]) == 0
        manifest = data / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        entry = json.loads(lines[2])
        entry["label"] = [1, 0]  # the model has 3 classes
        manifest.write_text("\n".join([*lines[:2], json.dumps(entry), *lines[3:]]) + "\n")
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:shape:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "cut", [
            lambda b: b"JUNK" + b[4:], lambda b: b[:20], lambda b: b[:-1], lambda b: b"",
            lambda b: b[: 44 + 2 * 500],  # header declares 2560 samples, data holds 500
        ],
        ids=["not-riff", "truncated-header", "truncated-data", "empty", "data-short-of-header"],
    )
    def test_corrupt_wav_is_format_error(self, workspace, capsys, cut):
        tmp, model, _, _ = workspace
        good = tmp / "good.wav"
        write_wav(good, Waveform(samples=np.zeros(2560), sample_rate=16000))
        (tmp / "bad.wav").write_bytes(cut(good.read_bytes()))
        manifest = tmp / "wav_manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(row) for row in [
            {"magic": "MANI1", "task_kind": "single-label", "clip_seconds": 0.16},
            {"path": "good.wav", "label": 0},
            {"path": "bad.wav", "label": 1},
        ]) + "\n")
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:format:") and len(err.splitlines()) == 1
        assert "bad.wav" in err

    @pytest.mark.parametrize(
        "name, write, category",
        [
            ("bad.spec", lambda p: save_spec(p, Spectrogram(np.zeros((128, 40), np.float32))),
             "shape"),  # 40 frames, the model takes at most 16
            ("bad.spec", lambda p: save_spec(p, Spectrogram(np.zeros((128, 0), np.float32))),
             "shape"),
            ("bad.wav", write_empty_wav, "config"),
            ("bad.wav", lambda p: write_wav(p, Waveform(np.zeros(40), sample_rate=40)),
             "config"),  # a 40 Hz rate leaves no window
        ],
        ids=["overlong-spec", "empty-spec", "empty-wav", "40-hz-wav"],
    )
    def test_unfit_clip_error_names_the_file(self, workspace, capsys, name, write, category):
        tmp, model, _, _ = workspace
        write_wav(tmp / "good.wav", Waveform(samples=np.zeros(2560), sample_rate=16000))
        write(tmp / name)
        manifest = tmp / "unfit_manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(row) for row in [
            {"magic": "MANI1", "task_kind": "single-label", "clip_seconds": 0.16},
            {"path": "good.wav", "label": 0},
            {"path": name, "label": 1},
        ]) + "\n")
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:{category}:") and len(err.splitlines()) == 1
        assert name in err

    @staticmethod
    def bench_input(workspace, fmt):
        """(the file of format ``fmt`` that a bench run reads, the length of
        its header, the bench argv). The whole MANI1 file counts as header."""
        tmp, model, manifest, teacher = workspace
        extra = []
        if fmt == "MODL1":
            target = model
            header_end = 10 + struct.unpack_from("<I", model.read_bytes(), 6)[0]
        elif fmt == "SPEC1":  # 5-byte magic, u32 rows, u32 cols, as TLOG1
            target, header_end = tmp / "data" / "specs" / "00003.spec", 13
        elif fmt == "TLOG1":
            target, header_end, extra = teacher, 13, ["--teacher-logits", str(teacher)]
        elif fmt == "WAV":
            target, header_end = tmp / "clip.wav", 44
            write_wav(target, Waveform(samples=np.zeros(2560), sample_rate=16000))
            manifest = tmp / "wav_manifest.jsonl"
            manifest.write_text("\n".join(json.dumps(row) for row in [
                {"magic": "MANI1", "task_kind": "single-label", "clip_seconds": 0.16},
                {"path": "clip.wav", "label": 0},
            ]) + "\n")
        else:
            target, header_end = manifest, len(manifest.read_bytes()) - 1
        argv = ["bench", "--model", str(model), "--manifest", str(manifest), "--r", "0", *extra]
        return target, header_end, argv

    @staticmethod
    def assert_one_error_line(code, err, case):
        assert code == 2, case
        assert re.fullmatch(r"error:(config|shape|format|alignment|io): [^\n]+\n", err), (
            case, err,
        )

    @pytest.mark.parametrize("fmt", ["MODL1", "SPEC1", "TLOG1", "MANI1", "WAV"])
    def test_truncated_input_fails_closed(self, workspace, capsys, fmt):
        """Each input cut at every offset up to the end of its header (every
        offset of the whole file for the JSON-lines MANI1): bench exits 2
        with exactly one error line. A MANI1 cut on a line boundary that
        keeps an entry is a valid shorter manifest and exits 0."""
        target, header_end, argv = self.bench_input(workspace, fmt)
        data = target.read_bytes()
        valid = []
        for cut in range(header_end + 1):
            target.write_bytes(data[:cut])
            code = main(argv)
            err = capsys.readouterr().err
            on_line_boundary = b"\n" in data[max(cut - 1, 0) : cut + 1]
            if fmt == "MANI1" and on_line_boundary and len(data[:cut].splitlines()) > 1:
                assert (code, err) == (0, ""), (cut, err)
                valid.append(cut)
                continue
            self.assert_one_error_line(code, err, cut)
        # 6 entries: before and after each entry's newline, bar the whole file
        assert len(valid) == (11 if fmt == "MANI1" else 0)

    @pytest.mark.parametrize(
        "fmt, offset, layout, values",
        [
            pytest.param(fmt, offset, layout, v, id=f"{fmt}-{field}-{','.join(map(str, v))}")
            for fmt, field, offset, layout, wrong in HEADER_FIELDS
            for v in wrong
        ],
    )
    def test_corrupt_header_field_fails_closed(
        self, workspace, capsys, fmt, offset, layout, values
    ):
        """One header field of an input set to a wrong value: bench exits 2
        with exactly one error line."""
        target, _, argv = self.bench_input(workspace, fmt)
        data = bytearray(target.read_bytes())
        struct.pack_into(layout, data, offset, *values)
        target.write_bytes(data)
        code = main(argv)
        self.assert_one_error_line(code, capsys.readouterr().err, (offset, values))

    @pytest.mark.parametrize("paths", [["00000.spec", "narrow.spec"], ["narrow.spec"]],
                             ids=["mixed-mel-counts", "only-wrong-mel-count"])
    def test_wrong_mel_count_is_shape_error(self, workspace, capsys, paths):
        """A 64-mel clip for a 128-mel model names its file, whether or not
        the manifest also holds a clip of the right size."""
        from astmerge import Spectrogram, save_spec

        tmp, model, _, _ = workspace
        specs = tmp / "data" / "specs"
        save_spec(specs / "narrow.spec", Spectrogram(values=np.zeros((64, 16), np.float32)))
        manifest = tmp / "mels_manifest.jsonl"
        manifest.write_text("\n".join(json.dumps(row) for row in [
            {"magic": "MANI1", "task_kind": "single-label", "clip_seconds": 0.16},
            *({"path": f"data/specs/{p}", "label": 0} for p in paths),
        ]) + "\n")
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:shape:") and len(err.splitlines()) == 1
        assert "narrow.spec" in err

    def test_directory_as_model_is_io_error(self, workspace, capsys):
        tmp, _, manifest, _ = workspace
        code = main([
            "bench", "--model", str(tmp), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:io:") and len(err.splitlines()) == 1

    def test_teacher_logits_with_sweep_rejected(self, workspace, capsys):
        tmp, model, manifest, teacher = workspace
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest),
            "--r-sweep", "0,2", "--teacher-logits", str(teacher),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config:")

    @pytest.mark.parametrize("tau", ["nan", "inf", "0"])
    def test_bad_temperature_is_config_error(self, workspace, capsys, tau):
        tmp, model, manifest, teacher = workspace
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest),
            "--r", "0", "--teacher-logits", str(teacher), "--tau", tau,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config: temperature must be finite and positive")
        assert len(err.splitlines()) == 1

    def test_out_csv_with_single_r_rejected(self, workspace, capsys):
        tmp, model, manifest, _ = workspace
        out = tmp / "single.csv"
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest),
            "--r", "0", "--out-csv", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and len(err.splitlines()) == 1
        assert "--out-csv" in err and not out.exists()

    def test_r_and_r_sweep_together_is_usage_error(self, workspace, capsys):
        tmp, model, manifest, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main([
                "bench", "--model", str(model), "--manifest", str(manifest),
                "--r", "2", "--r-sweep", "0,1",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:usage:") and len(err.splitlines()) == 1
        assert "--r-sweep" in err and "--r" in err

    def test_usage_error_single_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])  # missing required flags
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:usage:")

    def test_alignment_error_category(self, workspace, capsys):
        tmp, model, manifest, _ = workspace
        from astmerge import save_teacher_logits

        short = tmp / "short.tlog"
        save_teacher_logits(short, np.zeros((2, 3), np.float32))
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest),
            "--r", "0", "--teacher-logits", str(short),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:alignment:")
