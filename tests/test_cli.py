"""End-to-end CLI behavior: generation, bench runs, error categories."""

import json
from dataclasses import replace

import numpy as np
import pytest

from astmerge import HeadWeights, ModelConfig, bench, generate_synthetic_model, save_model
from astmerge.cli import main


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
    def test_train_inf_mode_rejected(self, workspace, capsys):
        tmp, model, manifest, _ = workspace
        code = main([
            "bench", "--model", str(model), "--manifest", str(manifest),
            "--r", "0", "--mode", "train-inf",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        assert "non-goal" in err

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

    def test_zero_norm_std_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "m.modl"
        code = main([
            "make-model", "--out", str(out), "--depth", "1", "--dim", "16",
            "--heads", "2", "--clip-seconds", "0.16", "--norm-std", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_head_width_mismatch_is_shape_error(self, workspace, capsys):
        tmp, _, manifest, _ = workspace
        cfg = ModelConfig(
            depth=1, embed_dim=32, n_heads=2, mlp_ratio=2.0,
            clip_seconds=0.16, n_classes=3,
        )
        weights = generate_synthetic_model(0, cfg)
        head = HeadWeights(linear=weights.head.linear[:31], bias=weights.head.bias)
        bad = tmp / "narrow_head.modl"
        save_model(bad, replace(weights, head=head))
        code = main([
            "bench", "--model", str(bad), "--manifest", str(manifest), "--r", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:shape:") and len(err.splitlines()) == 1

    def test_head_columns_differ_from_n_classes_is_shape_error(self, workspace, capsys):
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
        assert err.startswith("error:shape:") and len(err.splitlines()) == 1

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
