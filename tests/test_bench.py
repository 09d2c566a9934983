"""Inference runner, sweep harness, report emission, KD evaluation."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from astmerge import (
    AlignmentError,
    BenchConfig,
    ConfigError,
    DatasetManifest,
    KdBatch,
    KdConfig,
    ModelConfig,
    Spectrogram,
    SweepResult,
    ToMeConfig,
    benchmark_throughput,
    count_trajectory,
    generate_synthetic_model,
    kd_eval,
    kd_loss,
    run_inference,
    save_manifest,
    save_spec,
    save_teacher_logits,
    sweep_report,
)
from astmerge import bench
from astmerge.bench import load_inputs
from astmerge.errors import ShapeError
from astmerge.features import (
    Waveform, compute_log_mel, fit_frames, load_spec, read_wav, write_wav,
)
from astmerge.kd import component_losses
from astmerge.model_io import SyntheticDataConfig, generate_synthetic_dataset
from astmerge.transformer import forward_spectrograms


@pytest.fixture()
def tiny_dataset_dir(tmp_path, tiny_model):
    cfg = SyntheticDataConfig(n_classes=3, clip_seconds=0.16, noise_std=0.4)
    specs, labels = generate_synthetic_dataset(0, 9, cfg)
    entries = []
    for i in range(9):
        rel = f"{i:03d}.spec"
        save_spec(tmp_path / rel, Spectrogram(values=specs[i]))
        entries.append((rel, int(labels[i])))
    manifest = DatasetManifest(
        entries=entries, task_kind="single-label", clip_seconds=0.16,
        base_dir=tmp_path,
    )
    save_manifest(tmp_path / "manifest.jsonl", manifest)
    return tmp_path, manifest, specs, labels


class TestRunInference:
    def test_r0_equals_merge_free_forward(self, tiny_model, tiny_dataset_dir):
        _, manifest, specs, _ = tiny_dataset_dir
        result = run_inference(tiny_model, manifest, r=0, batch_size=4)
        cls, _ = forward_spectrograms(tiny_model, specs, ToMeConfig(r=0), batch_size=4)
        logits = cls @ tiny_model.head.linear + tiny_model.head.bias
        np.testing.assert_array_equal(result.logits, logits)

    def test_repeat_invocation_bitwise_identical(self, tiny_model, tiny_dataset_dir):
        _, manifest, _, _ = tiny_dataset_dir
        a = run_inference(tiny_model, manifest, r=2)
        b = run_inference(tiny_model, manifest, r=2)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.metrics == b.metrics

    def test_thread_count_does_not_change_results(self, tiny_model, tiny_dataset_dir):
        _, manifest, _, _ = tiny_dataset_dir
        a = run_inference(tiny_model, manifest, r=2, batch_size=2, threads=1)
        b = run_inference(tiny_model, manifest, r=2, batch_size=2, threads=3)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_single_sample_manifest(self, tiny_model, tiny_dataset_dir):
        base, manifest, _, _ = tiny_dataset_dir
        single = DatasetManifest(
            entries=manifest.entries[:1], task_kind="single-label",
            clip_seconds=0.16, base_dir=base,
        )
        result = run_inference(tiny_model, single, r=1)
        assert result.probabilities.shape == (1, 3)
        assert "accuracy" in result.metrics

    def test_token_counts_follow_count_law(self, tiny_model, tiny_dataset_dir):
        _, manifest, _, _ = tiny_dataset_dir
        for r in (0, 2, 5):
            result = run_inference(tiny_model, manifest, r=r)
            assert result.per_block_counts == count_trajectory(13, 1, r)
            assert np.all(result.final_token_counts == result.per_block_counts[-1])

    def test_wav_ingestion(self, tmp_path, tiny_model):
        rng = np.random.default_rng(0)
        entries = []
        for i in range(3):
            w = Waveform(
                samples=rng.uniform(-0.3, 0.3, size=int(0.16 * 16000)),
                sample_rate=16000,
            )
            write_wav(tmp_path / f"{i}.wav", w)
            entries.append((f"{i}.wav", i % 3))
        manifest = DatasetManifest(
            entries=entries, task_kind="single-label", clip_seconds=0.16,
            base_dir=tmp_path,
        )
        result = run_inference(tiny_model, manifest, r=0)
        assert result.probabilities.shape == (3, 3)

    @pytest.mark.parametrize("setting", [{"batch_size": 0}, {"threads": 0}],
                             ids=["batch-0", "threads-0"])
    def test_run_settings_checked(self, tiny_model, tiny_dataset_dir, setting):
        """run_inference rejects the batch size and thread count BenchConfig
        rejects, with the same message."""
        _, manifest, specs, _ = tiny_dataset_dir
        with pytest.raises(ConfigError, match="batch_size and threads must be >= 1"):
            run_inference(tiny_model, manifest, r=0, inputs=specs, **setting)

    @pytest.mark.parametrize("mels", [64, 200])
    def test_wrong_mel_count_in_inputs_is_shape_error(
        self, tiny_model, tiny_dataset_dir, mels
    ):
        _, manifest, specs, _ = tiny_dataset_dir
        wrong = np.zeros((specs.shape[0], mels, specs.shape[2]), dtype=np.float32)
        with pytest.raises(ShapeError, match=f"clip has {mels} mel bins, the model expects 128"):
            run_inference(tiny_model, manifest, r=0, inputs=wrong)

    def test_load_inputs_mixes_full_short_and_wav_clips(
        self, tmp_path, tiny_model, monkeypatch
    ):
        """Each row equals its clip read on its own and fitted; the
        full-length SPEC1 clip is read straight into its row."""
        rng = np.random.default_rng(5)
        full = rng.standard_normal((128, 16)).astype(np.float32)
        save_spec(tmp_path / "full.spec", Spectrogram(values=full))
        save_spec(tmp_path / "short.spec", Spectrogram(values=full[:, :10] + 1))
        wav = Waveform(samples=rng.uniform(-0.3, 0.3, size=2560), sample_rate=16000)
        write_wav(tmp_path / "c.wav", wav)
        paths = ["full.spec", "short.spec", "c.wav"]
        manifest = DatasetManifest(
            entries=[(p, 0) for p in paths], task_kind="single-label", clip_seconds=0.16,
            base_dir=tmp_path,
        )
        in_place = []

        def spy(path, out=None):
            spec = load_spec(path, out=out)
            in_place.append(spec.values is out)
            return spec

        monkeypatch.setattr(bench, "load_spec", spy)
        stack = load_inputs(manifest, tiny_model)
        assert in_place == [True, False]
        log_mel = compute_log_mel(read_wav(tmp_path / "c.wav"), tiny_model.spec_config)
        expected = [
            fit_frames(load_spec(tmp_path / "full.spec").values, 16),
            fit_frames(load_spec(tmp_path / "short.spec").values, 16),
            fit_frames(log_mel.values, 16),
        ]
        for path, row, want in zip(paths, stack, expected):
            np.testing.assert_array_equal(row.view(np.uint32), want.view(np.uint32), path)
        assert not stack[1, :, 10:].any()

    def test_overlong_clip_rejected(self, tmp_path, tiny_model):
        save_spec(tmp_path / "x.spec", Spectrogram(values=np.zeros((128, 40), np.float32)))
        manifest = DatasetManifest(
            entries=[("x.spec", 0)], task_kind="single-label",
            clip_seconds=0.4, base_dir=tmp_path,
        )
        with pytest.raises(ShapeError):
            load_inputs(manifest, tiny_model)


class TestBenchmark:
    def test_sweep_structure(self, tiny_model, tiny_dataset_dir):
        _, manifest, _, _ = tiny_dataset_dir
        cfg = BenchConfig(r_values=(4, 0, 2), batch_size=4, warmup_runs=1,
                          measured_runs=3)
        result = benchmark_throughput(tiny_model, manifest, cfg)
        assert [row.r for row in result.rows] == [0, 2, 4]
        assert result.rows[0].drop == 0.0
        assert (result.warmup_runs, result.measured_runs, result.thread_count) == (1, 3, 1)
        for row in result.rows:
            assert row.samples_per_second > 0
            assert row.final_token_count == count_trajectory(13, 1, row.r)[-1]

    def test_metric_columns_reproducible(self, tiny_model, tiny_dataset_dir):
        _, manifest, _, _ = tiny_dataset_dir
        cfg = BenchConfig(r_values=(0, 2), batch_size=4, warmup_runs=0)
        a = benchmark_throughput(tiny_model, manifest, cfg)
        b = benchmark_throughput(tiny_model, manifest, cfg)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.metric == rb.metric
            assert ra.drop == rb.drop
            assert ra.final_token_count == rb.final_token_count

    def test_measured_passes_round_robin_over_r(
        self, tiny_model, tiny_dataset_dir, monkeypatch
    ):
        """Warm-up passes come first; the measured passes then cycle through
        r, so a drift in machine speed is shared by every row."""
        from astmerge import bench

        _, manifest, _, _ = tiny_dataset_dir
        calls = []
        forward_all = bench._forward_all

        def recorded(weights, specs, tome, *args):
            calls.append(tome.r)
            return forward_all(weights, specs, tome, *args)

        monkeypatch.setattr(bench, "_forward_all", recorded)
        cfg = BenchConfig(r_values=(4, 0, 2), batch_size=4, warmup_runs=2,
                          measured_runs=3)
        benchmark_throughput(tiny_model, manifest, cfg)
        assert sorted(calls[:6]) == [0, 0, 2, 2, 4, 4]
        assert calls[6:] == [0, 2, 4] * 3

    @pytest.mark.parametrize(
        "task, metric_name", [("single-label", "accuracy"), ("multi-label", "map")]
    )
    def test_sweep_rows_match_run_inference(self, tmp_path, task, metric_name):
        """Each row scores exactly what one run_inference call at its r does."""
        weights = generate_synthetic_model(0, ModelConfig(
            depth=1, embed_dim=16, n_heads=2, mlp_ratio=2.0,
            clip_seconds=0.16, n_classes=3, task_kind=task,
        ))
        specs, labels = generate_synthetic_dataset(0, 9, SyntheticDataConfig(
            n_classes=3, clip_seconds=0.16, noise_std=0.4, task_kind=task,
        ))
        entries = []
        for i in range(9):
            save_spec(tmp_path / f"{i}.spec", Spectrogram(values=specs[i]))
            entries.append((f"{i}.spec", labels[i].tolist()))
        manifest = DatasetManifest(
            entries=entries, task_kind=task, clip_seconds=0.16, base_dir=tmp_path
        )
        cfg = BenchConfig(r_values=(0, 2), batch_size=4, warmup_runs=0)
        result = benchmark_throughput(weights, manifest, cfg)
        assert result.metric_name == metric_name
        for row in result.rows:
            single = run_inference(weights, manifest, row.r, batch_size=4)
            assert row.metric == single.metrics[metric_name]
            assert row.drop == row.metric - result.rows[0].metric

    def test_sweep_without_r0_rejected(self, tiny_model, tiny_dataset_dir):
        _, manifest, _, _ = tiny_dataset_dir
        with pytest.raises(ConfigError, match="r = 0"):
            benchmark_throughput(
                tiny_model, manifest, BenchConfig(r_values=(2, 4))
            )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BenchConfig(r_values=())
        with pytest.raises(ConfigError):
            BenchConfig(r_values=(0,), measured_runs=2)
        with pytest.raises(ConfigError):
            BenchConfig(r_values=(-1, 0))


class TestSweepReport:
    def test_json_round_trips_exactly(self, tiny_model, tiny_dataset_dir):
        _, manifest, _, _ = tiny_dataset_dir
        cfg = BenchConfig(r_values=(0, 2), batch_size=4, warmup_runs=0)
        result = benchmark_throughput(tiny_model, manifest, cfg)
        json_text, csv_text = sweep_report(result)
        doc = json.loads(json_text)
        assert doc == asdict(result)
        # Run-level fields once, at the top; each row holds only its r's values.
        assert set(doc) == {
            "metric_name", "batch_size", "thread_count", "workers", "blas_pinned",
            "warmup_runs", "measured_runs", "rows",
        }
        for row in doc["rows"]:
            assert set(row) == {"r", "metric", "drop", "samples_per_second", "final_token_count"}
        lines = csv_text.strip().splitlines()
        assert lines[0] == "r,metric,drop,s_per_s,tokens_final"
        assert len(lines) == 3
        assert "," in lines[1] and "." in lines[1]

    def test_single_row_sweep_drop_zero(self, tiny_model, tiny_dataset_dir):
        _, manifest, _, _ = tiny_dataset_dir
        cfg = BenchConfig(r_values=(0,), batch_size=4, warmup_runs=0)
        result = benchmark_throughput(tiny_model, manifest, cfg)
        assert result.rows[0].drop == 0.0

    def test_empty_report_rejected(self):
        with pytest.raises(ConfigError):
            sweep_report(SweepResult(
                metric_name="accuracy", batch_size=1, thread_count=1, workers=1,
                blas_pinned=False, warmup_runs=0, measured_runs=3, rows=[],
            ))


class TestKdEval:
    def test_alignment_mismatch_names_counts(self, tmp_path, tiny_model, tiny_dataset_dir):
        base, manifest, _, _ = tiny_dataset_dir
        tl = tmp_path / "teacher.tlog"
        save_teacher_logits(tl, np.zeros((5, 3), np.float32))
        with pytest.raises(AlignmentError, match=r"5.*9|9.*5"):
            kd_eval(run_inference(tiny_model, manifest, r=0), tl, KdConfig())

    def test_lambda_one_reports_ground_truth_only(self, tmp_path, tiny_model, tiny_dataset_dir):
        base, manifest, _, labels = tiny_dataset_dir
        tl = tmp_path / "teacher.tlog"
        save_teacher_logits(tl, np.zeros((9, 3), np.float32))
        report = kd_eval(
            run_inference(tiny_model, manifest, r=0), tl, KdConfig(lam=1.0)
        )
        assert report["loss"] == pytest.approx(report["loss_g"], abs=1e-12)

    def test_self_distillation_is_mean_entropy(self, tmp_path, tiny_model, tiny_dataset_dir):
        base, manifest, _, _ = tiny_dataset_dir
        student = run_inference(tiny_model, manifest, r=0)
        tl = tmp_path / "teacher.tlog"
        save_teacher_logits(tl, student.logits.astype(np.float32))
        report = kd_eval(student, tl, KdConfig(lam=0.0, tau=1.0))
        p = student.probabilities.astype(np.float64)
        entropy = float(-(p * np.log(p)).sum(axis=1).mean())
        assert report["loss_d"] == pytest.approx(entropy, rel=1e-5)

    def test_combination_law_in_report(self, tmp_path, tiny_model, tiny_dataset_dir):
        base, manifest, _, labels = tiny_dataset_dir
        rng = np.random.default_rng(1)
        tl = tmp_path / "teacher.tlog"
        save_teacher_logits(tl, rng.standard_normal((9, 3)).astype(np.float32))
        report = kd_eval(
            run_inference(tiny_model, manifest, r=0), tl, KdConfig(lam=0.1, tau=1.0)
        )
        assert report["loss"] == pytest.approx(
            0.1 * report["loss_g"] + 0.9 * report["loss_d"], abs=1e-12
        )
        assert len(report["per_batch"]) == math.ceil(9 / 16)

    def test_per_batch_rows_score_each_slice(self, tmp_path, tiny_model, tiny_dataset_dir):
        _, manifest, _, _ = tiny_dataset_dir
        rng = np.random.default_rng(2)
        teacher = rng.standard_normal((9, 3)).astype(np.float32)
        tl = tmp_path / "teacher.tlog"
        save_teacher_logits(tl, teacher)
        result = run_inference(tiny_model, manifest, r=1)
        kd_cfg = KdConfig(lam=0.3, tau=2.0)
        report = kd_eval(result, tl, kd_cfg, batch_size=4)
        rows = report["per_batch"]
        assert [row["start"] for row in rows] == [0, 4, 8]
        assert [row["size"] for row in rows] == [4, 4, 1]
        for row in rows:
            sl = slice(row["start"], row["start"] + row["size"])
            batch = KdBatch(
                student_logits=result.logits[sl],
                teacher_logits=teacher[sl],
                labels=result.labels[sl],
            )
            assert row["loss"] == kd_loss(batch, kd_cfg)
            assert (row["loss_g"], row["loss_d"]) == component_losses(batch, kd_cfg)
