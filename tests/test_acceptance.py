"""Acceptance gate: one test per shipped criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The throughput and accuracy-trend checks run the full reference desk model
(12 blocks, width 192, 5-second clips, 589 tokens) over 200 synthetic
samples, so this module dominates the suite's wall time.
"""

import numpy as np
import pytest

from astmerge import (
    BenchConfig,
    DatasetManifest,
    FormatError,
    KdBatch,
    KdConfig,
    ModelConfig,
    Spectrogram,
    SyntheticDataConfig,
    ToMeConfig,
    TokenSequence,
    benchmark_throughput,
    count_trajectory,
    encoder_forward,
    fit_head_probe,
    generate_synthetic_dataset,
    generate_synthetic_model,
    kd_loss,
    kd_loss_grad,
    load_manifest,
    load_model,
    load_spec,
    load_teacher_logits,
    mean_average_precision,
    patch_count,
    save_manifest,
    save_model,
    save_spec,
    save_teacher_logits,
    merge_step,
)
from astmerge.head import average_precision, softmax
from astmerge.transformer import forward_spectrograms

from oracles import brute_force_merge, central_difference_grad, map_reference

DESK_MODEL = ModelConfig(
    depth=12, embed_dim=192, n_heads=3, mlp_ratio=4.0,
    clip_seconds=5.0, n_classes=4, task_kind="single-label",
)
DATA_CFG = SyntheticDataConfig(n_classes=4, clip_seconds=5.0, noise_std=0.5)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def desk_model():
    return generate_synthetic_model(0, DESK_MODEL)


@pytest.fixture(scope="module")
def desk_dataset():
    return generate_synthetic_dataset(12, 200, DATA_CFG)


def random_sequence(rng, n, d):
    return TokenSequence(
        tokens=rng.standard_normal((n, d)).astype(np.float32),
        sizes=np.ones(n, dtype=np.float32),
    )


def test_c01_patch_count_law():
    ok = patch_count(5.0) == 588 and patch_count(1.0) == 108
    report("C1 patch-count law", ok, f"N(5s)={patch_count(5.0)} N(1s)={patch_count(1.0)}")


def test_c02_token_reduction_law(desk_model):
    rng = np.random.default_rng(2)
    ts = random_sequence(rng, 589, 192)
    out = encoder_forward(ts, desk_model, ToMeConfig(r=40))
    expected = list(range(589, 109 - 1, -40))
    ok = out.final_token_count == 109 and out.per_block_counts == expected
    report(
        "C2 token-reduction law", ok,
        f"final={out.final_token_count} counts={out.per_block_counts}",
    )


def test_c03_r0_noop_bitwise():
    cfg = ModelConfig(
        depth=4, embed_dim=48, n_heads=4, mlp_ratio=4.0, clip_seconds=1.0,
        n_classes=5,
    )
    weights = generate_synthetic_model(3, cfg)
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(20):
        ts = random_sequence(rng, 109, 48)
        with_tome = encoder_forward(ts, weights, ToMeConfig(r=0))
        without = encoder_forward(ts, weights, None)
        if not np.array_equal(with_tome.cls_embedding, without.cls_embedding):
            mismatches += 1
    report("C3 r=0 no-op (bitwise)", mismatches == 0, f"mismatches={mismatches}/20")


def test_c04_merge_oracle():
    rng = np.random.default_rng(4)
    checked = 0
    worst = 0.0
    for protect in (True, False):
        for n in range(2, 9):
            for r in range(0, n // 2 + 1):
                for _ in range(50):
                    d = int(rng.integers(2, 6))
                    tokens = rng.standard_normal((n, d)).astype(np.float32)
                    sizes = rng.integers(1, 4, size=n).astype(np.float32)
                    keys = rng.standard_normal((n, d))
                    out, out_sizes, edges = merge_step(
                        tokens.copy()[None], sizes.copy()[None], keys[None],
                        ToMeConfig(r=r, protect_cls=protect),
                    )
                    out, out_sizes = out[0], out_sizes[0]
                    ref_tokens, ref_sizes, ref_edges = brute_force_merge(
                        tokens, sizes, keys, r, protect
                    )
                    got = [] if edges is None else list(
                        zip(edges[0][0].tolist(), edges[1][0].tolist())
                    )
                    assert got == [(s, t) for s, t, _ in ref_edges], (n, r, protect)
                    diff = float(np.max(np.abs(out - ref_tokens))) if out.shape[0] else 0.0
                    worst = max(worst, diff)
                    assert diff < 1e-6, (n, r, protect, diff)
                    np.testing.assert_array_equal(out_sizes, ref_sizes.astype(np.float32))
                    checked += 1
    report("C4 merge oracle", True, f"{checked} cases, worst value diff {worst:.2e}")


def test_c05_merged_duplicate_equivalence():
    cfg = ModelConfig(
        depth=1, embed_dim=24, n_heads=3, mlp_ratio=2.0, clip_seconds=0.16,
        n_classes=3,
    )
    weights = generate_synthetic_model(4, cfg)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        n = 9
        tokens = rng.standard_normal((n, 24)).astype(np.float32)
        tokens[3] = tokens[6]  # copies split across the two partition sides
        dup = TokenSequence(tokens=tokens.copy(), sizes=np.ones(n, np.float32))
        merged = encoder_forward(dup, weights, ToMeConfig(r=1))
        keep = [i for i in range(n) if i != 3]
        sizes = np.ones(n - 1, np.float32)
        sizes[keep.index(6)] = 2.0
        direct = TokenSequence(tokens=tokens[keep].copy(), sizes=sizes)
        out2 = encoder_forward(direct, weights, ToMeConfig(r=0))
        worst = max(
            worst, float(np.max(np.abs(merged.cls_embedding - out2.cls_embedding)))
        )
    report("C5 merged-duplicate equivalence", worst < 1e-5, f"worst |diff|={worst:.2e}")


def test_c06_conservation_through_forward():
    cfg = ModelConfig(
        depth=12, embed_dim=64, n_heads=2, mlp_ratio=4.0, clip_seconds=5.0,
        n_classes=4,
    )
    weights = generate_synthetic_model(6, cfg)
    rng = np.random.default_rng(6)
    worst_rel = 0.0
    for r in (5, 20, 40):
        ts = random_sequence(rng, 589, 64)
        out = encoder_forward(ts, weights, ToMeConfig(r=r), collect_trace=True)
        assert len(out.merge_trace) == 12
        for entry in out.merge_trace:
            assert entry.size_sum_before == entry.size_sum_after == 589.0, (
                r, entry.block, entry.size_sum_before, entry.size_sum_after,
            )
            scale = max(1.0, float(np.abs(entry.centroid_before).max()))
            rel = float(
                np.abs(entry.centroid_after - entry.centroid_before).max() / scale
            )
            worst_rel = max(worst_rel, rel)
    report(
        "C6 conservation (mass exact, centroid rel)",
        worst_rel < 1e-5,
        f"worst centroid rel diff {worst_rel:.2e}",
    )


def test_c07_kd_correctness():
    rng = np.random.default_rng(7)
    worst_combo = 0.0
    worst_grad = 0.0
    for trial in range(100):
        task = "single-label" if trial % 2 == 0 else "multi-label"
        n = int(rng.integers(1, 9))
        c = int(rng.integers(2, 11))
        z_s = rng.standard_normal((n, c))
        z_t = rng.standard_normal((n, c))
        labels = (
            rng.integers(0, c, size=n)
            if task == "single-label"
            else (rng.random((n, c)) < 0.5).astype(float)
        )
        batch = KdBatch(student_logits=z_s, teacher_logits=z_t, labels=labels)
        # paper operating point on even trials, random elsewhere
        lam = 0.1 if trial % 4 < 2 else float(rng.random())
        tau = 1.0 if trial % 4 < 2 else float(rng.uniform(0.5, 4.0))
        cfg = KdConfig(lam=lam, tau=tau, task_kind=task)

        ends = (
            kd_loss(batch, KdConfig(lam=1.0, tau=tau, task_kind=task)),
            kd_loss(batch, KdConfig(lam=0.0, tau=tau, task_kind=task)),
        )
        combo_err = abs(kd_loss(batch, cfg) - (lam * ends[0] + (1 - lam) * ends[1]))
        worst_combo = max(worst_combo, combo_err)

        analytic = kd_loss_grad(batch, cfg)
        numeric = central_difference_grad(
            lambda z: kd_loss(
                KdBatch(student_logits=z, teacher_logits=z_t, labels=labels), cfg
            ),
            z_s,
            eps=1e-5,
        )
        scale = max(np.abs(numeric).max(), 1e-12)
        worst_grad = max(worst_grad, float(np.abs(analytic - numeric).max() / scale))
    ok = worst_combo < 1e-12 and worst_grad < 1e-5
    report(
        "C7 KD correctness", ok,
        f"combination err {worst_combo:.2e}, gradient rel err {worst_grad:.2e}",
    )


def test_c08_metric_oracles():
    hand = average_precision(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1]))
    # exact up to the one-ulp difference between (1/1 + 2/3)/2 and 5/6
    assert hand == (1.0 + 2.0 / 3.0) / 2.0
    assert abs(hand - 5 / 6) < 1e-15
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 16))
        c = int(rng.integers(1, 6))
        scores = np.round(rng.random((n, c)), 2)
        labels = (rng.random((n, c)) < 0.35).astype(int)
        if not labels.any():
            labels[0, 0] = 1
        worst = max(
            worst,
            abs(mean_average_precision(scores, labels) - map_reference(scores, labels)),
        )
    report(
        "C8 metric oracles", worst < 1e-9,
        f"AP(hand)=5/6 exact, worst |mAP diff|={worst:.2e} over 200 instances",
    )


def test_c09_throughput_trend(desk_model, desk_dataset):
    specs, labels = desk_dataset
    manifest = DatasetManifest(
        entries=[(f"mem:{i}", int(labels[i])) for i in range(len(labels))],
        task_kind="single-label",
        clip_seconds=5.0,
    )
    cfg = BenchConfig(
        r_values=(0, 10, 20, 30, 40), batch_size=16,
        warmup_runs=1, measured_runs=3, threads=1,
    )
    result = benchmark_throughput(desk_model, manifest, cfg, inputs=specs)
    speeds = [row.samples_per_second for row in result.rows]
    monotone = all(b >= 0.95 * a for a, b in zip(speeds, speeds[1:]))
    speedup = speeds[-1] / speeds[0]
    counts_ok = [row.final_token_count for row in result.rows] == [
        count_trajectory(589, 12, r)[-1] for r in (0, 10, 20, 30, 40)
    ]
    ok = monotone and speedup >= 1.3 and counts_ok
    report(
        "C9 throughput trend", ok,
        f"S/s={[f'{s:.2f}' for s in speeds]} speedup={speedup:.2f}x "
        f"counts_ok={counts_ok}",
    )


def test_c10_accuracy_trend_smoke(desk_dataset):
    probe_cfg = ModelConfig(
        depth=12, embed_dim=96, n_heads=3, mlp_ratio=4.0, clip_seconds=5.0,
        n_classes=4,
    )
    weights = generate_synthetic_model(7, probe_cfg)
    fit_specs, fit_labels = generate_synthetic_dataset(11, 160, DATA_CFG)
    weights.head = fit_head_probe(weights, fit_specs, fit_labels, batch_size=16)

    eval_specs, eval_labels = desk_dataset
    accs = {}
    for r in (0, 40):
        cls, _ = forward_spectrograms(weights, eval_specs, ToMeConfig(r=r), batch_size=16)
        probs = softmax(cls @ weights.head.linear + weights.head.bias)
        accs[r] = float(np.mean(np.argmax(probs, axis=1) == eval_labels))
    chance = 1.0 / DATA_CFG.n_classes
    ok = accs[0] >= 3.0 * chance and accs[40] >= 0.8 * accs[0]
    report(
        "C10 accuracy-trend smoke", ok,
        f"acc(r=0)={accs[0]:.3f} acc(r=40)={accs[40]:.3f} chance={chance}",
    )


def test_c11_io_round_trips(tmp_path):
    # MODL1
    cfg = ModelConfig(
        depth=1, embed_dim=16, n_heads=2, mlp_ratio=2.0, clip_seconds=0.16,
        n_classes=3,
    )
    weights = generate_synthetic_model(0, cfg)
    m1, m2 = tmp_path / "a.modl", tmp_path / "b.modl"
    save_model(m1, weights)
    save_model(m2, load_model(m1))
    assert m1.read_bytes() == m2.read_bytes()
    bad = bytearray(m1.read_bytes())
    bad[:5] = b"BOGUS"
    (tmp_path / "bad.modl").write_bytes(bytes(bad))
    with pytest.raises(FormatError):
        load_model(tmp_path / "bad.modl")

    # SPEC1
    rng = np.random.default_rng(11)
    spec = Spectrogram(values=rng.standard_normal((128, 16)).astype(np.float32))
    s1, s2 = tmp_path / "a.spec", tmp_path / "b.spec"
    save_spec(s1, spec)
    save_spec(s2, load_spec(s1))
    assert s1.read_bytes() == s2.read_bytes()
    (tmp_path / "bad.spec").write_bytes(b"BOGUS" + s1.read_bytes()[5:])
    with pytest.raises(FormatError):
        load_spec(tmp_path / "bad.spec")

    # TLOG1
    t1, t2 = tmp_path / "a.tlog", tmp_path / "b.tlog"
    save_teacher_logits(t1, rng.standard_normal((5, 3)).astype(np.float32))
    save_teacher_logits(t2, load_teacher_logits(t1))
    assert t1.read_bytes() == t2.read_bytes()
    (tmp_path / "bad.tlog").write_bytes(b"BOGUS" + t1.read_bytes()[5:])
    with pytest.raises(FormatError):
        load_teacher_logits(tmp_path / "bad.tlog")

    # MANI1
    manifest = DatasetManifest(
        entries=[("x.spec", 1), ("y.spec", 0)], task_kind="single-label",
        clip_seconds=0.16,
    )
    j1, j2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_manifest(j1, manifest)
    save_manifest(j2, load_manifest(j1))
    assert j1.read_bytes() == j2.read_bytes()
    (tmp_path / "bad.jsonl").write_text(
        '{"clip_seconds":0.16,"magic":"NOT_IT","task_kind":"single-label"}\n'
    )
    with pytest.raises(FormatError):
        load_manifest(tmp_path / "bad.jsonl")

    report("C11 I/O round-trips", True, "MODL1/SPEC1/TLOG1/MANI1 byte-identical")
