"""Command-line interface.

Subcommands:

``astmerge bench``
    Run inference on a manifest at one reduction factor (``--r``) or sweep
    several (``--r-sweep``), measuring samples/second and the metric drop
    against r = 0. ``--teacher-logits`` adds a distillation-loss report to a
    single-r run.
``astmerge make-model``
    Write a seeded synthetic MODL1 model file.
``astmerge make-data``
    Write a synthetic SPEC1 dataset with its MANI1 manifest (and optionally
    TLOG1 teacher logits).

Failures print one machine-parsable line, ``error:<category>: <message>``,
and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    BenchConfig,
    DEFAULT_R_SWEEP,
    benchmark_throughput,
    kd_eval,
    run_inference,
    sweep_report,
)
from .errors import AstmergeError, ConfigError
from .features import Spectrogram, save_spec
from .head import TASK_KINDS
from .kd import KdConfig, save_teacher_logits
from .model_io import (
    DatasetManifest,
    SyntheticDataConfig,
    generate_synthetic_dataset,
    generate_synthetic_model,
    generate_synthetic_teacher_logits,
    load_manifest,
    load_model,
    save_manifest,
    save_model,
)
from .transformer import ModelConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # single-line, machine-parsable
        print(f"error:usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="astmerge")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", parents=[], description="Run/benchmark inference.")
    b.add_argument("--model", required=True, help="MODL1 model file")
    b.add_argument("--manifest", required=True, help="MANI1 dataset manifest")
    b.add_argument("--r", type=int, default=None, help="single reduction factor")
    b.add_argument(
        "--r-sweep",
        default=None,
        help=f"comma-separated reduction factors (default {','.join(map(str, DEFAULT_R_SWEEP))})",
    )
    b.add_argument("--batch", type=int, default=16)
    b.add_argument("--threads", type=int, default=1)
    b.add_argument("--warmup-runs", type=int, default=2)
    b.add_argument("--measured-runs", type=int, default=3)
    b.add_argument(
        "--mode",
        default="inf",
        help="'inf' applies merging at inference; 'train-inf' is not executable here",
    )
    b.add_argument("--teacher-logits", default=None, help="TLOG1 file for KD loss")
    b.add_argument("--lambda", dest="lam", type=float, default=0.1)
    b.add_argument("--tau", type=float, default=1.0)
    b.add_argument("--out-json", default=None)
    b.add_argument("--out-csv", default=None)

    m = sub.add_parser("make-model", description="Generate a synthetic model.")
    m.add_argument("--out", required=True)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--depth", type=int, default=12)
    m.add_argument("--dim", type=int, default=192)
    m.add_argument("--heads", type=int, default=3)
    m.add_argument("--mlp-ratio", type=float, default=4.0)
    m.add_argument("--clip-seconds", type=float, default=5.0)
    m.add_argument("--classes", type=int, default=4)
    m.add_argument("--task", choices=TASK_KINDS, default=TASK_KINDS[0])
    m.add_argument("--norm-mean", type=float, default=0.0)
    m.add_argument("--norm-std", type=float, default=1.0)

    d = sub.add_parser("make-data", description="Generate a synthetic dataset.")
    d.add_argument("--out-dir", required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--samples", type=int, default=200)
    d.add_argument("--classes", type=int, default=4)
    d.add_argument("--clip-seconds", type=float, default=5.0)
    d.add_argument("--noise", type=float, default=0.5)
    d.add_argument("--task", choices=TASK_KINDS, default=TASK_KINDS[0])
    d.add_argument(
        "--teacher-logits-out",
        default=None,
        help="also write synthetic TLOG1 teacher logits aligned with the manifest",
    )
    return parser


def _parse_sweep(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as e:
        raise ConfigError(f"--r-sweep expects comma-separated integers: {e}") from e
    if not values:
        raise ConfigError("--r-sweep lists no values")
    return values


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.mode != "inf":
        raise ConfigError(
            f"mode {args.mode!r} is not executable: merging during training is a "
            "non-goal of this artifact; use --mode inf"
        )
    weights = load_model(args.model)
    manifest = load_manifest(args.manifest)

    if args.r is not None:
        result = run_inference(
            weights, manifest, args.r, batch_size=args.batch, threads=args.threads
        )
        report = {
            "r": args.r,
            "metrics": result.metrics,
            "final_token_count": int(result.final_token_counts[0]),
            "per_block_counts": result.per_block_counts,
            "n_samples": int(result.probabilities.shape[0]),
        }
        if args.teacher_logits is not None:
            report["kd"] = kd_eval(
                result,
                args.teacher_logits,
                KdConfig(lam=args.lam, tau=args.tau, task_kind=weights.config.task_kind),
                r=args.r,
                batch_size=args.batch,
            )
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out_json:
            Path(args.out_json).write_text(text)
        sys.stdout.write(text)
        return 0

    if args.teacher_logits is not None:
        raise ConfigError("--teacher-logits needs a single --r run, not a sweep")
    r_values = _parse_sweep(args.r_sweep) if args.r_sweep else DEFAULT_R_SWEEP
    cfg = BenchConfig(
        r_values=r_values,
        batch_size=args.batch,
        warmup_runs=args.warmup_runs,
        measured_runs=args.measured_runs,
        threads=args.threads,
    )
    result = benchmark_throughput(weights, manifest, cfg)
    json_text, csv_text = sweep_report(result)
    if args.out_json:
        Path(args.out_json).write_text(json_text)
    if args.out_csv:
        Path(args.out_csv).write_text(csv_text)
    sys.stdout.write(json_text)
    return 0


def _cmd_make_model(args: argparse.Namespace) -> int:
    config = ModelConfig(
        depth=args.depth,
        embed_dim=args.dim,
        n_heads=args.heads,
        mlp_ratio=args.mlp_ratio,
        clip_seconds=args.clip_seconds,
        n_classes=args.classes,
        task_kind=args.task,
    )
    weights = generate_synthetic_model(
        args.seed, config, norm_mean=args.norm_mean, norm_std=args.norm_std
    )
    save_model(args.out, weights)
    print(f"wrote {args.out}")
    return 0


def _cmd_make_data(args: argparse.Namespace) -> int:
    cfg = SyntheticDataConfig(
        n_classes=args.classes,
        clip_seconds=args.clip_seconds,
        noise_std=args.noise,
        task_kind=args.task,
    )
    specs, labels = generate_synthetic_dataset(args.seed, args.samples, cfg)
    out_dir = Path(args.out_dir)
    spec_dir = out_dir / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(specs.shape[0]):
        rel = f"specs/{i:05d}.spec"
        save_spec(out_dir / rel, Spectrogram(values=specs[i]))
        entries.append((rel, labels[i]))
    manifest = DatasetManifest(
        entries=entries,
        task_kind=args.task,
        clip_seconds=args.clip_seconds,
        base_dir=out_dir,
    )
    save_manifest(out_dir / "manifest.jsonl", manifest)
    if args.teacher_logits_out:
        logits = generate_synthetic_teacher_logits(labels, args.classes, args.seed)
        save_teacher_logits(args.teacher_logits_out, logits)
    print(f"wrote {args.samples} samples under {out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "make-model":
            return _cmd_make_model(args)
        if args.command == "make-data":
            return _cmd_make_data(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except AstmergeError as e:
        print(f"error:{e.category}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error:io: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
