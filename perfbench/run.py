"""astmerge benchmark runner.

    python3 perfbench/run.py --workload desk_r0 --seed 1 --seconds 20 --trace 0

One run: write the workload's fixture in a separate process, then, in this
process, set up (load model, manifest and, on the desk workloads, every
SPEC1 clip) several times, warm up, and serve requests in a closed loop for
``--seconds``. Each request is one ``bench.run_inference`` call. The run then
checks every output, untimed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates traced and untraced requests and reports the per-layer metrics:
self time per layer and the counts recorded at the layer boundaries, per
request. Either way the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with the environment and every check, goes to a JSON file
under ``--results-dir``. A failed check gives exit code 1; when the
package or its fixture cannot be built, the run prints no result and exits
with code 2.

``--workload all`` runs every workload in turn and prints each one's
metrics, prefixed by the workload name.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer
from workloads import SETUP_REPEATS, WARMUP_SECONDS, WORKLOADS, Workload

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def fix_blas_threads(argv: list[str]) -> None:
    """Set the BLAS pool size the named workload fixes. The BLAS library
    reads it once, when NumPy loads, so this runs before NumPy is imported."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--workload")
    wl = WORKLOADS.get(pre.parse_known_args(argv)[0].workload)
    if wl is not None and wl.blas_threads is not None:
        for var in BLAS_THREAD_VARS:
            os.environ[var] = str(wl.blas_threads)


fix_blas_threads(sys.argv[1:])

import numpy as np  # noqa: E402  (after the BLAS pool size is fixed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_MODULES = ("bench", "head", "kd", "model_io", "transformer")
HARNESS_THREADS = 1
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THROUGHPUT_WINDOW_S = 1.0
FIXTURE_TIMEOUT_S = 600


def fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail_setup(f"{path} not found")
    return json.loads(path.read_text())


def import_package() -> dict[str, object]:
    """Import astmerge from this checkout's sources, never from elsewhere."""
    if not (SRC / "astmerge" / "__init__.py").is_file():
        fail_setup(f"astmerge sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import astmerge

    if Path(astmerge.__file__).resolve().parent != (SRC / "astmerge").resolve():
        fail_setup(f"imported astmerge from {astmerge.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"astmerge.{name}") for name in PACKAGE_MODULES}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 has no dict mode
        blas = {}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "harness_threads": HARNESS_THREADS,
    }


def release_free_memory() -> None:
    """Hand freed heap memory back to the OS (glibc ``malloc_trim``).

    Called before each timed set-up: otherwise a set-up sometimes reuses the
    pages the previous one freed and sometimes faults in fresh ones, which
    on a VM doubles its time. After a trim every set-up starts like the
    first one in a fresh process.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to trim
        pass


def make_fixture(workload: str, seed: int, scale: str, out: Path) -> None:
    """Write the fixture in a child process, so its time and memory stay out
    of set-up time and peak RSS."""
    cmd = [
        sys.executable, str(HERE / "fixtures.py"), "--workload", workload,
        "--seed", str(seed), "--out", str(out), "--scale", scale,
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=FIXTURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail_setup(f"fixture generation took over {FIXTURE_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail_setup("fixture generation failed")


@dataclass
class Request:
    index: int
    clips: slice
    manifest: object  # astmerge DatasetManifest holding this request's clips
    inputs: np.ndarray | None  # preloaded spectrograms, or None to load per call

    @property
    def n_clips(self) -> int:
        return self.clips.stop - self.clips.start


@dataclass
class Served:
    weights: object
    labels: np.ndarray
    requests: list[Request]
    teacher: np.ndarray | None
    kd_cfg: object | None


def set_up(m: dict, wl: Workload, fx: Path) -> Served:
    """Everything up to the first request; this is what setup_s times."""
    weights = m["model_io"].load_model(fx / "model.modl")
    manifest = m["model_io"].load_manifest(fx / "manifest.jsonl")
    specs = m["bench"].load_inputs(manifest, weights) if wl.preload else None
    teacher, kd_cfg = None, None
    if (fx / "teacher.tlog").is_file():
        teacher = m["kd"].load_teacher_logits(fx / "teacher.tlog")
        kd_cfg = m["kd"].KdConfig(task_kind=weights.config.task_kind)
    n = len(manifest.entries)
    requests = []
    for i, start in enumerate(range(0, n, wl.batch)):
        clips = slice(start, min(start + wl.batch, n))
        sub = m["model_io"].DatasetManifest(
            entries=manifest.entries[clips],
            task_kind=manifest.task_kind,
            clip_seconds=manifest.clip_seconds,
            base_dir=manifest.base_dir,
        )
        requests.append(Request(i, clips, sub, None if specs is None else specs[clips]))
    return Served(
        weights=weights,
        labels=manifest.labels_array(weights.config.n_classes),
        requests=requests,
        teacher=teacher,
        kd_cfg=kd_cfg,
    )


@dataclass
class Outcome:
    index: int
    traced: bool
    start_s: float  # perf_counter at send
    latency_s: float
    result: object | None  # astmerge InferenceResult; None when the request failed
    kd_loss: float | None


@dataclass
class Ledger:
    outcomes: list[Outcome] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def first(self, traced: bool | None = None) -> dict[int, Outcome]:
        out: dict[int, Outcome] = {}
        for o in self.outcomes:
            if o.result is not None and (traced is None or o.traced == traced):
                out.setdefault(o.index, o)
        return out


class Server:
    """One client, one process: each request waits for the previous one."""

    def __init__(self, m: dict, wl: Workload, served: Served, tracer: Tracer | None):
        self.m, self.wl, self.served, self.tracer = m, wl, served, tracer
        self.ledger = Ledger()

    def serve(self, index: int, traced: bool = False) -> Outcome:
        req = self.served.requests[index]
        if traced:
            self.tracer.request = index
            self.tracer.install(self.m)
        t0 = time.perf_counter()
        try:
            result = self.m["bench"].run_inference(
                self.served.weights, req.manifest, self.wl.r,
                batch_size=self.wl.batch, threads=HARNESS_THREADS, inputs=req.inputs,
            )
            loss = None
            if self.served.teacher is not None:
                kd = self.m["kd"]
                batch = kd.KdBatch(
                    student_logits=result.logits,
                    teacher_logits=self.served.teacher[req.clips],
                    labels=result.labels,
                )
                loss = kd.kd_loss(batch, self.served.kd_cfg)
        except Exception as e:  # a failed request is counted, and the loop goes on
            result, loss = None, None
            self.ledger.errors.append(f"request {index}: {type(e).__name__}: {e}")
        t1 = time.perf_counter()
        if traced:
            self.tracer.uninstall()
            self.tracer.request = None
        outcome = Outcome(index, traced, t0, t1 - t0, result, loss)
        self.ledger.outcomes.append(outcome)
        return outcome


def timed_loop(server: Server, seconds: float, paired: bool) -> tuple[list[Outcome], float]:
    """Serve requests round-robin until ``seconds`` have passed.

    With ``paired`` each request is served twice in a row, traced and
    untraced, the order alternating between requests, so tracing overhead
    and bitwise equality are measured on the same inputs under the same
    machine load.
    """
    n = len(server.served.requests)
    timed: list[Outcome] = []
    start = time.perf_counter()
    k = 0
    while True:
        index = k % n
        modes = ((False, True) if k % 2 == 0 else (True, False)) if paired else (False,)
        for traced in modes:
            timed.append(server.serve(index, traced))
        k += 1
        if time.perf_counter() - start >= seconds:
            return timed, time.perf_counter() - start


def samples_per_s(timed: list[Outcome], served: Served, window_s: float) -> float:
    """Median throughput over consecutive windows of the timed loop.

    A window closes at the first request that ends ``window_s`` or more
    after the window opened; its rate is the clips it classified over its
    wall time. The median keeps a few seconds of machine interference from
    moving the figure.
    """
    rates = []
    opened, clips = timed[0].start_s, 0
    for o in timed:
        if o.result is not None:
            clips += served.requests[o.index].n_clips
        end = o.start_s + o.latency_s
        if end - opened >= window_s:
            rates.append(clips / (end - opened))
            opened, clips = end, 0
    return statistics.median(rates)


def tail_latency(latencies_ms: list[float]) -> dict | None:
    """Highest percentile with at least 10 samples beyond it (nearest rank)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return {"percentile": p, "value_ms": ordered[rank - 1], "samples": n, "beyond": n - rank}
    return None


def flops_per_request(m: dict, served: Served, wl: Workload) -> tuple[float, float]:
    """Analytic (attention, MLP) GFLOP per request, computed from count_trajectory:
    attention 8nd^2 + 4n^2 d at the block's input count, MLP 4nd*hidden at its
    post-merge count, per sample per block."""
    cfg = served.weights.config
    counts = m["transformer"].count_trajectory(served.weights.n_tokens, cfg.depth, wl.r)
    d, hidden = cfg.embed_dim, cfg.hidden_dim
    attn = sum(8 * n * d * d + 4 * n * n * d for n in counts[:-1])
    mlp = sum(4 * n * d * hidden for n in counts[1:])
    return wl.batch * attn / 1e9, wl.batch * mlp / 1e9


def check_outputs(m: dict, served: Served, wl: Workload, ledger: Ledger) -> dict[str, bool]:
    """Untimed checks over every request served; each failure counts once."""
    cfg = served.weights.config
    expected = list(m["transformer"].count_trajectory(served.weights.n_tokens, cfg.depth, wl.r))
    done = [o for o in ledger.outcomes if o.result is not None]
    checks = {
        "token_counts_match_count_trajectory": all(
            list(o.result.per_block_counts) == expected
            and bool(np.all(o.result.final_token_counts == expected[-1]))
            for o in done
        ),
        "logits_and_probabilities_finite": all(
            bool(np.isfinite(o.result.logits).all() and np.isfinite(o.result.probabilities).all())
            for o in done
        ),
    }
    first = ledger.first()
    checks["repeated_requests_bitwise_equal"] = all(
        o.result.logits.tobytes() == first[o.index].result.logits.tobytes() for o in done
    )
    if served.teacher is not None:
        kd = m["kd"]
        order = sorted(first)
        batch = kd.KdBatch(
            student_logits=np.concatenate([first[i].result.logits for i in order]),
            teacher_logits=np.concatenate([served.teacher[served.requests[i].clips] for i in order]),
            labels=np.concatenate([first[i].result.labels for i in order]),
        )
        loss = kd.kd_loss(batch, served.kd_cfg)
        grad = kd.kd_loss_grad(batch, served.kd_cfg)
        checks["kd_loss_and_grad_finite"] = bool(
            math.isfinite(loss)
            and np.isfinite(grad).all()
            and all(math.isfinite(o.kd_loss) for o in done)
        )
    return checks


def quality(m: dict, served: Served, first: dict[int, Outcome]) -> dict[str, float]:
    """accuracy and map over the whole evaluation set, by head's own metrics.

    Single-label: accuracy is top-1 accuracy and map is macro mAP against
    one-hot labels. Multi-label: map is macro mAP and accuracy is the share
    of clips whose top class is one of their positives.
    """
    head = m["head"]
    probs = np.concatenate([first[i].result.probabilities for i in range(len(served.requests))])
    labels = served.labels
    if labels.ndim == 1:
        onehot = np.eye(probs.shape[1])[labels]
        return {
            "accuracy": head.accuracy(probs, labels),
            "map": head.mean_average_precision(probs, onehot),
        }
    return {
        "accuracy": head.argmax_in_positives(probs, labels),
        "map": head.mean_average_precision(probs, labels),
    }


def layer_metrics(
    m: dict, served: Served, wl: Workload, tracer: Tracer, timed: list[Outcome]
) -> dict[str, float]:
    """Per-request self time and boundary counts of each layer (traced run)."""
    selfs = tracer.self_times()
    traced = [o for o in timed if o.traced]
    done = [o for o in traced if o.result is not None]
    n_req = len(traced)
    layer_self: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    inclusive: dict[str, list[float]] = defaultdict(list)
    in_requests = 0.0
    for span, self_s in zip(tracer.spans, selfs):
        inclusive[span.name].append(span.end - span.start)
        if span.request is None:
            continue
        in_requests += self_s
        layer_self[span.layer] += self_s
        calls[span.name] += 1
        counts.update(span.counts or {})

    def per_request(x: float) -> float:
        return x / n_req

    def mean_inclusive(name: str) -> float:
        return statistics.fmean(inclusive[name]) if inclusive[name] else 0.0

    attn_gflop, mlp_gflop = flops_per_request(m, served, wl)
    attn_s = per_request(layer_self["transformer.attn"])
    mlp_s = per_request(layer_self["transformer.mlp"])
    # Overhead is measured on the paired requests only, same inputs both ways.
    pairs = {o.index for o in traced} & {o.index for o in timed if not o.traced}
    traced_s = sum(o.latency_s for o in timed if o.traced and o.index in pairs)
    untraced_s = sum(o.latency_s for o in timed if not o.traced and o.index in pairs)
    return {
        "transformer.attn_self_s": attn_s,
        "transformer.attn_calls": per_request(calls["transformer.attention_batch"]),
        "transformer.attn_tokens": per_request(counts["tokens"]),
        "transformer.attn_gflop": attn_gflop,
        "transformer.attn_gflop_per_s": attn_gflop / attn_s if attn_s > 0 else 0.0,
        "transformer.mlp_self_s": mlp_s,
        "transformer.mlp_gflop": mlp_gflop,
        "transformer.mlp_gflop_per_s": mlp_gflop / mlp_s if mlp_s > 0 else 0.0,
        "transformer.layer_norm_self_s": per_request(layer_self["transformer.layer_norm"]),
        "transformer.encoder_self_s": per_request(layer_self["transformer.encoder"]),
        "transformer.final_tokens": float(done[-1].result.per_block_counts[-1]) if done else 0.0,
        "tome.merge_self_s": per_request(layer_self["tome.merge"]),
        "tome.merge_calls": per_request(calls["transformer._merge_batch"]),
        "tome.tokens_removed": per_request(counts["removed"]),
        # 1.0 when nothing was requested (r = 0): every requested merge happened.
        "tome.removed_per_requested": (
            counts["removed"] / counts["requested"] if counts["requested"] else 1.0
        ),
        "patchify.self_s": per_request(layer_self["patchify"]),
        "patchify.calls": per_request(calls["transformer.extract_patches"]),
        "features.load_inputs_s": mean_inclusive("bench.load_inputs"),
        "model_io.load_model_s": mean_inclusive("model_io.load_model"),
        "model_io.load_manifest_s": mean_inclusive("model_io.load_manifest"),
        "head.self_s": per_request(layer_self["head"]),
        "kd.self_s": per_request(layer_self["kd"]),
        "bench.self_s": per_request(layer_self["bench"]),
        "trace.coverage": in_requests / sum(o.latency_s for o in traced),
        "trace.overhead": traced_s / untraced_s - 1.0,
    }


def run_workload(args: argparse.Namespace, spec: dict) -> tuple[dict, Tracer | None]:
    """Fixture, set-up, warm-up, timed loop and checks: the full record, and
    the tracer of a traced run."""
    wl = WORKLOADS[args.workload]
    m = import_package()
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    fx = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=work_root))
    tracer = Tracer() if args.trace else None
    try:
        make_fixture(wl.name, args.seed, args.scale, fx)
        # An untimed set-up and warm-up first, so set-up is timed in a warm
        # process as well.
        server = Server(m, wl, set_up(m, wl, fx), tracer)
        timed_loop(server, WARMUP_SECONDS[args.scale], paired=False)
        if tracer:
            tracer.install(m)  # set-up spans: model_io and, on desk, features
        setup_runs = []
        for _ in range(SETUP_REPEATS[args.scale]):
            server.served = None  # free the previous set-up before timing the next
            release_free_memory()
            t0 = time.perf_counter()
            server.served = set_up(m, wl, fx)
            setup_runs.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        served = server.served
        n_req = len(served.requests)
        timed, wall_s = timed_loop(server, args.seconds, paired=bool(args.trace))
        if not args.trace:
            # Quality covers the whole evaluation set; serve what the timed
            # loop did not reach, untimed.
            reached = server.ledger.first().keys()
            for index in set(range(n_req)) - reached:
                server.serve(index)
        checks = check_outputs(m, served, wl, server.ledger)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(fx, ignore_errors=True)

    ledger = server.ledger
    ok = [o for o in timed if o.result is not None]
    detail: dict = {
        "requests_timed": len(timed),
        "requests_failed": sum(o.result is None for o in ledger.outcomes),
        "request_errors": ledger.errors[:20],
        "timed_wall_s": wall_s,
        "clips_per_request": wl.batch,
        "setup_runs_s": setup_runs,
    }
    if args.trace:
        traced_first = ledger.first(traced=True)
        untraced_first = ledger.first(traced=False)
        checks["traced_untraced_bitwise_equal"] = bool(traced_first) and all(
            o.result.logits.tobytes() == untraced_first[i].result.logits.tobytes()
            for i, o in traced_first.items()
            if i in untraced_first
        )
        metrics = layer_metrics(m, served, wl, tracer, timed)
        detail["spans_absent"] = tracer.absent
        detail["counter_errors"] = tracer.counter_errors[:20]
        detail["flops"] = "computed from count_trajectory, not measured"
    else:
        latencies_ms = [o.latency_s * 1000.0 for o in ok]
        metrics = {
            "samples_per_s": samples_per_s(timed, served, min(THROUGHPUT_WINDOW_S, args.seconds)),
            "latency_p50_ms": statistics.median(latencies_ms) if latencies_ms else 0.0,
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        first = ledger.first()
        if first.keys() >= set(range(n_req)):
            metrics.update(quality(m, served, first))
            if wl.r == 0 and served.labels.ndim == 1:
                chance = 1.0 / served.weights.config.n_classes
                checks["accuracy_well_above_chance_at_r0"] = metrics["accuracy"] >= 2.0 * chance
        else:
            checks["every_clip_classified"] = False
        detail["latency_tail"] = tail_latency(latencies_ms)
        detail["latencies_ms"] = latencies_ms

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [d["name"] for d in listed if d["name"] not in metrics]
    checks["every_metric_measured"] = not missing
    detail["missing_metrics"] = missing
    attempted = len(ledger.outcomes) + len(checks)
    failed = detail["requests_failed"] + sum(not v for v in checks.values())
    detail["error_rate"] = failed / attempted
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
            for d in listed
            if d["name"] in metrics
        },
        "checks": checks,
        "detail": detail,
        "environment": environment(),
    }
    return record, tracer


def write_record(record: dict, results_dir: Path, tracer: Tracer | None) -> Path:
    """The record as JSON; with a tracer, its spans beside it as
    [name, layer, start_s, end_s, parent_index, request] rows."""
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}"
    path = results_dir / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        rows = [[s.name, s.layer, s.start, s.end, s.parent, s.request] for s in tracer.spans]
        (results_dir / f"{stem}.spans").write_text(json.dumps(rows, separators=(",", ":")))
    return path


def print_summary(record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"{'error_rate':32s} {record['detail']['error_rate']:14.6g} ratio")
    if record["trace"] == 0:
        tail = record["detail"]["latency_tail"]
        if tail:
            print(
                f"{'latency_tail_ms':32s} {tail['value_ms']:14.6g} ms "
                f"(p{tail['percentile']:g} of {tail['samples']} requests)"
            )
        else:
            print(f"{'latency_tail_ms':32s} {'n/a':>14s}    (too few requests for a tail)")
    for name, ok in record["checks"].items():
        if not ok:
            print(f"check failed: {name}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
            "--results-dir", str(args.results_dir),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            fail_setup(f"workload {name} produced no result")
        for line in lines[:-1]:
            print(f"{name:14s} {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="astmerge benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="fixture size; 'smoke' is a toy model for the smoke tests",
    )
    parser.add_argument("--results-dir", type=Path, default=HERE / "_results")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    spec = benchmark_spec()
    record, tracer = run_workload(args, spec)
    path = write_record(record, args.results_dir, tracer)
    print_summary(record)
    print(f"record: {path}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}, sort_keys=True))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
