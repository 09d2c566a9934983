"""Workload and fixture definitions shared by the generator and the runner.

Every workload is a closed loop driven by one client in one process: the
next request is sent only after the previous one has returned. Harness
threads are always 1. The BLAS pool is the library default (at most
``nproc``) unless the workload fixes its size.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FixtureSpec:
    """One model plus one evaluation set, written by ``fixtures.py``."""

    depth: int
    embed_dim: int
    n_heads: int
    clip_seconds: float
    n_classes: int
    task_kind: str
    n_probe: int  # clips the head is fit on, disjoint from the eval set
    n_eval: int  # clips the requests are drawn from
    noise: float  # data noise; chosen so quality is not saturated at r = 0


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str  # "desk" (SPEC1 clips) or "short_wav" (16-bit WAV clips)
    r: int
    batch: int  # clips per request; one request is one run_inference call
    preload: bool  # True: SPEC1 clips are loaded in set-up, passed as inputs=
    # BLAS pool size; None leaves the library default. On a 2-vCPU host a
    # second BLAS thread did not speed batch-1 requests up, and its
    # spin-waiting made their latency drift by a quarter between runs.
    blas_threads: int | None = None


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_r0", fixture="desk", r=0, batch=16, preload=True),
        Workload("desk_r40", fixture="desk", r=40, batch=16, preload=True),
        Workload(
            "short_wav_b1", fixture="short_wav", r=8, batch=1, preload=False, blas_threads=1
        ),
    )
}

FIXTURES = {
    "full": {
        "desk": FixtureSpec(
            depth=12, embed_dim=192, n_heads=3, clip_seconds=5.0,
            n_classes=4, task_kind="single-label", n_probe=32, n_eval=192,
            noise=3.0,
        ),
        "short_wav": FixtureSpec(
            depth=12, embed_dim=192, n_heads=3,
            clip_seconds=1.0, n_classes=4, task_kind="multi-label", n_probe=128,
            n_eval=512, noise=0.05,
        ),
    },
    # Toy sizes for the smoke tests: every code path, in seconds.
    "smoke": {
        "desk": FixtureSpec(
            depth=2, embed_dim=32, n_heads=2, clip_seconds=5.0,
            n_classes=4, task_kind="single-label", n_probe=16, n_eval=32,
            noise=1.0,
        ),
        "short_wav": FixtureSpec(
            depth=2, embed_dim=32, n_heads=2,
            clip_seconds=1.0, n_classes=4, task_kind="multi-label", n_probe=16,
            n_eval=8, noise=0.05,
        ),
    },
}

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = {"full": 5, "smoke": 2}
# Requests are served untimed for this long before timing starts: on a small
# VM the first seconds of a process run several times slower than steady state.
WARMUP_SECONDS = {"full": 3.0, "smoke": 0.0}
