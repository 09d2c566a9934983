"""The encoder's sample pool: output bits do not depend on the worker count
or the BLAS thread count, and the BLAS pool size is always restored."""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from astmerge import (
    BenchConfig, DatasetManifest, Spectrogram, ToMeConfig, benchmark_throughput, merge_step,
    pool, run_inference, save_spec, sweep_report, transformer,
)
from astmerge.pool import SamplePool, blas_threads, sample_pool

BATCH = 5  # 7 clips: batches of 5 and 2, and 5 is no multiple of 2 or 3

needs_blas_control = pytest.mark.skipif(
    blas_threads() is None, reason="NumPy's BLAS thread count cannot be set here"
)


@pytest.fixture(scope="module")
def clips(small_model, tmp_path_factory):
    """(manifest, specs): 7 random clips, also written as the SPEC1 files
    the manifest lists."""
    rng = np.random.default_rng(21)
    specs = rng.standard_normal(
        (7, small_model.spec_config.n_mels, small_model.expected_frames)
    ).astype(np.float32)
    base = tmp_path_factory.mktemp("clips")
    for i, values in enumerate(specs):
        save_spec(base / f"{i}.spec", Spectrogram(values))
    manifest = DatasetManifest(
        entries=[(f"{i}.spec", i % 5) for i in range(7)],
        task_kind="single-label", clip_seconds=1.0, base_dir=base,
    )
    return manifest, specs


def logits_bytes(model, clips, r, threads=1):
    manifest, specs = clips
    return run_inference(
        model, manifest, r, batch_size=BATCH, threads=threads, inputs=specs
    ).logits.tobytes()


def record_workers(monkeypatch):
    """Patch SamplePool.split to record each split's worker count."""
    seen, split = [], SamplePool.split

    def recorded(self, fn, n):
        seen.append(min(self.workers, n))
        return split(self, fn, n)

    monkeypatch.setattr(SamplePool, "split", recorded)
    return seen


@needs_blas_control
@pytest.mark.parametrize("r", [0, 6])
def test_worker_count_does_not_change_bits(small_model, clips, r, monkeypatch):
    with sample_pool(1):  # the BLAS pool is one thread in here
        with monkeypatch.context() as m:
            m.setattr(pool, "blas_threads", lambda: None)  # no pool, no pin
            serial = logits_bytes(small_model, clips, r)
        got = {}
        for threads in (1, 2, 3):
            with monkeypatch.context() as m:
                seen = record_workers(m)
                got[threads] = logits_bytes(small_model, clips, r, threads)
            assert max(seen) == threads
    got["default BLAS pool"] = logits_bytes(small_model, clips, r)
    assert all(b == serial for b in got.values()), [k for k, b in got.items() if b != serial]


@needs_blas_control
def test_more_workers_than_cores_under_rapid_switching(small_model, clips):
    """Workers write disjoint rows of shared arrays; a lost or misplaced
    write under constant thread switching would change the bits."""
    with sample_pool(1):
        serial = logits_bytes(small_model, clips, 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = logits_bytes(small_model, clips, 6, threads=6)
        finally:
            sys.setswitchinterval(interval)
    assert parallel == serial


@needs_blas_control
def test_blas_pool_size_restored(small_model, clips, monkeypatch):
    get, set_ = blas_threads()
    entry = get()
    set_(2)  # a pool the forward has to pin and give back
    try:
        inside, fail, mlp = [], [False], transformer.mlp_batch

        def spy(x, w, pool):
            inside.append(get())
            if fail[0] and len(inside) == 2:  # block 1 of the first batch
                raise RuntimeError("mid-batch")
            return mlp(x, w, pool)

        monkeypatch.setattr(transformer, "mlp_batch", spy)
        logits_bytes(small_model, clips, 6)
        assert get() == 2 and set(inside) == {1}
        fail[0] = True
        inside.clear()
        with pytest.raises(RuntimeError, match="mid-batch"):
            logits_bytes(small_model, clips, 6)
        assert get() == 2
    finally:
        set_(entry)


@needs_blas_control
def test_merge_step_bits_do_not_follow_the_blas_pool():
    """A standalone merge_step on a sample_pool pool: a desk-shaped batch
    under a 2-thread BLAS pool (two workers, BLAS pinned) gives the bits of
    the same call under a one-thread pool, tokens, sizes and (src, dst, sim)
    edges alike. Scoring on an unpinned 2-thread BLAS moves the similarity
    bits."""
    rng = np.random.default_rng(25)
    tokens = rng.standard_normal((4, 589, 192)).astype(np.float32)
    sizes = rng.integers(1, 4, size=(4, 589)).astype(np.float32)
    keys = rng.standard_normal((4, 589, 64)).astype(np.float32)
    get, set_ = blas_threads()
    entry, runs = get(), []
    try:
        for blas in (2, 1):
            set_(blas)
            with sample_pool() as sp:
                assert sp.workers == blas
                out, out_sizes, edges = merge_step(tokens, sizes, keys, ToMeConfig(r=40), sp)
            runs.append([a.tobytes() for a in (out, out_sizes, *edges)])
    finally:
        set_(entry)
    assert runs[0] == runs[1]


def test_missing_blas_symbols_run_serially_and_deterministically(
    small_model, clips, monkeypatch
):
    """Without the BLAS controls the forward runs today's serial loop on
    whatever BLAS pool it finds, and leaves that pool alone."""
    controls = blas_threads()
    entry = controls[0]() if controls else None
    monkeypatch.setattr(pool, "blas_threads", lambda: None)
    seen = record_workers(monkeypatch)
    runs = [logits_bytes(small_model, clips, 6, threads=3) for _ in range(2)]
    assert runs[0] == runs[1] and set(seen) == {1}
    assert (controls[0]() if controls else None) == entry


@pytest.mark.parametrize(
    "threads, blas, pinned", [(2, 1, False), (1, 2, True)], ids=["threads-2", "blas-2"]
)
def test_sweep_reports_the_pool_that_ran(small_model, clips, monkeypatch, threads, blas, pinned):
    """A forced 2-worker pool, from --threads 2 over a one-thread BLAS and
    from a 2-thread BLAS under --threads 1: the sweep and its JSON report
    carry, once, the workers every forward's pool had and the BLAS pin."""
    state = [blas]
    controls = (lambda: state[0], lambda k: state.__setitem__(0, k))
    monkeypatch.setattr(pool, "blas_threads", lambda: controls)
    seen, init = [], SamplePool.__init__

    def recorded(self, workers=1):
        seen.append(workers)
        init(self, workers)

    monkeypatch.setattr(SamplePool, "__init__", recorded)
    manifest, _ = clips
    cfg = BenchConfig(r_values=(0, 6), batch_size=BATCH, warmup_runs=0, threads=threads)
    result = benchmark_throughput(small_model, manifest, cfg)
    assert set(seen) == {2} and state[0] == blas
    doc = json.loads(sweep_report(result)[0])
    assert (doc["thread_count"], doc["workers"], doc["blas_pinned"]) == (threads, 2, pinned)


def test_split_covers_the_range_and_reraises_worker_errors():
    sp = SamplePool(3)
    try:
        ranges = []
        sp.split(lambda k, lo, hi: ranges.append((k, lo, hi)), 7)
        assert sorted(ranges) == [(0, 0, 2), (1, 2, 4), (2, 4, 7)]
        ranges.clear()
        sp.split(lambda k, lo, hi: ranges.append((k, lo, hi)), 0)
        assert ranges == []

        def fail_in_worker(k, lo, hi):
            if k == 2:
                raise ValueError("worker 2")

        with pytest.raises(ValueError, match="worker 2"):
            sp.split(fail_in_worker, 7)
    finally:
        sp.executor.shutdown()


def test_unused_workers_allocate_nothing():
    """A pool sized far past the clips it splits holds no per-worker state:
    threads start on submit and scratch is made on first use."""
    tracemalloc.start()
    try:
        sp = SamplePool(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sp.executor.shutdown()
    assert peak < 1 << 20
