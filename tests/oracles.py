"""Independent brute-force references the real implementations are checked
against. Everything here is deliberately written with explicit loops and
float64 so it shares no code path with the package."""

from __future__ import annotations

import math

import numpy as np


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def _layer_norm64(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        out[i] = (x[i] - mu) / math.sqrt(var + 1e-5) * gain + bias
    return out


def naive_attention(tokens, sizes, w, n_heads):
    """Per-head loop attention with the ln(size) key offset, all float64.

    Returns (residual-added output, head-averaged keys), mirroring the
    production contract.
    """
    x = np.asarray(tokens, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    n, d = x.shape
    dh = d // n_heads
    h = _layer_norm64(x, np.asarray(w.ln1_gain, np.float64), np.asarray(w.ln1_bias, np.float64))
    qkv = h @ np.asarray(w.qkv, np.float64) + np.asarray(w.qkv_bias, np.float64)
    out = np.zeros((n, d))
    key_sum = np.zeros((n, dh))
    for head in range(n_heads):
        q = qkv[:, head * dh : (head + 1) * dh]
        k = qkv[:, d + head * dh : d + (head + 1) * dh]
        v = qkv[:, 2 * d + head * dh : 2 * d + (head + 1) * dh]
        key_sum += k
        for i in range(n):
            logits = np.array(
                [q[i] @ k[j] / math.sqrt(dh) + math.log(sizes[j]) for j in range(n)]
            )
            e = np.exp(logits - logits.max())
            p = e / e.sum()
            ctx = np.zeros(dh)
            for j in range(n):
                ctx += p[j] * v[j]
            out[i, head * dh : (head + 1) * dh] = ctx
    out = out @ np.asarray(w.proj, np.float64) + np.asarray(w.proj_bias, np.float64)
    return x + out, key_sum / n_heads


def _cosine64(u: np.ndarray, v: np.ndarray) -> float:
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        return -1.0
    return float(u @ v) / (nu * nv)


def brute_force_merge(tokens, sizes, keys, r):
    """Enumerate-and-sort reference for one merge step.

    Returns (merged tokens float64, merged sizes float64, edges) where edges
    is [(src, dst, sim)] in selection order. Mirrors the declared rules:
    alternating partition with [CLS] forced to the destination side, row
    argmax with lowest-destination tie-break, descending-similarity edge
    ranking with lowest-source tie-break, capacity min(|A|, n - 2).
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    n = tokens.shape[0]
    set_a = [i for i in range(n) if i % 2 == 1]
    set_b = [i for i in range(n) if i % 2 == 0]
    eff = min(r, len(set_a), n - 2)
    if n < 2 or eff <= 0:
        return tokens.copy(), sizes.copy(), []

    best = []
    for a in set_a:
        best_sim, best_dst = -math.inf, None
        for b in set_b:
            s = _cosine64(keys[a], keys[b])
            if s > best_sim:  # strict: first (lowest) destination wins ties
                best_sim, best_dst = s, b
        best.append((a, best_dst, best_sim))
    order = sorted(range(len(set_a)), key=lambda i: (-best[i][2], i))
    edges = [best[i] for i in order[:eff]]

    num = {i: sizes[i] * tokens[i].copy() for i in range(n)}
    den = {i: float(sizes[i]) for i in range(n)}
    for a, b, _ in edges:
        num[b] = num[b] + sizes[a] * tokens[a]
        den[b] = den[b] + float(sizes[a])
    removed = {a for a, _, _ in edges}
    survivors = [i for i in range(n) if i not in removed]
    out_tokens = np.stack([num[i] / den[i] for i in survivors])
    out_sizes = np.array([den[i] for i in survivors])
    return out_tokens, out_sizes, edges


def add_at_merge_fold(tokens, sizes, src, dst):
    """Bit reference for merge_step's fold, row by row with ``np.add.at``.

    Unlike the rest of this module it runs in float32 on purpose: it is the
    per-row reference that merge_step's batched fold must match bit for bit.
    Each destination's delta sum(s_a (x_a - x_d)) and size gain start from
    zero and add their edges in edge order; survivors are x + 0.
    """
    out_tokens, out_sizes = [], []
    for x, s, sr, ds in zip(tokens, sizes, src, dst):
        dest, slot = np.unique(ds, return_inverse=True)
        delta = np.zeros((dest.size, x.shape[1]), dtype=np.float32)
        np.add.at(delta, slot, s[sr, None] * (x[sr] - x[ds]))
        gain = np.zeros(dest.size, dtype=np.float32)
        np.add.at(gain, slot, s[sr])
        new_s = s.copy()
        new_s[dest] += gain
        new_x = x + np.float32(0.0)
        new_x[dest] = x[dest] + delta / new_s[dest, None]
        keep = np.ones(x.shape[0], dtype=bool)
        keep[sr] = False
        out_tokens.append(new_x[keep])
        out_sizes.append(new_s[keep])
    return np.stack(out_tokens), np.stack(out_sizes)


def ap_reference(scores, labels):
    """O(n^2) average precision: count items ranked at or above each
    positive, ranking by descending score with lower index winning ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n = scores.size
    positives = [i for i in range(n) if labels[i]]
    if not positives:
        raise ValueError("no positives")
    total = 0.0
    for i in positives:
        rank = 1
        for j in range(n):
            if scores[j] > scores[i] or (scores[j] == scores[i] and j < i):
                rank += 1
        hits = 0
        for p in positives:
            rank_p = 1
            for j in range(n):
                if scores[j] > scores[p] or (scores[j] == scores[p] and j < p):
                    rank_p += 1
            if rank_p <= rank:
                hits += 1
        total += hits / rank
    return total / len(positives)


def map_reference(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    aps = []
    for c in range(scores.shape[1]):
        if labels[:, c].sum() > 0:
            aps.append(ap_reference(scores[:, c], labels[:, c]))
    return float(np.mean(aps))


def kd_loss_scalar(student, teacher, labels, lam, tau, task_kind):
    """Element-by-element reimplementation of the combined loss."""
    student = np.asarray(student, dtype=np.float64)
    teacher = np.asarray(teacher, dtype=np.float64)
    n, c = student.shape

    def softmax_row(z):
        m = max(z)
        e = [math.exp(v - m) for v in z]
        s = sum(e)
        return [v / s for v in e]

    if task_kind == "single-label":
        loss_g = 0.0
        loss_d = 0.0
        for i in range(n):
            p_s = softmax_row(list(student[i]))
            p_t = softmax_row([v / tau for v in teacher[i]])
            loss_g += -math.log(p_s[int(labels[i])])
            loss_d += -sum(p_t[j] * math.log(p_s[j]) for j in range(c))
        loss_g /= n
        loss_d /= n
    else:
        def sig(z):
            return 1.0 / (1.0 + math.exp(-z))

        loss_g = 0.0
        loss_d = 0.0
        for i in range(n):
            for j in range(c):
                p = sig(student[i, j])
                t = sig(teacher[i, j] / tau)
                y = float(labels[i][j])
                loss_g += -(y * math.log(p) + (1 - y) * math.log(1 - p))
                loss_d += -(t * math.log(p) + (1 - t) * math.log(1 - p))
        loss_g /= n * c
        loss_d /= n * c
    return lam * loss_g + (1 - lam) * loss_d, loss_g, loss_d


def central_difference_grad(f, z, eps=1e-5):
    """Central finite differences of a scalar function of a matrix."""
    z = np.asarray(z, dtype=np.float64)
    grad = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp = z.copy()
        zp[idx] += eps
        zm = z.copy()
        zm[idx] -= eps
        grad[idx] = (f(zp) - f(zm)) / (2 * eps)
    return grad


def dft_peak_hz(frame: np.ndarray, sample_rate: int, fft_size: int) -> float:
    """Location of the magnitude-spectrum peak of one windowed frame."""
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame.size) / frame.size)
    spectrum = np.abs(np.fft.rfft(frame * w, n=fft_size))
    return float(np.argmax(spectrum) * sample_rate / fft_size)
