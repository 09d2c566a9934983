import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from astmerge import ModelConfig, generate_synthetic_model
from astmerge.pool import sample_pool


# (tensor name, axis) for every axis of every tensor of a depth-1 model.
DEPTH1_TENSOR_AXES = [
    (name, axis)
    for name, t in generate_synthetic_model(0, ModelConfig(
        depth=1, embed_dim=16, n_heads=2, mlp_ratio=2.0, clip_seconds=0.16, n_classes=3,
    )).tensors()
    for axis in range(t.ndim)
]


@pytest.fixture()
def pool():
    """The encoder's sample pool, BLAS pinned to one thread while the test
    runs, for calling the stage functions directly."""
    with sample_pool() as p:
        yield p


@pytest.fixture(scope="session")
def tiny_model():
    """One-time-patch model: 13 tokens, 1 block; fast enough for any test."""
    cfg = ModelConfig(
        depth=1, embed_dim=16, n_heads=2, mlp_ratio=2.0,
        clip_seconds=0.16, n_classes=3,
    )
    return generate_synthetic_model(0, cfg)


@pytest.fixture(scope="session")
def small_model():
    """109-token, 3-block model for encoder-level checks."""
    cfg = ModelConfig(
        depth=3, embed_dim=32, n_heads=4, mlp_ratio=4.0,
        clip_seconds=1.0, n_classes=5,
    )
    return generate_synthetic_model(1, cfg)


def random_token_sequence(rng: np.random.Generator, n: int, d: int):
    """(tokens [n x d], sizes [n]) of one random sequence, all sizes 1."""
    return (
        rng.standard_normal((n, d)).astype(np.float32),
        np.ones(n, dtype=np.float32),
    )
