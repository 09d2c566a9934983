"""Distillation loss: closed forms, combination law, analytic gradient."""

import math

import numpy as np
import pytest

from astmerge import ConfigError, KdBatch, KdConfig, kd_loss, kd_loss_grad
from astmerge.errors import ShapeError
from astmerge.kd import component_losses

from oracles import central_difference_grad, kd_loss_scalar


def random_batch(rng, n=4, c=3, task="single-label"):
    z_s = rng.standard_normal((n, c))
    z_t = rng.standard_normal((n, c))
    if task == "single-label":
        labels = rng.integers(0, c, size=n)
    else:
        labels = (rng.random((n, c)) < 0.5).astype(float)
    return KdBatch(student_logits=z_s, teacher_logits=z_t, labels=labels)


class TestConfig:
    def test_lambda_range_enforced(self):
        with pytest.raises(ConfigError):
            KdConfig(lam=1.5)
        with pytest.raises(ConfigError):
            KdConfig(lam=-0.1)

    def test_temperature_positive(self):
        with pytest.raises(ConfigError):
            KdConfig(tau=0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_temperature_finite(self, tau):
        with pytest.raises(ConfigError, match="temperature must be finite"):
            KdConfig(tau=tau)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            KdBatch(
                student_logits=np.zeros((2, 3)),
                teacher_logits=np.zeros((2, 4)),
                labels=np.zeros(2, dtype=int),
            )


class TestClosedForms:
    def test_lambda_one_is_pure_ground_truth(self):
        rng = np.random.default_rng(0)
        b = random_batch(rng)
        full = kd_loss(b, KdConfig(lam=1.0))
        loss_g, _ = component_losses(b, KdConfig(lam=1.0))
        assert abs(full - loss_g) < 1e-12
        # any teacher logits give the same value
        b2 = KdBatch(
            student_logits=b.student_logits,
            teacher_logits=b.teacher_logits + 100.0,
            labels=b.labels,
        )
        assert abs(kd_loss(b2, KdConfig(lam=1.0)) - full) < 1e-12

    def test_self_distillation_uniform_is_ln4(self):
        z = np.zeros((2, 4))
        b = KdBatch(student_logits=z, teacher_logits=z, labels=np.zeros(2, dtype=int))
        loss = kd_loss(b, KdConfig(lam=0.0, tau=1.0))
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_teacher_perturbation_bit_identical_at_lambda_one(self):
        rng = np.random.default_rng(1)
        b = random_batch(rng)
        cfg = KdConfig(lam=1.0)
        l1 = kd_loss(b, cfg)
        g1 = kd_loss_grad(b, cfg)
        b.teacher_logits = b.teacher_logits + rng.standard_normal(b.teacher_logits.shape)
        assert kd_loss(b, cfg) == l1
        np.testing.assert_array_equal(kd_loss_grad(b, cfg), g1)

    @pytest.mark.parametrize("task", ["single-label", "multi-label"])
    def test_non_negativity(self, task):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b = random_batch(rng, task=task)
            cfg = KdConfig(lam=0.5, tau=2.0, task_kind=task)
            loss_g, loss_d = component_losses(b, cfg)
            assert loss_g >= 0.0 and loss_d >= 0.0


class TestCombinationLaw:
    @pytest.mark.parametrize("task", ["single-label", "multi-label"])
    def test_convex_combination_exact(self, task):
        rng = np.random.default_rng(3)
        b = random_batch(rng, n=6, c=5, task=task)
        ends = (
            kd_loss(b, KdConfig(lam=1.0, task_kind=task)),
            kd_loss(b, KdConfig(lam=0.0, task_kind=task)),
        )
        for lam in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            combined = kd_loss(b, KdConfig(lam=lam, task_kind=task))
            assert abs(combined - (lam * ends[0] + (1 - lam) * ends[1])) < 1e-12


class TestScalarOracle:
    @pytest.mark.parametrize("task", ["single-label", "multi-label"])
    @pytest.mark.parametrize("tau", [1.0, 2.5])
    def test_matches_elementwise_loops(self, task, tau):
        rng = np.random.default_rng(4)
        for _ in range(10):
            b = random_batch(rng, n=5, c=3, task=task)
            cfg = KdConfig(lam=0.1, tau=tau, task_kind=task)
            ref, ref_g, ref_d = kd_loss_scalar(
                b.student_logits, b.teacher_logits, b.labels, 0.1, tau, task
            )
            loss_g, loss_d = component_losses(b, cfg)
            assert kd_loss(b, cfg) == pytest.approx(ref, abs=1e-10)
            assert loss_g == pytest.approx(ref_g, abs=1e-10)
            assert loss_d == pytest.approx(ref_d, abs=1e-10)


class TestGradient:
    def test_uniform_two_class_closed_form(self):
        b = KdBatch(
            student_logits=np.zeros((1, 2)),
            teacher_logits=np.zeros((1, 2)),
            labels=np.array([0]),
        )
        g = kd_loss_grad(b, KdConfig(lam=1.0))
        np.testing.assert_allclose(g, [[-0.5, 0.5]], atol=1e-12)

    def test_stationary_when_student_hits_both_targets(self):
        # student matches a near-one-hot teacher and the true label
        logits = np.array([[20.0, 0.0, 0.0]])
        b = KdBatch(student_logits=logits, teacher_logits=logits, labels=np.array([0]))
        g = kd_loss_grad(b, KdConfig(lam=0.1))
        assert np.linalg.norm(g) < 1e-5

    @pytest.mark.parametrize("task", ["single-label", "multi-label"])
    def test_matches_central_finite_differences(self, task):
        rng = np.random.default_rng(5)
        for trial in range(25):
            n = int(rng.integers(1, 9))
            c = int(rng.integers(2, 11))
            b = random_batch(rng, n=n, c=c, task=task)
            lam = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
            tau = float(rng.choice([0.5, 1.0, 3.0]))
            cfg = KdConfig(lam=lam, tau=tau, task_kind=task)
            analytic = kd_loss_grad(b, cfg)

            def f(z):
                return kd_loss(
                    KdBatch(student_logits=z, teacher_logits=b.teacher_logits,
                            labels=b.labels),
                    cfg,
                )

            numeric = central_difference_grad(f, b.student_logits, eps=1e-5)
            scale = max(np.abs(numeric).max(), 1e-12)
            assert np.abs(analytic - numeric).max() / scale < 1e-5
