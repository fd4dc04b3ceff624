"""Tests for layers, losses, optimizers and the local trainer."""

import numpy as np
import pytest

from repro.training import (
    GradientAccumulator,
    LAMB,
    Linear,
    LocalTrainer,
    MLP,
    SGD,
    Tensor,
    compute_gradient,
    cross_entropy,
    make_classification_data,
)


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 3)

    def test_linear_no_bias(self):
        layer = Linear(4, 3, bias=False)
        assert len(layer.parameters()) == 1

    def test_mlp_parameter_count(self):
        mlp = MLP(8, [16], 4)
        # (8*16 + 16) + (16*4 + 4)
        assert mlp.state_vector().size == 8 * 16 + 16 + 16 * 4 + 4

    def test_grad_vector_zeros_when_no_grads(self):
        mlp = MLP(3, [5], 2)
        assert np.all(mlp.grad_vector() == 0)


class TestLosses:
    def test_cross_entropy_matches_closed_form(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]), requires_grad=True)
        labels = np.array([0, 1])
        loss = cross_entropy(logits, labels)
        expected = -np.log(np.exp(2) / (np.exp(2) + 1))
        assert loss.item() == pytest.approx(expected)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        cross_entropy(logits, np.array([1])).backward()
        probs = np.exp([1.0, 2.0, 3.0]) / np.exp([1.0, 2.0, 3.0]).sum()
        expected = probs.copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(logits.grad[0], expected, rtol=1e-6)

    def test_cross_entropy_validates_shapes(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros(3), requires_grad=True), np.array([0]))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3)), requires_grad=True),
                          np.array([0]))

    def test_cross_entropy_stable_for_large_logits(self):
        logits = Tensor(np.array([[1e4, 0.0]]), requires_grad=True)
        loss = cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss.item())


class TestOptimizers:
    def test_sgd_step_direction(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=0.1)
        parameter.grad = np.array([2.0])
        optimizer.step()
        np.testing.assert_allclose(parameter.data, [0.8])

    def test_sgd_momentum_accumulates(self):
        parameter = Tensor(np.array([0.0]), requires_grad=True)
        optimizer = SGD([parameter], lr=1.0, momentum=0.5)
        parameter.grad = np.array([1.0])
        optimizer.step()
        parameter.grad = np.array([1.0])
        optimizer.step()
        # Steps: 1 then 1.5.
        np.testing.assert_allclose(parameter.data, [-2.5])

    def test_optimizer_validation(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([parameter], lr=-1)
        with pytest.raises(ValueError):
            SGD([parameter], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            LAMB([parameter], betas=(1.2, 0.9))

    def test_sgd_skips_parameters_without_grad(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        SGD([parameter], lr=0.1).step()
        np.testing.assert_allclose(parameter.data, [1.0])

    def test_lamb_reduces_loss_on_quadratic(self):
        rng = np.random.default_rng(0)
        parameter = Tensor(rng.normal(size=(8,)), requires_grad=True)
        optimizer = LAMB([parameter], lr=0.05)
        first = float((parameter.data ** 2).sum())
        for __ in range(50):
            parameter.grad = 2 * parameter.data
            optimizer.step()
        assert float((parameter.data ** 2).sum()) < first * 0.2

    def test_lamb_trust_ratio_bounds_update(self):
        parameter = Tensor(np.array([1e-8]), requires_grad=True)
        optimizer = LAMB([parameter], lr=1.0, weight_decay=0.0)
        parameter.grad = np.array([100.0])
        optimizer.step()
        # Trust ratio scales by tiny weight norm: update stays small.
        assert abs(parameter.data[0]) < 1.0

    def test_zero_grad(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        parameter.grad = np.array([1.0])
        SGD([parameter], lr=0.1).zero_grad()
        assert parameter.grad is None


class TestGradientAccumulator:
    def test_average_weighted_by_batch_size(self):
        accumulator = GradientAccumulator(2, target_batch_size=3)
        accumulator.add(np.array([1.0, 0.0]), batch_size=1)
        accumulator.add(np.array([0.0, 1.0]), batch_size=2)
        assert accumulator.ready
        np.testing.assert_allclose(accumulator.average(), [1 / 3, 2 / 3])

    def test_not_ready_until_target(self):
        accumulator = GradientAccumulator(1, target_batch_size=10)
        accumulator.add(np.array([1.0]), batch_size=4)
        assert not accumulator.ready

    def test_reset(self):
        accumulator = GradientAccumulator(1, target_batch_size=1)
        accumulator.add(np.array([1.0]), batch_size=1)
        accumulator.reset()
        assert accumulator.accumulated_samples == 0
        with pytest.raises(RuntimeError):
            accumulator.average()

    def test_validation(self):
        with pytest.raises(ValueError):
            GradientAccumulator(1, target_batch_size=0)
        accumulator = GradientAccumulator(2, target_batch_size=1)
        with pytest.raises(ValueError):
            accumulator.add(np.zeros(3), batch_size=1)
        with pytest.raises(ValueError):
            accumulator.add(np.zeros(2), batch_size=0)

    def test_accumulation_equals_union_batch_gradient(self):
        """Core invariant: accumulated average == one big-batch gradient."""
        rng = np.random.default_rng(0)
        features, labels = make_classification_data(rng, num_samples=64)
        model = MLP(16, [8], 4, rng=np.random.default_rng(1))
        accumulator = GradientAccumulator(model.state_vector().size, 64)
        for start in range(0, 64, 16):
            grad, __ = compute_gradient(
                model, features[start:start + 16], labels[start:start + 16]
            )
            accumulator.add(grad, 16)
        union_grad, __ = compute_gradient(model, features, labels)
        np.testing.assert_allclose(accumulator.average(), union_grad,
                                   rtol=1e-10, atol=1e-12)


class TestLocalTrainer:
    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        features, labels = make_classification_data(rng, num_samples=256)
        model = MLP(16, [32], 4, rng=np.random.default_rng(1))
        trainer = LocalTrainer(
            model, SGD(model.parameters(), lr=0.2), target_batch_size=64,
            microbatch_size=16,
        )
        log = trainer.train_steps(features, labels, num_steps=30,
                                  rng=np.random.default_rng(2))
        early = np.mean(log.losses[:5])
        late = np.mean(log.losses[-5:])
        assert late < early * 0.7
        assert log.samples_seen == 30 * 64

    def _final_loss(self, optimizer_cls, batch, lr, steps=8):
        rng = np.random.default_rng(0)
        features, labels = make_classification_data(rng, num_samples=1024)
        model = MLP(16, [32], 4, rng=np.random.default_rng(1))
        trainer = LocalTrainer(
            model, optimizer_cls(model.parameters(), lr=lr),
            target_batch_size=batch, microbatch_size=min(batch, 128),
        )
        trainer.train_steps(features, labels, num_steps=steps,
                            rng=np.random.default_rng(2))
        # Evaluate the final model on the full data.
        return cross_entropy(model(Tensor(features)), labels).item()

    def test_lamb_handles_big_batches_better_than_sgd(self):
        """The paper's premise (Section 3): LAMB makes 8K-64K batches
        trainable. At a fixed step budget with a large batch, LAMB's
        trust-ratio scaling beats plain SGD at the same base LR."""
        sgd_loss = self._final_loss(SGD, batch=1024, lr=0.2)
        lamb_loss = self._final_loss(
            lambda p, lr: LAMB(p, lr=0.05, weight_decay=0.0),
            batch=1024, lr=0.05,
        )
        assert lamb_loss < sgd_loss

    def test_trainer_validation(self):
        model = MLP(4, [], 2)
        with pytest.raises(ValueError):
            LocalTrainer(model, SGD(model.parameters(), lr=0.1),
                         target_batch_size=8, microbatch_size=0)

    def test_final_loss_requires_steps(self):
        from repro.training import TrainLog

        with pytest.raises(RuntimeError):
            TrainLog().final_loss
