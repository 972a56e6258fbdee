"""Optimizer and schedule tests.

Expected values are hand-derived from the update formulas (noted inline)
or checked against independent loop transcriptions of those formulas.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cascadeprune.autodiff import Parameter
from cascadeprune.masking import ImportanceScores
from cascadeprune.optim import (
    LRSchedule,
    ScoreOptimizer,
    SGDNesterov,
    lr_at,
    nesterov_update,
    rmsprop_update,
)


class TestSchedule:
    def test_cycle_start_is_base_lr(self):
        sched = LRSchedule(base_lr=0.008, cycle_len_epochs=5, steps_per_epoch=100)
        assert lr_at(sched, 0) == pytest.approx(0.008)

    def test_mid_cycle_is_half_base(self):
        # cos(pi/2) = 0 so the cosine factor is exactly 1/2.
        sched = LRSchedule(base_lr=0.008, cycle_len_epochs=5, steps_per_epoch=100)
        assert lr_at(sched, 250) == pytest.approx(0.004)

    def test_second_cycle_start_is_decayed(self):
        # 0.008 * 0.9 = 0.0072 one cycle in, 0.008 * 0.81 = 0.00648 two in.
        sched = LRSchedule(base_lr=0.008, cycle_len_epochs=5, cycle_decay=0.9,
                           steps_per_epoch=100)
        assert lr_at(sched, 500) == pytest.approx(0.0072)
        assert lr_at(sched, 1000) == pytest.approx(0.00648)

    def test_matches_formula_everywhere(self):
        sched = LRSchedule(base_lr=0.02, cycle_len_epochs=2, cycle_decay=0.7,
                           steps_per_epoch=7)
        T = 14
        for step in range(60):
            expect = 0.02 * 0.7 ** (step // T) \
                * 0.5 * (1 + math.cos(math.pi * (step % T) / T))
            assert lr_at(sched, step) == pytest.approx(expect, rel=1e-12)

    def test_monotone_within_cycle(self):
        sched = LRSchedule(base_lr=0.1, cycle_len_epochs=1, steps_per_epoch=50)
        vals = [lr_at(sched, s) for s in range(50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="base_lr"):
            LRSchedule(base_lr=0.0)
        with pytest.raises(ValueError, match="cycle_decay"):
            LRSchedule(cycle_decay=1.5)
        with pytest.raises(ValueError, match="step"):
            lr_at(LRSchedule(), -1)


class TestNesterov:
    def test_hand_computed_two_steps(self):
        # v=0, theta=1, g=0.5, lr=0.1, mu=0.9:
        #   step 1: v=0.5, theta = 1 - 0.1*(0.5 + 0.45) = 0.905
        #   step 2: v=0.95, theta = 0.905 - 0.1*(0.5 + 0.855) = 0.7695
        theta = np.array([1.0])
        buf = np.zeros(1)
        g = np.array([0.5])
        theta = nesterov_update(theta, g, buf, lr=0.1, momentum=0.9)
        assert theta[0] == pytest.approx(0.905)
        theta = nesterov_update(theta, g, buf, lr=0.1, momentum=0.9)
        assert theta[0] == pytest.approx(0.7695)

    def test_zero_momentum_is_plain_sgd(self):
        theta = np.array([2.0, -1.0])
        buf = np.zeros(2)
        g = np.array([0.5, -0.25])
        out = nesterov_update(theta, g, buf, lr=0.2, momentum=0.0)
        assert np.allclose(out, theta - 0.2 * g)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        theta = rng.normal(size=5)
        buf = np.zeros(5)
        ref_theta = theta.copy()
        ref_v = np.zeros(5)
        for _ in range(20):
            g = rng.normal(size=5)
            theta = nesterov_update(theta, g, buf, lr=0.05, momentum=0.9)
            ref_v = 0.9 * ref_v + g
            ref_theta = ref_theta - 0.05 * (g + 0.9 * ref_v)
        assert np.allclose(theta, ref_theta, rtol=1e-12)

    def test_parameter_step_with_decay(self):
        p = Parameter("w", np.array([2.0], dtype=np.float64), dtype="f64")
        q = Parameter("gamma", np.array([2.0], dtype=np.float64), dtype="f64",
                      decay_exempt=True)
        for t in (p, q):
            t.value.grad = np.array([1.0])
        opt = SGDNesterov([p, q], momentum=0.0, weight_decay=0.1)
        opt.step(lr=0.5)
        # decaying: g_eff = 1 + 0.1*2 = 1.2 -> 2 - 0.6 = 1.4
        # exempt:   g_eff = 1           -> 2 - 0.5 = 1.5
        assert p.data[0] == pytest.approx(1.4)
        assert q.data[0] == pytest.approx(1.5)

    @staticmethod
    def formula_step(value, grad, buf, lr, momentum, weight_decay):
        """SGDNesterov.step on one array, transcribed from the formulas
        with a temporary per operation; mutates buf."""
        dt = value.dtype.type
        g = grad.copy()
        if weight_decay:
            g += dt(weight_decay) * value
        buf *= dt(momentum)
        buf += g
        return value - dt(lr) * (g + dt(momentum) * buf)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("weight_decay", [0.0, 4e-4])
    def test_step_is_bitwise_the_formula(self, dtype, weight_decay):
        """Three steps on a kernel and a decay-exempt vector give the
        bytes of the formula with a temporary per operation, values and
        momentum buffers alike."""
        rng = np.random.default_rng(5)
        dt = np.float32 if dtype == "f32" else np.float64
        params = [Parameter("w", rng.standard_normal((3, 3, 8, 16)).astype(dt),
                            dtype=dtype),
                  Parameter("gamma", rng.standard_normal(16).astype(dt),
                            dtype=dtype, decay_exempt=True)]
        opt = SGDNesterov(params, momentum=0.9, weight_decay=weight_decay)
        ref = {p.name: (p.data.copy(), np.zeros_like(p.data)) for p in params}
        for step in range(3):
            lr = 0.05 / (step + 1)
            for p in params:
                g = rng.standard_normal(p.shape).astype(dt)
                value, buf = ref[p.name]
                decay = 0.0 if p.decay_exempt else weight_decay
                ref[p.name] = (self.formula_step(value, g, buf, lr, 0.9, decay),
                               buf)
                p.value.grad = g
            opt.step(lr)
            for p in params:
                value, buf = ref[p.name]
                assert p.data.dtype == dt
                assert p.data.tobytes() == value.tobytes(), (step, p.name)
                assert opt.buffers[id(p)].tobytes() == buf.tobytes()

    def test_step_builds_the_update_in_one_scratch_array(self):
        """A decaying step holds two kernel-sized arrays at a time: the
        gradient's copy, and the decay term or the one scratch array that
        becomes the new value. Its peak stays below 2.25 times the
        kernel's bytes, where a temporary per operation takes three."""
        rng = np.random.default_rng(6)
        p = Parameter("w", rng.standard_normal((3, 3, 64, 128)).astype(
            np.float32))
        p.value.grad = rng.standard_normal(p.shape).astype(np.float32)
        opt = SGDNesterov([p], momentum=0.9, weight_decay=4e-4)
        tracemalloc.start()
        try:
            opt.step(0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * p.data.nbytes, peak / p.data.nbytes

    def test_step_adds_the_decay_into_the_owned_gradient(self):
        """The decay term goes into the gradient the parameter owns, so a
        decaying step holds one kernel-sized array at a time: the decay
        term, then the scratch array that becomes the new value. Its
        peak stays below 1.25 times the kernel's bytes, where adding
        the decay into a copy of the gradient takes two."""
        rng = np.random.default_rng(6)
        p = Parameter("w", rng.standard_normal((3, 3, 64, 128)).astype(
            np.float32))
        p.value.grad = rng.standard_normal(p.shape).astype(np.float32)
        opt = SGDNesterov([p], momentum=0.9, weight_decay=4e-4)
        tracemalloc.start()
        try:
            opt.step(0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * p.data.nbytes, peak / p.data.nbytes

    def test_frozen_parameter_untouched(self):
        p = Parameter("w", np.array([3.0]), dtype="f64", trainable=False)
        p.value.grad = np.array([1.0])
        opt = SGDNesterov([p])
        opt.step(lr=1.0)
        assert p.data[0] == 3.0

    def test_none_grad_is_noop(self):
        p = Parameter("w", np.array([3.0]), dtype="f64")
        opt = SGDNesterov([p], weight_decay=0.0)
        opt.step(lr=1.0)
        assert p.data[0] == 3.0

    def test_zero_grad_clears(self):
        p = Parameter("w", np.array([3.0]), dtype="f64")
        p.value.grad = np.array([5.0])
        SGDNesterov([p]).zero_grad()
        assert np.all(p.grad == 0.0)

    def test_state_roundtrip(self):
        p = Parameter("w", np.array([1.0]), dtype="f64")
        p.value.grad = np.array([1.0])
        opt = SGDNesterov([p], weight_decay=0.0)
        opt.step(lr=0.1)
        saved = {k: v.copy() for k, v in opt.state_tensors().items()}
        assert saved == {"opt.w.momentum": pytest.approx(np.array([1.0]))}
        fresh = SGDNesterov([p], weight_decay=0.0)
        for k, v in fresh.state_tensors().items():
            v[...] = saved[k]  # the live buffers, as a load writes them
        assert np.array_equal(fresh.buffers[id(p)], opt.buffers[id(p)])


class TestRMSProp:
    def test_first_step_formula(self):
        # s = 0.1*g^2; step = lr*g/(sqrt(s)+eps)
        theta = np.array([1.0])
        sq = np.zeros(1)
        g = np.array([2.0])
        out = rmsprop_update(theta, g, sq, lr=0.01, rho=0.9, eps=1e-8)
        expect = 1.0 - 0.01 * 2.0 / (math.sqrt(0.1 * 4.0) + 1e-8)
        assert out[0] == pytest.approx(expect, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=4)
        sq = np.zeros(4)
        ref_theta = theta.copy()
        ref_s = np.zeros(4)
        for _ in range(15):
            g = rng.normal(size=4)
            theta = rmsprop_update(theta, g, sq, lr=0.01, rho=0.9, eps=1e-8)
            ref_s = 0.9 * ref_s + 0.1 * g * g
            ref_theta = ref_theta - 0.01 * g / (np.sqrt(ref_s) + 1e-8)
        assert np.allclose(theta, ref_theta, rtol=1e-12)

    def test_constant_grad_saturates_to_sign_step(self):
        # With constant g the running square tends to g^2, so the step
        # tends to lr * g / |g| = lr * sign(g), independent of |g|.
        for gval in (0.003, 5.0):
            theta = np.array([0.0])
            sq = np.zeros(1)
            g = np.array([gval])
            for _ in range(400):
                prev = theta.copy()
                theta = rmsprop_update(theta, g, sq, lr=0.01, rho=0.9, eps=1e-8)
            assert (prev - theta)[0] == pytest.approx(0.01, rel=1e-3)


class TestScoreOptimizer:
    def _scores(self):
        return ImportanceScores({0: np.array([1.0, 2.0]), 1: np.array([3.0])})

    def test_sgd_step(self):
        s = self._scores()
        opt = ScoreOptimizer({0: s}, "sgd")
        opt.step({0: s}, {0: {0: np.array([0.5, -0.5]), 1: np.array([1.0])}},
                 lr=0.1)
        assert np.allclose(s.layers[0], [0.95, 2.05])
        assert np.allclose(s.layers[1], [2.9])

    def test_sgd_untouched_layers_keep_values(self):
        s = self._scores()
        ScoreOptimizer({0: s}, "sgd").step({0: s}, {0: {1: np.array([1.0])}}, lr=0.1)
        assert np.allclose(s.layers[0], [1.0, 2.0])

    def test_rmsprop_matches_raw_update(self):
        s = self._scores()
        g = np.array([0.5, -0.5])
        ref = rmsprop_update(s.layers[0].copy(), g, np.zeros(2),
                             lr=0.1, rho=0.9, eps=1e-8)
        ScoreOptimizer({0: s}, "rmsprop").step({0: s}, {0: {0: g}}, lr=0.1)
        assert np.allclose(s.layers[0], ref, rtol=1e-12)

    def test_rmsprop_state_roundtrip(self):
        """The running squares exist, at zero, for every layer of every
        slot from the start, and a step moves only those it reaches."""
        s = self._scores()
        opt = ScoreOptimizer({2: s}, "rmsprop")
        assert {k: v.tolist() for k, v in opt.state_tensors().items()} \
            == {"scoreopt.slot2.layer0.sq": [0.0, 0.0],
                "scoreopt.slot2.layer1.sq": [0.0]}
        opt.step({2: s}, {2: {0: np.array([1.0, -1.0])}}, lr=0.1)
        saved = {k: v.copy() for k, v in opt.state_tensors().items()}
        assert set(saved) == {"scoreopt.slot2.layer0.sq",
                              "scoreopt.slot2.layer1.sq"}
        assert np.array_equal(saved["scoreopt.slot2.layer1.sq"], [0.0])
        fresh = ScoreOptimizer({2: self._scores()}, "rmsprop")
        for k, v in fresh.state_tensors().items():
            v[...] = saved[k]  # the live arrays, as a load writes them
        assert np.array_equal(fresh.sq[(2, 0)], opt.sq[(2, 0)])
        assert np.array_equal(fresh.sq[(2, 1)], opt.sq[(2, 1)])

    def test_sgd_keeps_no_state(self):
        assert ScoreOptimizer({0: self._scores()}).state_tensors() == {}

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="rmsprop"):
            ScoreOptimizer({}, "adam")
