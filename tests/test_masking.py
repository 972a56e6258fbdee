"""Mask construction and the straight-through score gradient.

The builder is checked against an exhaustive subset search on small
instances, the surrogate gradient against a loop transcription of its
definition and against finite differences of a real loss.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cascadeprune.autodiff as ad
from cascadeprune.masking import (FilterMask, ImportanceScores, MaskError,
                                  PruneConfig, build_mask, keep_count,
                                  surrogate_gamma_grad)
import oracles


def as_sets(mask: FilterMask):
    return {(lid, i) for lid, v in mask.layers.items() for i in range(v.size) if v[i]}


class TestKeepCount:
    def test_rounds_half_up(self):
        assert keep_count(0.5, 5) == 3
        assert keep_count(0.45, 10) == 5
        assert keep_count(0.25, 6) == 2
        assert keep_count(1.0, 7) == 7

    def test_small_ratios(self):
        assert keep_count(0.04, 10) == 0
        assert keep_count(0.05, 10) == 1


class TestBuildMask:
    def test_floor_repair_walkthrough(self):
        """Two layers of two filters, keep half, floor one per layer.
        Plain top-2 would keep both filters of the strong layer; the
        repair enables the weak layer's best filter and drops the strong
        layer's weakest, keeping the total at two."""
        scores = ImportanceScores({0: [0.9, 0.8], 1: [0.1, 0.05]})
        mask = build_mask(scores, PruneConfig(keep_ratio=0.5, min_filters=1))
        np.testing.assert_array_equal(mask.layers[0], [True, False])
        np.testing.assert_array_equal(mask.layers[1], [True, False])
        assert mask.kept_total() == 2

    def test_no_repair_when_floor_satisfied(self):
        scores = ImportanceScores({0: [0.9, 0.1], 1: [0.8, 0.2]})
        mask = build_mask(scores, PruneConfig(keep_ratio=0.5, min_filters=1))
        np.testing.assert_array_equal(mask.layers[0], [True, False])
        np.testing.assert_array_equal(mask.layers[1], [True, False])

    def test_keep_all(self):
        scores = ImportanceScores({0: [0.5, 0.1], 3: [0.2]})
        mask = build_mask(scores, PruneConfig(keep_ratio=1.0))
        assert mask.kept_total() == 3

    def test_ties_broken_by_layer_then_index(self):
        """Equal scores: earlier layer and lower index win the slots."""
        scores = ImportanceScores({0: [1.0, 1.0], 1: [1.0, 1.0]})
        mask = build_mask(scores, PruneConfig(keep_ratio=0.5, min_filters=0))
        np.testing.assert_array_equal(mask.layers[0], [True, True])
        np.testing.assert_array_equal(mask.layers[1], [False, False])

    def test_ranking_matches_a_sort_on_the_documented_key(self):
        """Before floor repair, the kept set is the first keep_count
        filters of a sort by (-score, layer id, index): checked on
        scores drawn from a few levels (many ties, -0.0 beside +0.0),
        layers listed out of id order, with no floor to repair."""
        rng = np.random.default_rng(5)
        levels = np.array([-1.0, -0.0, 0.0, 0.5, 0.5 + 1e-12, 2.0])
        for trial in range(40):
            ids = rng.permutation(6)[:int(rng.integers(1, 6))]
            raw = {int(lid): rng.choice(levels, int(rng.integers(1, 9)))
                   for lid in ids}
            total = sum(v.size for v in raw.values())
            n_keep = int(rng.integers(1, total + 1))
            ranked = sorted(((lid, i) for lid, v in raw.items()
                             for i in range(v.size)),
                            key=lambda e: (-raw[e[0]][e[1]], e[0], e[1]))
            want = set(ranked[:n_keep])
            got = build_mask(ImportanceScores(raw),
                             PruneConfig(keep_ratio=min((n_keep + 0.25) / total, 1.0),
                                         min_filters=0))
            assert as_sets(got) == want, f"trial {trial}"

    def test_infeasible_floor_rejected(self):
        scores = ImportanceScores({0: [1.0, 0.5], 1: [0.9, 0.4]})
        with pytest.raises(MaskError):
            build_mask(scores, PruneConfig(keep_ratio=0.25, min_filters=1))

    def test_matches_exhaustive_search(self):
        """On 60 random small instances with distinct scores, the greedy
        build picks exactly the feasible keep-set of maximum total score."""
        rng = np.random.default_rng(77)
        for trial in range(60):
            n_layers = int(rng.integers(2, 4))
            sizes = [int(rng.integers(1, 5)) for _ in range(n_layers)]
            raw = {lid: rng.permutation(100)[:sz] / 100.0 + lid * 1e-4
                   for lid, sz in enumerate(sizes)}
            total = sum(sizes)
            min_f = int(rng.integers(0, 2))
            feasible_min = sum(min(min_f, s) for s in sizes)
            n_keep = int(rng.integers(max(feasible_min, 1), total + 1))
            ratio = n_keep / total
            if keep_count(ratio, total) != n_keep:
                ratio += 1e-9
            assert keep_count(ratio, total) == n_keep
            got = build_mask(ImportanceScores(raw),
                             PruneConfig(keep_ratio=ratio, min_filters=min_f))
            want = oracles.best_mask_exhaustive(
                {k: list(v) for k, v in raw.items()}, n_keep, min_f)
            assert as_sets(got) == want, f"trial {trial}"

    def test_cascaded_repair(self):
        """Three layers where fixing one floor violation drains another
        layer close to its own floor; the loop must settle with every
        floor honored and the global count intact."""
        scores = ImportanceScores({
            0: [0.9, 0.85, 0.8],
            1: [0.7, 0.65],
            2: [0.01, 0.02],
        })
        mask = build_mask(scores, PruneConfig(keep_ratio=4 / 7, min_filters=1))
        kept = mask.kept_per_layer()
        assert mask.kept_total() == 4
        assert all(v >= 1 for v in kept.values())
        # layer 2's best disabled filter is index 1 (0.02 > 0.01)
        np.testing.assert_array_equal(mask.layers[2], [False, True])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_invariants_hold_for_random_instances(self, data):
        """Kept count equals the rounded target, floors are honored, and
        rebuilding from the same scores is bit-identical."""
        n_layers = data.draw(st.integers(1, 4))
        sizes = [data.draw(st.integers(1, 6)) for _ in range(n_layers)]
        flat = data.draw(st.lists(
            st.floats(0.0, 1.0, allow_nan=False, width=32),
            min_size=sum(sizes), max_size=sum(sizes)))
        raw, pos = {}, 0
        for lid, sz in enumerate(sizes):
            raw[lid] = np.array(flat[pos:pos + sz])
            pos += sz
        min_f = data.draw(st.integers(0, 2))
        total = sum(sizes)
        feasible_min = sum(min(min_f, s) for s in sizes)
        n_keep = data.draw(st.integers(feasible_min, total))
        ratio = (n_keep + 0.25) / total  # rounds to exactly n_keep
        if ratio > 1.0 or keep_count(ratio, total) != n_keep:
            return
        cfg = PruneConfig(keep_ratio=ratio, min_filters=min_f)
        scores = ImportanceScores(raw)
        mask = build_mask(scores, cfg)
        assert mask.kept_total() == n_keep
        for lid, v in mask.layers.items():
            assert v.sum() >= min(min_f, v.size)
        again = build_mask(scores, cfg)
        assert mask == again


class TestMaskContainers:
    def test_hamming_counts_flipped_bits(self):
        a = FilterMask({0: [True, False, True], 1: [False]})
        b = FilterMask({0: [True, True, False], 1: [False]})
        assert a.hamming(b) == 2
        assert a.hamming(a) == 0

    def test_hamming_rejects_different_layer_sets(self):
        a = FilterMask({0: [True]})
        b = FilterMask({1: [True]})
        with pytest.raises(MaskError):
            a.hamming(b)

    def test_scores_from_weights_unit_mean_l1(self):
        """Filter 1's kernel has twice the absolute mass of filter 0, so
        after mean-normalization the scores are 2/3 and 4/3."""
        w = np.zeros((1, 1, 1, 2))
        w[0, 0, 0, 0] = 1.0
        w[0, 0, 0, 1] = -2.0
        s = ImportanceScores.from_weights({5: w})
        np.testing.assert_allclose(s.layers[5], [2 / 3, 4 / 3])
        np.testing.assert_allclose(s.layers[5].mean(), 1.0)

    def test_scores_reject_bad_shapes(self):
        with pytest.raises(MaskError):
            ImportanceScores({0: np.zeros((2, 2))})
        with pytest.raises(MaskError):
            ImportanceScores.from_weights({0: np.zeros((3, 3, 4))})

    def test_prune_config_validation(self):
        with pytest.raises(MaskError):
            PruneConfig(keep_ratio=0.0)
        with pytest.raises(MaskError):
            PruneConfig(keep_ratio=1.2)
        with pytest.raises(MaskError):
            PruneConfig(keep_ratio=0.5, min_filters=-1)


def masked_conv_grads(x, w, mask, g, stride=1, padding="same"):
    """Output, input gradient, weight gradient and kept kernel gradient of
    ad.masked_conv2d for the output gradient g."""
    x_t = ad.Tensor(x, requires_grad=True)
    w_t = ad.Tensor(w, requires_grad=True)
    out, kernel_grad = ad.masked_conv2d(x_t, w_t, mask, stride, padding)
    ad.backward(ad.tensor_sum(ad.mul_const(out, g)))
    return out.data, x_t.grad, w_t.grad, kernel_grad.value


def conv_then_mask_grads(x, w, mask, g, stride=1, padding="same"):
    """The same four arrays from the composition the op replaces: conv2d,
    then a numpy multiply by the 0/1 mask (forward and backward)."""
    x_t = ad.Tensor(x, requires_grad=True)
    w_t = ad.Tensor(w, requires_grad=True)
    raw = ad.conv2d(x_t, w_t, stride, padding)
    s = mask.astype(x.dtype).reshape(1, -1, 1, 1)
    ad.backward(ad.tensor_sum(ad.mul_const(raw, g * s)))
    kernel_grad = ad.conv2d_kernel_grad(x, g, w.shape, stride, padding)
    return raw.data * s, x_t.grad, w_t.grad, kernel_grad


class TestMaskedConv:
    MASKS = {"all-ones": [1, 1, 1, 1, 1], "all-zeros": [0, 0, 0, 0, 0],
             "mixed": [1, 0, 1, 1, 0]}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"),
                                                (1, "valid"), (2, "valid")])
    @pytest.mark.parametrize("mask", sorted(MASKS))
    def test_bitwise_the_conv_then_mask_composition(self, mask, stride,
                                                    padding, dtype):
        """Output, input gradient and weight gradient are bitwise conv2d
        followed by a mask multiply, pruned weight-gradient columns are
        +0.0, and the kept kernel gradient is bitwise the helper's kernel
        gradient of the unmasked output gradient."""
        rng = np.random.default_rng(95)
        mask = np.array(self.MASKS[mask], dtype=bool)
        x = rng.standard_normal((2, 3, 7, 6)).astype(dtype)
        w = rng.standard_normal((3, 3, 3, 5)).astype(dtype)
        ho = ad.conv2d_raw(x, w, stride, padding).shape[2:]
        g = rng.standard_normal((2, 5) + ho).astype(dtype)
        got = masked_conv_grads(x, w, mask, g, stride, padding)
        want = conv_then_mask_grads(x, w, mask, g, stride, padding)
        for name, a, b in zip(("out", "x grad", "w grad", "kernel grad"),
                              got, want):
            assert a.dtype == dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        pruned_cols = got[2][..., ~mask]
        assert np.all(pruned_cols == 0.0) and not np.signbit(pruned_cols).any()
        if mask.all():
            assert np.array_equal(got[2], got[3])

    def test_masked_channels_are_zero_and_kept_match_raw(self):
        rng = np.random.default_rng(90)
        x = ad.Tensor(rng.standard_normal((2, 3, 5, 5)), dtype="f64")
        w = ad.Tensor(rng.standard_normal((3, 3, 3, 4)), dtype="f64",
                      requires_grad=True)
        mask = np.array([True, False, True, False])
        out, kernel_grad = ad.masked_conv2d(x, w, mask)
        raw = ad.conv2d_raw(x.data, w.data)
        np.testing.assert_array_equal(out.data[:, 1], 0.0)
        np.testing.assert_array_equal(out.data[:, 3], 0.0)
        np.testing.assert_array_equal(out.data[:, 0], raw[:, 0])
        np.testing.assert_array_equal(out.data[:, 2], raw[:, 2])
        assert out.op == "masked_conv2d" and kernel_grad.value is None

    def test_finite_differences(self):
        """Both operand gradients of the op match central differences
        under a mixed mask, strided and padded."""
        rng = np.random.default_rng(96)
        x0 = rng.standard_normal((2, 2, 5, 5))
        w0 = rng.standard_normal((3, 3, 2, 3))
        mask = np.array([True, False, True])

        def loss(x_t, w_t):
            out, _ = ad.masked_conv2d(x_t, w_t, mask, stride=2)
            return ad.tensor_sum(ad.square(out))

        x_t = ad.Tensor(x0, dtype="f64", requires_grad=True)
        w_t = ad.Tensor(w0, dtype="f64", requires_grad=True)
        ad.backward(loss(x_t, w_t))
        fx = oracles.fd_grad(lambda a: float(loss(
            ad.Tensor(a, dtype="f64"), ad.Tensor(w0, dtype="f64")).data), x0)
        fw = oracles.fd_grad(lambda a: float(loss(
            ad.Tensor(x0, dtype="f64"), ad.Tensor(a, dtype="f64")).data), w0)
        assert oracles.rel_err(x_t.grad, fx) < 1e-6
        assert oracles.rel_err(w_t.grad, fw) < 1e-6

    def test_mask_length_checked(self):
        x = ad.Tensor(np.zeros((1, 2, 4, 4)))
        w = ad.Tensor(np.zeros((3, 3, 2, 4)))
        with pytest.raises(ad.ShapeError):
            ad.masked_conv2d(x, w, np.array([True, False]))


class TestSurrogateGradient:
    def test_matches_loop_definition_exactly(self):
        rng = np.random.default_rng(91)
        x = oracles.int_tensor(rng, (2, 2, 5, 5))
        w = oracles.int_tensor(rng, (3, 3, 2, 3))
        dY = oracles.int_tensor(rng, (2, 3, 5, 5))
        got = surrogate_gamma_grad(dY, x, w)
        want = oracles.surrogate_loops(dY, x, w)
        assert np.array_equal(got, want)

    def test_matches_loop_definition_strided(self):
        rng = np.random.default_rng(92)
        x = oracles.int_tensor(rng, (1, 2, 7, 7))
        dY = oracles.int_tensor(rng, (1, 2, 3, 3))
        w = oracles.int_tensor(rng, (3, 3, 2, 2))
        got = surrogate_gamma_grad(dY, x, w, stride=2, padding="valid")
        assert np.array_equal(got, oracles.surrogate_loops(dY, x, w, 2, "valid"))

    def test_equals_finite_difference_of_channel_multiplier(self):
        """Insert a continuous gamma where the mask sits and perturb it:
        the surrogate must match d loss / d gamma at the working point,
        including channels whose gamma is exactly zero."""
        rng = np.random.default_rng(93)
        x = rng.standard_normal((2, 2, 4, 4))
        w = rng.standard_normal((3, 3, 2, 3))
        labels = np.eye(3)[[0, 2]]
        gamma0 = np.array([1.0, 0.0, 0.7])

        def loss_at(gamma):
            pre = ad.conv2d(ad.Tensor(x, dtype="f64"), ad.Tensor(w, dtype="f64"))
            y = ad.mul_const(pre, gamma[None, :, None, None])
            logits = ad.global_avg_pool(y)
            return ad.softmax_cross_entropy(logits, labels)

        # upstream gradient dL/dY at gamma0, via the engine
        pre = ad.conv2d(ad.Tensor(x, dtype="f64"),
                        ad.Tensor(w, dtype="f64", requires_grad=True))
        y = ad.mul_const(pre, gamma0[None, :, None, None]).retain_grad()
        ad.backward(ad.softmax_cross_entropy(ad.global_avg_pool(y), labels))
        got = surrogate_gamma_grad(y.grad, x, w)

        want = oracles.fd_grad(lambda g: float(loss_at(g).data), gamma0)
        assert oracles.rel_err(got, want) < 1e-4
        assert abs(got[1]) > 1e-6  # the disabled channel still gets signal

    def test_rejects_mismatched_upstream_shape(self):
        with pytest.raises(ad.ShapeError):
            surrogate_gamma_grad(np.zeros((1, 2, 3, 3)), np.zeros((1, 1, 4, 4)),
                                 np.zeros((3, 3, 1, 2)))
