"""The weight-shared hierarchy: ratio schedule, construction invariants,
per-slot forward behavior, the eval-pass memo, and the cascaded
score-gradient routing.
"""

import contextlib
import gc
import importlib.util
import os
import weakref

import numpy as np
import pytest

import cascadeprune.autodiff as ad
from cascadeprune.arch import count_stats, load_arch, parse_arch
from cascadeprune.cli import resolve_arch
from cascadeprune.data import synthetic_dataset
from cascadeprune.distill import slot_loss, DistillConfig
from cascadeprune.hierarchy import (HierarchyError, ModelHierarchy,
                                    derive_ta_keep_ratios)
from cascadeprune.masking import (FilterMask, PruneConfig, build_mask,
                                  surrogate_gamma_grad)
from cascadeprune.optim import SGDNesterov
from cascadeprune.training import TrainConfig, Trainer
import oracles


TOY = """
input c=1 h=8 w=8
conv k=3 in=1 out=4 maskable=false
bn
relu
conv k=3 in=4 out=6
bn
relu
pool kind=max k=2 stride=2
conv k=3 in=6 out=6
bn
relu
pool kind=gap
classifier in=6 out=3
"""


def toy_hierarchy(ratios=(0.5, 0.75, 1.0), seed=0, dtype="f32"):
    return ModelHierarchy(parse_arch(TOY, name="toy"), ratios, seed=seed,
                          dtype=dtype)


def batch(seed=0, n=4):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 1, 8, 8))
    labels = np.eye(3)[rng.integers(0, 3, n)]
    return x, labels


class TestRatioSchedule:
    def test_published_divisor_formula(self):
        got = derive_ta_keep_ratios(0.3, [1.5, 2.5])
        np.testing.assert_allclose(got, [0.3, 1 - 0.7 / 1.5, 0.72, 1.0])

    def test_no_divisors(self):
        assert derive_ta_keep_ratios(0.3, []) == [0.3, 1.0]

    def test_near_one_student_stays_increasing(self):
        got = derive_ta_keep_ratios(0.999, [1.5, 2.5])
        assert all(a < b for a, b in zip(got, got[1:]))
        assert got[-1] == 1.0

    def test_bad_divisor_order_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            derive_ta_keep_ratios(0.3, [2.5, 1.5])

    def test_r0_out_of_range(self):
        for r0 in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                derive_ta_keep_ratios(r0, [1.5])


class TestConstruction:
    def test_slot_layout(self):
        h = toy_hierarchy()
        assert len(h.slots) == 3
        assert h.top.scores is None
        assert all(bool(v.all()) for v in h.top.state.mask.layers.values())
        # 12 filters total across the two maskable convs
        assert h.slots[0].state.mask.kept_total() == 6
        assert h.slots[1].state.mask.kept_total() == 9

    def test_initial_masks_nest(self):
        """All slots start from the same kernel-magnitude scores, so the
        student's kept set sits inside each assistant's."""
        h = toy_hierarchy()
        for lid in h.arch.maskable_sizes:
            m0 = h.slots[0].state.mask.layers[lid]
            m1 = h.slots[1].state.mask.layers[lid]
            assert not np.any(m0 & ~m1)

    def test_ratio_validation(self):
        archspec = parse_arch(TOY, name="toy")
        with pytest.raises(HierarchyError):
            ModelHierarchy(archspec, [0.8, 0.5, 1.0])
        with pytest.raises(HierarchyError):
            ModelHierarchy(archspec, [0.5, 0.8])
        with pytest.raises(HierarchyError):
            ModelHierarchy(archspec, [1.0])

    def test_equal_ratios_allowed(self):
        """The degenerate two-slot all-kept hierarchy is how a plain
        supervised baseline is expressed, so it must build."""
        h = ModelHierarchy(parse_arch(TOY, name="toy"), [1.0, 1.0])
        assert h.slots[0].state.mask.kept_total() == 12

    def test_masked_stem_rejected(self):
        bad = parse_arch("input c=1 h=4 w=4\nconv k=3 in=1 out=4\n"
                         "pool kind=gap\nclassifier in=4 out=2\n")
        with pytest.raises(HierarchyError, match="stem"):
            ModelHierarchy(bad, [0.5, 1.0])

    def test_conv_kernels_are_shared_objects(self):
        h = toy_hierarchy()
        x, _ = batch()
        h.shared["conv1"].assign(np.zeros_like(h.shared["conv1"].data))
        fws = h.forward_all(x, mode="eval")
        for fw in fws:
            assert np.all(fw.contexts[0].out.data == 0.0)


class TestForward:
    def test_identical_state_identical_logits(self):
        """Two all-ones slots whose private state is made equal must
        produce bitwise-equal logits."""
        h = ModelHierarchy(parse_arch(TOY, name="toy"), [1.0, 1.0], seed=3)
        src, dst = h.slots[1].state, h.slots[0].state
        dst.stem.assign(src.stem.data.copy())
        for a, b in zip(dst.dense, src.dense):
            a.assign(b.data.copy())
        for a, b in zip(dst.bns, src.bns):
            a.gamma.assign(b.gamma.data.copy())
            a.beta.assign(b.beta.data.copy())
            a.running_mean = b.running_mean.copy()
            a.running_var = b.running_var.copy()
        x, _ = batch(1)
        f0, f1 = h.forward_all(x, mode="eval")
        assert np.array_equal(f0.logits.data, f1.logits.data)

    def test_masked_channels_are_zero(self):
        h = toy_hierarchy()
        x, _ = batch(2)
        fws = h.forward_all(x, mode="eval")
        for slot, fw in zip(h.slots, fws):
            for lid, ctx in fw.contexts.items():
                dead = ~slot.state.mask.layers[lid]
                assert np.all(ctx.out.data[:, dead] == 0.0)
                kept = slot.state.mask.layers[lid]
                raw = ad.conv2d_raw(ctx.x.data, ctx.weight.data, ctx.stride,
                                    ctx.padding)
                assert np.array_equal(ctx.out.data[:, kept], raw[:, kept])

    def test_eval_forward_is_repeatable(self):
        h = toy_hierarchy()
        x, _ = batch(3)
        a = h.forward_all(x, mode="eval")
        b = h.forward_all(x, mode="eval")
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.logits.data, fb.logits.data)

    def test_single_slot_forward_leaves_other_slots_alone(self):
        h = toy_hierarchy()
        x, _ = batch(4)
        before = {j: [(bn.running_mean.copy(), bn.running_var.copy())
                      for bn in h.slots[j].state.bns] for j in (1, 2)}
        h.forward_slot(0, x, mode="train")
        for j in (1, 2):
            for bn, (rm, rv) in zip(h.slots[j].state.bns, before[j]):
                assert np.array_equal(bn.running_mean, rm)
                assert np.array_equal(bn.running_var, rv)

    def test_train_mode_moves_bn_stats(self):
        h = toy_hierarchy()
        x, _ = batch(5)
        rm0 = h.slots[0].state.bns[0].running_mean.copy()
        h.forward_slot(0, x, mode="train")
        assert not np.array_equal(h.slots[0].state.bns[0].running_mean, rm0)

    def test_hint_tap_after_activation(self):
        """The tap for a top-level conv id is the activation after its
        bn/relu pair: non-negative, correct width."""
        h = toy_hierarchy()
        x, _ = batch(6)
        fw = h.forward_slot(2, x, mode="eval", hint_ids=(1,))
        assert set(fw.hint_maps) == {"tap1"}
        m = fw.hint_maps["tap1"].data
        assert m.shape[1] == 6 and np.all(m >= 0.0)

    def test_block_hint_taps_block_output(self):
        text = ("input c=1 h=8 w=8\n"
                "conv k=3 in=1 out=4 maskable=false\nbn\nrelu\n"
                "block proj=true\n"
                "  conv k=3 in=4 out=6\n  bn\n"
                "pool kind=gap\nclassifier in=6 out=2\n")
        h = ModelHierarchy(parse_arch(text), [0.5, 1.0])
        x, _ = batch(7)
        fw = h.forward_slot(1, x, mode="eval", hint_ids=(0,))
        (tap,) = fw.hint_maps.values()
        assert tap.shape == (4, 6, 8, 8)
        assert np.all(tap.data >= 0.0)  # post-residual relu

    def test_unknown_hint_id_rejected(self):
        h = toy_hierarchy()
        with pytest.raises(HierarchyError, match="hint"):
            h.forward_slot(0, batch()[0], hint_ids=(99,))

    def test_valid_depthwise_padding_runs(self):
        text = ("input c=2 h=6 w=6\n"
                "conv k=3 in=2 out=4 maskable=false\nbn\nrelu\n"
                "dwconv k=3 pad=valid\nbn\nrelu\n"
                "classifier in=64 out=2\n")
        h = ModelHierarchy(parse_arch(text), [0.5, 1.0])
        x = np.random.default_rng(9).random((1, 2, 6, 6))
        assert h.forward_slot(0, x).logits.shape == (1, 2)


RESIDUAL_TOY = """
input c=2 h=8 w=8
conv k=3 in=2 out=8 maskable=false
bn
relu
block proj=true
  conv k=3 in=8 out=12 stride=2
  bn
  relu
  conv k=3 in=12 out=12
  bn
block
  conv k=3 in=12 out=12
  bn
dwconv k=3
bn
relu
conv k=1 in=12 out=10
bn
relu
pool kind=gap
classifier in=10 out=3
"""


class TestKeptFilterForward:
    @pytest.mark.parametrize("text", [TOY, RESIDUAL_TOY], ids=["plain", "residual"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_slot0_logits_do_not_depend_on_context(self, text, mode):
        """Without saved contexts the student runs at its kept width on
        the tape; its logits match the full-width context pass within
        f32 rounding."""
        arch = parse_arch(text)
        x = np.random.default_rng(8).random((4, arch.in_c, 8, 8))
        logits = {}
        for want in (True, False):
            h = ModelHierarchy(arch, [0.5, 0.75, 1.0], seed=2)
            fw = h.forward_slot(0, x, mode=mode, want_context=want)
            assert bool(fw.contexts) == want
            assert fw.logits.requires_grad
            logits[want] = fw.logits.data
        assert not all(v.all() for v in h.student.state.mask.layers.values())
        np.testing.assert_allclose(logits[False], logits[True], rtol=1e-5,
                                   atol=1e-5 * np.abs(logits[True]).max())


DEPTHWISE_TOY = """
input c=2 h=8 w=8
conv k=3 in=2 out=8 maskable=false
bn
relu
conv k=1 in=8 out=12
bn
relu
dwconv k=3 stride=2
bn
relu
conv k=1 in=12 out=10
bn
relu
dwconv k=3 pad=valid
bn
relu
classifier in=40 out=3
"""

TOY_RESIDUAL_ARCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "toy_residual.arch")


def trained_hierarchy(arch, dtype="f32", min_filters=1, steps=3):
    """A hierarchy after a few plain SGD steps on every slot, so that BN
    offsets and running statistics are away from their initial values."""
    h = ModelHierarchy(arch, [0.5, 0.75, 1.0], seed=4, min_filters=min_filters,
                       dtype=dtype)
    rng = np.random.default_rng(11)
    for _ in range(steps):
        x = rng.standard_normal((8, arch.in_c, arch.in_h, arch.in_w))
        labels = np.eye(arch.classes)[rng.integers(0, arch.classes, 8)]
        run_losses_and_backward(h, x, labels, want_context=False)
        for p in h.all_parameters():
            p.assign(p.data - 0.2 * p.grad)
            p.zero_grad()
    return h


def half_pruned_student(h, seed=0, disjoint=True):
    """Slot 0 keeps a random half of every maskable layer. On a residual
    arch with disjoint set, the first projection block's body keeps the
    lower half of its output and its shortcut the upper half, so their
    join is live on every channel while each side is half pruned."""
    rng = np.random.default_rng(seed)
    layers = {lid: rng.permutation(n) < n // 2
              for lid, n in h.arch.maskable_sizes.items()}
    block = next((it for it in h.arch.items
                  if getattr(it, "proj", None) is not None), None)
    if block is None or not disjoint:
        h.student.state.mask = FilterMask(layers)
        return
    last = [b for b in block.body if hasattr(b, "layer_id")][-1]
    half = last.cout // 2
    layers[last.layer_id] = np.arange(last.cout) < half
    layers[block.proj.layer_id] = np.arange(last.cout) >= half
    h.student.state.mask = FilterMask(layers)


def eval_both_ways(h, slot, x, hint_ids=()):
    """The same eval forward at full width (saving contexts, on the tape)
    and at kept width (no contexts, no graph)."""
    ref = h.forward_slot(slot, x, mode="eval", hint_ids=hint_ids,
                         want_context=True)
    with ad.no_grad():
        got = h.forward_slot(slot, x, mode="eval", hint_ids=hint_ids)
    assert ref.logits.requires_grad and not got.logits.requires_grad
    return ref, got


def assert_close(got, want, dtype):
    tol = 1e-5 if dtype == "f32" else 1e-12
    assert got.shape == want.shape and got.dtype == want.dtype
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= tol, f"relative difference {err:.3g}"


NETS = {"plain": lambda: parse_arch(TOY, name="toy"),
        "residual": lambda: load_arch(TOY_RESIDUAL_ARCH),
        "depthwise": lambda: parse_arch(DEPTHWISE_TOY, name="dw")}


class TestKeptWidthEval:
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("net", sorted(NETS))
    def test_logits_match_the_full_width_pass(self, net, dtype):
        """Every slot's kept-width eval logits equal the full-width ones
        to rounding, what pruned channels leak through BN included."""
        arch = NETS[net]()
        h = trained_hierarchy(arch, dtype)
        assert any(np.any(bn.beta.data != 0) for bn in h.student.state.bns)
        x = np.random.default_rng(3).standard_normal(
            (5, arch.in_c, arch.in_h, arch.in_w))
        for slot in range(len(h.slots)):
            ref, got = eval_both_ways(h, slot, x)
            assert_close(got.logits.data, ref.logits.data, dtype)
        # the join's two sides prune disjoint, then overlapping channels
        for disjoint in (True, False):
            half_pruned_student(h, disjoint=disjoint)
            ref, got = eval_both_ways(h, 0, x)
            assert_close(got.logits.data, ref.logits.data, dtype)

    @pytest.mark.parametrize("net", sorted(NETS))
    def test_layer_with_no_kept_filter(self, net):
        arch = NETS[net]()
        h = trained_hierarchy(arch, "f64", min_filters=0)
        half_pruned_student(h)
        layers = dict(h.student.state.mask.layers)
        first = min(layers)
        layers[first] = np.zeros_like(layers[first])
        h.student.state.mask = FilterMask(layers)
        x = np.random.default_rng(4).standard_normal(
            (3, arch.in_c, arch.in_h, arch.in_w))
        ref, got = eval_both_ways(h, 0, x)
        assert_close(got.logits.data, ref.logits.data, "f64")

    @pytest.mark.parametrize("net,hint_ids", [("plain", (0, 1)),
                                              ("residual", (0, 4, 5))])
    def test_hint_maps_come_back_at_full_width(self, net, hint_ids):
        arch = NETS[net]()
        h = trained_hierarchy(arch)
        half_pruned_student(h)
        x = np.random.default_rng(5).standard_normal(
            (4, arch.in_c, arch.in_h, arch.in_w))
        ref, got = eval_both_ways(h, 0, x, hint_ids)
        assert sorted(got.hint_maps) == sorted(ref.hint_maps)
        for k, m in ref.hint_maps.items():
            assert_close(got.hint_maps[k].data, m.data, "f32")

    @pytest.mark.parametrize("net", sorted(NETS))
    def test_unpruned_models_bitwise_unchanged(self, net):
        """The all-ones top slot, and the frozen teacher made from it,
        run the same folded ops bit for bit, and the full-width ones on
        the tape up to rounding."""
        arch = NETS[net]()
        h = trained_hierarchy(arch)
        x = np.random.default_rng(6).standard_normal(
            (4, arch.in_c, arch.in_h, arch.in_w))
        ref, got = eval_both_ways(h, len(h.slots) - 1, x)
        assert_close(got.logits.data, ref.logits.data, "f32")
        h.freeze_teacher()
        assert h.forward_frozen(x).logits.data.tobytes() == got.logits.data.tobytes()

    def test_no_state_is_modified(self):
        arch = NETS["residual"]()
        h = trained_hierarchy(arch)
        half_pruned_student(h)
        before = {k: v.copy() for k, v in h.named_tensors().items()}
        x = np.random.default_rng(7).standard_normal(
            (4, arch.in_c, arch.in_h, arch.in_w))
        with ad.no_grad():
            for slot in range(len(h.slots)):
                h.forward_slot(slot, x, mode="eval", hint_ids=(0,))
        after = h.named_tensors()
        for k, v in before.items():
            assert np.array_equal(after[k], v), k

    @pytest.mark.parametrize("arch_id", ["vgg16_cifar10", "mobilenetv1_cifar100"])
    def test_count_stats_prices_what_runs(self, arch_id, monkeypatch):
        """At batch 2, the student's kept-width pass, an eval one without
        a graph or a train-mode one on the tape, does 2 x count_stats'
        conv and depthwise FLOPs of multiply-accumulates in its batch
        convs; the one-image convs over pruned channels are not counted."""
        arch = resolve_arch(arch_id)
        h = ModelHierarchy(arch, derive_ta_keep_ratios(0.5, [1.5, 2.5]))
        macs = []

        def counting(raw, per_out):
            def run(x, w, *args):
                y = raw(x, w, *args)
                if x.shape[0] == 2:
                    macs.append(y.size * per_out(w))
                return y
            return run

        monkeypatch.setattr(ad, "conv2d_raw", counting(
            ad.conv2d_raw, lambda w: w.shape[0] * w.shape[1] * w.shape[2]))
        monkeypatch.setattr(ad, "depthwise_conv2d_raw", counting(
            ad.depthwise_conv2d_raw, lambda w: w.shape[0] * w.shape[1]))
        x = np.random.default_rng(8).standard_normal(
            (2, arch.in_c, arch.in_h, arch.in_w)).astype(np.float32)
        rows = count_stats(arch, h.student.state.mask).layers
        priced = sum(r.flops for r in rows if len(r.out_shape) == 3)
        assert priced < count_stats(arch).total_flops / 2
        with ad.no_grad():
            h.forward_slot(0, x, mode="eval")
        assert sum(macs) == 2 * priced
        macs.clear()
        assert h.forward_slot(0, x, mode="train").logits.requires_grad
        assert sum(macs) == 2 * priced


def train_both_ways(h, slot, x, labels, hint_ids):
    """One train-mode forward and backward of a slot at full width (saving
    contexts) and at kept width (saving none), each from the same state.
    The loss is cross-entropy plus a random weighting of every hint map.
    Returns, per way, the logits, the hint maps, the gradient of every
    parameter the slot reaches and the slot's BN running statistics."""
    start = {k: v.copy() for k, v in h.named_tensors().items()}
    rng = np.random.default_rng(17)
    weights = {}
    out = {}
    for want in (True, False):
        h.load_named_tensors(start)
        fw = h.forward_slot(slot, x, mode="train", hint_ids=hint_ids,
                            want_context=want)
        assert bool(fw.contexts) == want
        loss = ad.softmax_cross_entropy(fw.logits, labels)
        for k, m in sorted(fw.hint_maps.items()):
            if k not in weights:
                weights[k] = rng.standard_normal(m.shape).astype(m.dtype)
            loss = ad.add(loss, ad.tensor_sum(ad.mul_const(m, weights[k])))
        ad.backward(loss)
        params = h.shared_parameters() + h.slot_parameters(slot)
        out[want] = {
            "logits": fw.logits.data,
            "hints": {k: m.data for k, m in fw.hint_maps.items()},
            "grads": {p.name: p.grad.copy() for p in params},
            "stats": {f"{j}.{name}": getattr(bn, name).copy()
                      for j, bn in enumerate(h.slots[slot].state.bns)
                      for name in ("running_mean", "running_var")},
        }
        for p in h.all_parameters():
            p.zero_grad()
    h.load_named_tensors(start)
    return out[True], out[False]


def assert_close_or_zero(got, want, dtype):
    """assert_close, or exact zeros where want is all zero (a layer that
    keeps no filter, a hint map that relu zeroes)."""
    if np.any(want != 0):
        assert_close(got, want, dtype)
    else:
        assert np.array_equal(got, want)


class TestKeptWidthTrain:
    """A train pass that saves no contexts runs at kept width on the tape
    and must give the full-width context pass's outputs and gradients."""

    @staticmethod
    def check(h, slot, dtype, seed=21):
        arch = h.arch
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, arch.in_c, arch.in_h, arch.in_w))
        labels = np.eye(arch.classes)[rng.integers(0, arch.classes, 6)]
        ref, got = train_both_ways(h, slot, x, labels,
                                   tuple(arch.maskable_sizes))
        assert_close(got["logits"], ref["logits"], dtype)
        assert sorted(got["hints"]) == sorted(ref["hints"]) != []
        for k, m in ref["hints"].items():
            assert_close_or_zero(got["hints"][k], m, dtype)
        assert got["grads"].keys() == ref["grads"].keys()
        for name, g in ref["grads"].items():
            assert_close_or_zero(got["grads"][name], g, dtype)
        for name, v in ref["stats"].items():
            assert_close(got["stats"][name], v, dtype)
        # pruned filter columns get exactly zero gradient
        mask = h.slots[slot].state.mask
        for st in arch.plan:
            if st.op == "conv" and st.layer.maskable:
                g = got["grads"][f"shared.{st.layer.label}.w"]
                assert np.all(g[..., ~mask.layers[st.layer.layer_id]] == 0.0)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("net", sorted(NETS))
    def test_matches_the_full_width_pass(self, net, dtype):
        h = trained_hierarchy(NETS[net](), dtype)
        assert any(np.any(bn.beta.data != 0) for bn in h.student.state.bns)
        for slot in range(len(h.slots)):
            self.check(h, slot, dtype)
        # the join's two sides prune disjoint, then overlapping channels
        for disjoint in (True, False):
            half_pruned_student(h, disjoint=disjoint)
            self.check(h, 0, dtype)

    @pytest.mark.parametrize("net", sorted(NETS))
    def test_layer_with_no_kept_filter(self, net):
        h = trained_hierarchy(NETS[net](), "f64", min_filters=0)
        half_pruned_student(h)
        layers = dict(h.student.state.mask.layers)
        first = min(layers)
        layers[first] = np.zeros_like(layers[first])
        h.student.state.mask = FilterMask(layers)
        self.check(h, 0, "f64")

    @pytest.mark.parametrize("net", sorted(NETS))
    def test_unpruned_models_bitwise_unchanged(self, net):
        """The all-ones top slot runs exactly the full-width ops in train
        mode too: logits, gradients and statistics agree bit for bit."""
        arch = NETS[net]()
        h = trained_hierarchy(arch)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((4, arch.in_c, arch.in_h, arch.in_w))
        labels = np.eye(arch.classes)[rng.integers(0, arch.classes, 4)]
        ref, got = train_both_ways(h, len(h.slots) - 1, x, labels, ())
        assert np.array_equal(got["logits"], ref["logits"])
        for part in ("grads", "stats"):
            for name, v in ref[part].items():
                assert np.array_equal(got[part][name], v), name


def run_losses_and_backward(h, x, labels, slot_scales=None, want_context=True):
    """Plain cross-entropy per slot, optionally scaled, one backward."""
    fws = h.forward_all(x, mode="train", want_context=want_context)
    total = None
    for i, fw in enumerate(fws):
        ce = ad.softmax_cross_entropy(fw.logits, labels)
        if slot_scales is not None:
            ce = ad.scale(ce, slot_scales[i])
        total = ce if total is None else ad.add(total, ce)
    ad.backward(total)
    return fws


class TestGammaRouting:
    def test_gradient_comes_from_next_slot_context(self):
        """Routed slot-i gradients equal the straight-through reduction
        on slot i+1's saved tensors, bit for bit."""
        h = toy_hierarchy(dtype="f64")
        x, labels = batch(8)
        fws = run_losses_and_backward(h, x, labels)
        grads = h.route_gamma_gradients(fws)
        assert set(grads) == {0, 1}
        for i in (0, 1):
            for lid, ctx in fws[i + 1].contexts.items():
                direct = surrogate_gamma_grad(ctx.out.grad, ctx.x.data,
                                              ctx.weight.data, ctx.stride,
                                              ctx.padding)
                assert np.array_equal(grads[i][lid], direct)

    def test_matches_loop_oracle(self):
        h = toy_hierarchy(dtype="f64")
        x, labels = batch(9)
        fws = run_losses_and_backward(h, x, labels)
        grads = h.route_gamma_gradients(fws)
        ctx = fws[1].contexts[0]
        want = oracles.surrogate_loops(ctx.out.grad, ctx.x.data, ctx.weight.data)
        assert oracles.rel_err(grads[0][0], want) < 1e-8

    def test_cross_wiring_is_detectable(self):
        """Feeding slot 2's context where slot 1's belongs changes the
        answer on random data; the routing is not accidentally slot
        agnostic."""
        h = toy_hierarchy(dtype="f64")
        x, labels = batch(10)
        fws = run_losses_and_backward(h, x, labels)
        grads = h.route_gamma_gradients(fws)
        wrong_ctx = fws[2].contexts[0]
        wrong = surrogate_gamma_grad(wrong_ctx.out.grad, wrong_ctx.x.data,
                                     wrong_ctx.weight.data)
        assert not np.array_equal(grads[0][0], wrong)
        assert np.abs(grads[0][0] - wrong).max() > 1e-12

    def test_zero_teacher_loss_zeroes_the_gradient(self):
        h = toy_hierarchy(dtype="f64")
        x, labels = batch(11)
        fws = run_losses_and_backward(h, x, labels, slot_scales=[1.0, 0.0, 1.0])
        grads = h.route_gamma_gradients(fws)
        for lid in grads[0]:
            assert np.all(grads[0][lid] == 0.0)
        for lid in grads[1]:
            assert np.any(grads[1][lid] != 0.0)

    def test_routing_needs_no_slot0_context(self):
        """Slot 0 saving no contexts (so computing only its kept filters)
        leaves every routed gradient bit for bit as with all contexts."""
        x, labels = batch(15)
        grads = {}
        for want in (True, range(1, 3)):
            h = toy_hierarchy(dtype="f64")
            fws = run_losses_and_backward(h, x, labels, want_context=want)
            assert bool(fws[0].contexts) == (want is True)
            assert all(fw.contexts for fw in fws[1:])
            grads[want is True] = h.route_gamma_gradients(fws)
        assert grads[True].keys() == grads[False].keys()
        for i in grads[True]:
            assert grads[True][i].keys() == grads[False][i].keys()
            for lid in grads[True][i]:
                assert np.array_equal(grads[True][i][lid], grads[False][i][lid])

    @pytest.mark.parametrize("text", [TOY, RESIDUAL_TOY, DEPTHWISE_TOY],
                             ids=["plain", "residual", "depthwise"])
    def test_context_pass_saves_full_width_convs(self, text):
        """A context-saving pass of a pruned slot saves one context per
        masked conv, whose input carries the conv's full input width
        although the layer below is pruned, and whose output holds every
        filter with the pruned ones exactly zero."""
        arch = parse_arch(text)
        h = ModelHierarchy(arch, [0.5, 0.75, 1.0], seed=3)
        rng = np.random.default_rng(4)
        h.slots[1].state.mask = FilterMask(
            {lid: rng.permutation(n) < n // 2
             for lid, n in arch.maskable_sizes.items()})
        x = rng.random((3, arch.in_c, arch.in_h, arch.in_w))
        fw = h.forward_slot(1, x, mode="train", want_context=True)
        convs = {st.layer.layer_id: st.layer for st in arch.plan
                 if st.op == "conv" and st.layer.maskable}
        assert set(fw.contexts) == set(convs)
        for lid, ctx in fw.contexts.items():
            mask = h.slots[1].state.mask.layers[lid]
            assert ctx.x.shape[1] == convs[lid].cin
            assert ctx.out.shape[1] == convs[lid].cout
            assert not ctx.out.data[:, ~mask].any()
            assert ctx.out.data[:, mask].any()

    def test_want_context_per_slot(self):
        h = toy_hierarchy()
        x, _ = batch(16)
        fws = h.forward_all(x, mode="train", want_context=[0, 2])
        assert [bool(fw.contexts) for fw in fws] == [True, False, True]
        fws = h.forward_all(x, mode="train", want_context=False)
        assert not any(fw.contexts for fw in fws)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_routing_reads_the_kernel_after_a_weight_step(self, dtype):
        """Routing contracts the kept kernel gradient with each shared
        kernel as it is when routing runs: after Parameter.assign it is
        bitwise the surrogate over the saved input, the retained output
        gradient and the new kernel, not the one the forward ran on."""
        h = toy_hierarchy(dtype=dtype)
        x, labels = batch(17)
        fws = run_losses_and_backward(h, x, labels)
        rng = np.random.default_rng(17)
        for p in h.shared_parameters():
            p.assign(p.data + 0.1 * rng.standard_normal(p.shape))
        grads = h.route_gamma_gradients(fws)
        for i in (0, 1):
            for lid, ctx in fws[i + 1].contexts.items():
                want = surrogate_gamma_grad(ctx.out.grad, ctx.x.data,
                                            ctx.weight.data, ctx.stride,
                                            ctx.padding)
                assert grads[i][lid].dtype == want.dtype
                assert grads[i][lid].tobytes() == want.tobytes(), (i, lid)

    def test_forward_keeps_no_batch_norm_output_that_feeds_a_relu(
            self, monkeypatch):
        """After a train-mode forward that saves routing contexts, every
        batch-norm output of every slot is freed (each feeds a relu),
        and the logits, parameter gradients and routed score gradients
        are bitwise those of a run that holds all of them."""
        x, labels = batch(18)
        batch_norm = ad.batch_norm
        runs = []
        for hold in (False, True):
            h = toy_hierarchy()
            refs, held = [], []

            def recording(*a, **kw):
                out = batch_norm(*a, **kw)
                refs.append(weakref.ref(out))
                held.extend([out] if hold else [])
                return out

            monkeypatch.setattr(ad, "batch_norm", recording)
            fws = h.forward_all(x, mode="train", want_context=range(1, 3))
            monkeypatch.setattr(ad, "batch_norm", batch_norm)
            alive = sum(r() is not None for r in refs)
            total = None
            for fw in fws:
                ce = ad.softmax_cross_entropy(fw.logits, labels)
                total = ce if total is None else ad.add(total, ce)
            ad.backward(total)
            runs.append((alive, len(refs),
                         [fw.logits.data for fw in fws],
                         [p.grad for p in h.all_parameters()],
                         h.route_gamma_gradients(fws)))
        (freed_alive, n, logits, grads, routed), (held_alive, _, *want) = runs
        assert n > 0 and freed_alive == 0 and held_alive == n
        for a, b in zip(logits + grads, want[0] + want[1]):
            assert a.tobytes() == b.tobytes()
        for i in routed:
            for lid in routed[i]:
                assert routed[i][lid].tobytes() == want[2][i][lid].tobytes()

    def test_missing_backward_raises(self):
        h = toy_hierarchy()
        x, labels = batch(13)
        fws = h.forward_all(x, mode="train")
        with pytest.raises(HierarchyError, match="backward"):
            h.route_gamma_gradients(fws)

    def test_wrong_slot_count_raises(self):
        h = toy_hierarchy()
        x, labels = batch(14)
        fws = h.forward_all(x, mode="train")
        with pytest.raises(HierarchyError, match="forward"):
            h.route_gamma_gradients(fws[:2])


class TestMaskRefreshAndPersistence:
    def test_refresh_follows_scores(self):
        h = toy_hierarchy()
        s = h.slots[0].scores
        s.layers[0][:] = [9, 8, 7, 1, 1, 1]
        s.layers[1][:] = [1, 1, 1, 9, 8, 7]
        h.refresh_masks()
        want = build_mask(s, PruneConfig(0.5, 1))
        assert h.slots[0].state.mask == want
        np.testing.assert_array_equal(h.slots[0].state.mask.layers[0],
                                      [True, True, True, False, False, False])

    def test_top_mask_survives_refresh(self):
        h = toy_hierarchy()
        h.refresh_masks()
        assert all(v.all() for v in h.top.state.mask.layers.values())

    def test_named_tensor_round_trip(self):
        h1 = toy_hierarchy(seed=5)
        h1.freeze_teacher()
        h2 = toy_hierarchy(seed=6)
        h2.load_named_tensors(h1.named_tensors())
        t1, t2 = h1.named_tensors(), h2.named_tensors()
        assert set(t1) == set(t2)
        for k in t1:
            assert np.array_equal(t1[k], t2[k]), k
        x, _ = batch(15)
        a = h1.forward_all(x, mode="eval")
        b = h2.forward_all(x, mode="eval")
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.logits.data, fb.logits.data)

    def test_load_rejects_unknown_and_missing(self):
        h = toy_hierarchy()
        table = h.named_tensors()
        table["slot0.evil"] = np.zeros(1)
        with pytest.raises(HierarchyError, match="unknown"):
            h.load_named_tensors(table)
        table = h.named_tensors()
        del table["slot0.stem.w"]
        with pytest.raises(HierarchyError, match="missing"):
            h.load_named_tensors(table)

    def test_no_two_parameters_share_a_name(self):
        """Checkpoints save each parameter under its own name, so the
        frozen teacher's copies must not carry the top slot's names."""
        h = ModelHierarchy(load_arch(TOY_RESIDUAL_ARCH), [0.5, 0.75, 1.0])
        h.freeze_teacher()
        weights, state = h.frozen
        params = h.all_parameters() + list(weights.values()) \
            + [state.stem, *state.dense] \
            + [p for bn in state.bns for p in (bn.gamma, bn.beta)]
        names = [p.name for p in params]
        assert len(names) == 86
        assert len(set(names)) == len(names)
        assert {bn.name for bn in state.bns} \
            == {f"frozen.bn{j}" for j in range(len(state.bns))}

    def test_frozen_teacher_is_immune_to_training(self):
        h = toy_hierarchy(seed=7)
        h.freeze_teacher()
        x, _ = batch(16)
        before = h.forward_frozen(x).logits.data
        for p in h.shared_parameters() + h.slot_parameters(2):
            p.assign(np.zeros_like(p.data))
        after = h.forward_frozen(x).logits.data
        assert np.array_equal(before, after)
        assert np.any(before != 0.0)

    def test_the_frozen_teacher_shares_the_arrays_it_freezes(self):
        """freeze_teacher copies nothing: each frozen parameter holds the
        array of the shared kernel or top-slot parameter it freezes, and
        each frozen BN state the top slot's running statistics."""
        h = ModelHierarchy(load_arch(TOY_RESIDUAL_ARCH), [0.5, 0.75, 1.0])
        h.freeze_teacher()
        weights, state = h.frozen
        top = h.top.state
        pairs = [(weights[label], p) for label, p in h.shared.items()]
        pairs += [(state.stem, top.stem), *zip(state.dense, top.dense)]
        pairs += [(getattr(f, k), getattr(t, k))
                  for f, t in zip(state.bns, top.bns) for k in ("gamma", "beta")]
        assert {f.name for f, _ in pairs} == {
            k for k in h.named_tensors()
            if k.startswith("frozen.") and not k.endswith((".rmean", ".rvar"))}
        for frozen, live in pairs:
            assert np.shares_memory(frozen.data, live.data), frozen.name
        assert len(state.bns) == len(top.bns) > 0
        for f, t in zip(state.bns, top.bns):
            assert f.running_mean is t.running_mean, f.name
            assert f.running_var is t.running_var, f.name

    def test_training_never_moves_the_frozen_teacher(self):
        """Every frozen.* tensor keeps its value at freeze time, bit for bit,
        through a joint, an intermediate and two fine-tune epochs, the
        second taught by the frozen teacher itself."""
        h = ModelHierarchy(parse_arch(DEPTHWISE_TOY, name="dw"),
                           [0.5, 0.75, 1.0], seed=3)
        h.freeze_teacher()
        at_freeze = {k: v.copy() for k, v in h.named_tensors().items()}
        cfg = TrainConfig(batch_size=8, base_lr=0.05, score_lr=0.5,
                          distill=DistillConfig(tau=4.0, lambda_kd=0.3,
                                                lambda_hint=0.001,
                                                hint_layers=(1,)))
        trainer = Trainer(h, synthetic_dataset(0, 16, 3, 8, 2), cfg,
                          val_data=synthetic_dataset(1, 6, 3, 8, 2, split="test"))
        trainer.joint_epoch()
        trainer.intermediate_epoch()
        trainer.finetune_epoch()
        trainer.state.teacher_index = len(h.slots)
        trainer.finetune_epoch()
        after = h.named_tensors()
        frozen = [k for k in at_freeze if k.startswith("frozen.")]
        assert len(frozen) == 26
        for name in frozen:
            assert after[name].tobytes() == at_freeze[name].tobytes(), name
        assert not np.array_equal(after["slot2.stem.w"], at_freeze["slot2.stem.w"])
        assert not np.array_equal(after["slot2.bn0.rmean"],
                                  at_freeze["slot2.bn0.rmean"])

    def test_frozen_teacher_reuses_its_kernels_and_memo(self):
        h = toy_hierarchy(seed=7)
        h.freeze_teacher()
        x, _ = batch(16)
        first = h.forward_frozen(x).logits.data
        memo = h.frozen[1].memo
        again = h.forward_frozen(x).logits.data
        assert first.tobytes() == again.tobytes()
        assert memo is not None and h.frozen[1].memo is memo

    def test_joint_step_leaves_the_frozen_kernels_without_grad(self):
        h = toy_hierarchy(seed=7)
        h.freeze_teacher()
        x, labels = batch(16)
        teacher = h.forward_frozen(x)
        fws = h.forward_all(x, mode="train", want_context=range(1, 3))
        total = None
        for i, fw in enumerate(fws):
            t_logits = fws[i + 1].logits if i + 1 < len(fws) else teacher.logits
            loss, _ = slot_loss(fw.logits, labels, t_logits, [], [],
                                DistillConfig())
            total = loss if total is None else ad.add(total, loss)
        ad.backward(total)
        assert h.shared_parameters()[0].value.grad is not None
        for p in h.frozen[0].values():
            assert not p.trainable
            assert p.value.grad is None and p.value.node is None

    def test_forward_frozen_requires_freeze(self):
        h = toy_hierarchy()
        with pytest.raises(HierarchyError, match="frozen"):
            h.forward_frozen(batch()[0])

    def test_frozen_forward_builds_no_graph(self):
        h = toy_hierarchy()
        h.freeze_teacher()
        fw = h.forward_frozen(batch()[0])
        assert fw.logits.node is None
        assert not fw.logits.requires_grad


MEMO_ARCHS = {"vgg16_cifar10": lambda: resolve_arch("vgg16_cifar10"),
              "mobilenetv1_cifar100": lambda: resolve_arch("mobilenetv1_cifar100"),
              "toy_residual": lambda: load_arch(TOY_RESIDUAL_ARCH)}


def leaky_hierarchy(arch, seed=0, dtype="f32"):
    """A fresh hierarchy whose batch norms hold random affines and running
    statistics, so that what its pruned channels leak is not zero."""
    h = ModelHierarchy(arch, [0.5, 0.75, 1.0], seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    dt = ad.DTYPES[dtype]
    for slot in h.slots:
        for bn in slot.state.bns:
            c = bn.channels
            bn.gamma.assign((0.5 + rng.random(c)).astype(dt))
            bn.beta.assign((0.3 * rng.standard_normal(c)).astype(dt))
            bn.running_mean = (0.3 * rng.standard_normal(c)).astype(dt)
            bn.running_var = (0.5 + rng.random(c)).astype(dt)
    return h


def bench_checks():
    """bench/checks.py, imported from its file."""
    path = os.path.join(os.path.dirname(TOY_RESIDUAL_ARCH), "checks.py")
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def images(arch, n=2, seed=0):
    return np.random.default_rng(seed).standard_normal(
        (n, arch.in_c, arch.in_h, arch.in_w)).astype(np.float32)


def memo_pass(h, x, slot=0, hint_ids=()):
    """A no-tape eval pass of one slot; returns it and the slot's memo."""
    with ad.no_grad():
        fw = h.forward_slot(slot, x, mode="eval", hint_ids=hint_ids)
    return fw, h.slots[slot].state.memo


def assert_bitwise(got, want):
    assert got.logits.data.tobytes() == want.logits.data.tobytes()
    assert sorted(got.hint_maps) == sorted(want.hint_maps)
    for k, m in want.hint_maps.items():
        assert got.hint_maps[k].data.tobytes() == m.data.tobytes(), k


def assert_near(got, want, dtype="f32"):
    """Folded (no-tape) and unfolded (tape) passes agree to rounding."""
    assert_close(got.logits.data, want.logits.data, dtype)
    assert sorted(got.hint_maps) == sorted(want.hint_maps)
    for k, m in want.hint_maps.items():
        assert_close(got.hint_maps[k].data, m.data, dtype)


def rebuilt_pass(h, x, slot=0):
    """A no-tape eval pass of the slot from a cleared memo."""
    h.slots[slot].state.memo = None
    return memo_pass(h, x, slot)[0]


class TestEvalMemo:
    @pytest.mark.parametrize("arch_id", sorted(MEMO_ARCHS))
    def test_hit_miss_and_tape_passes_are_bitwise_equal(self, arch_id):
        """A memo hit is bitwise the miss that built it; both fold batch
        norm, so they match the tape pass up to rounding."""
        arch = MEMO_ARCHS[arch_id]()
        h = leaky_hierarchy(arch)
        x = images(arch)
        hint_ids = sorted(arch.maskable_sizes)[::3]
        tape = h.forward_slot(0, x, mode="eval", hint_ids=hint_ids)
        assert tape.logits.requires_grad and h.student.state.memo is None
        miss, memo = memo_pass(h, x, hint_ids=hint_ids)
        assert memo is not None and memo.values
        hit, again = memo_pass(h, x, hint_ids=hint_ids)
        assert again is memo
        assert_bitwise(hit, miss)
        assert_near(miss, tape)

    def test_no_memo_on_tape_or_train_passes(self):
        arch = MEMO_ARCHS["toy_residual"]()
        h = leaky_hierarchy(arch)
        x = images(arch)
        h.forward_slot(0, x, mode="eval")
        h.forward_slot(0, x, mode="train")
        with ad.no_grad():
            h.forward_slot(0, x, mode="train")
        assert h.student.state.memo is None
        _, memo = memo_pass(h, x)
        assert memo is not None
        h.forward_slot(0, x, mode="eval")
        assert h.student.state.memo is memo

    def _invalidated_by(self, edit, arch_id="toy_residual"):
        """Build the student's memo, apply edit(h, x), then check that the
        next no-tape eval pass rebuilds the memo and is bitwise a pass
        from a cleared memo."""
        arch = MEMO_ARCHS[arch_id]()
        h = leaky_hierarchy(arch)
        x = images(arch)
        before, memo = memo_pass(h, x)
        edit(h, x)
        after, rebuilt = memo_pass(h, x)
        assert rebuilt is not None and rebuilt is not memo
        assert_bitwise(after, rebuilt_pass(h, x))
        assert after.logits.data.tobytes() != before.logits.data.tobytes()

    def test_an_optimizer_step_invalidates(self):
        """A step that moves only the shared kernels, so that nothing of
        the slot's own state changes."""
        def step(h, x):
            sgd = SGDNesterov(h.all_parameters())
            for p in h.all_parameters():
                p.value.grad = np.ones_like(p.data)
            sgd.step(0.01, include={p.name for p in h.shared_parameters()})

        self._invalidated_by(step)

    def test_refresh_masks_invalidates(self):
        def rescore(h, x):
            for lid, s in h.student.scores.layers.items():
                h.student.scores.layers[lid] = -s
            h.refresh_masks()

        self._invalidated_by(rescore)

    def test_a_train_pass_of_the_slot_invalidates(self):
        def train(h, x):
            h.forward_slot(0, x, mode="train")
            assert h.student.state.memo is None

        self._invalidated_by(train)

    def test_load_named_tensors_invalidates(self):
        def load(h, x):
            other = leaky_hierarchy(h.arch, seed=1)
            h.load_named_tensors(other.named_tensors())

        self._invalidated_by(load)

    def test_silence_check_edit_invalidates(self):
        """bench/checks.py's silence_gap copies beta and the running mean,
        edits the copies and installs them; the eval pass after that edit
        sees the new state, so the leak it measures is not hidden."""
        checks = bench_checks()
        gap = {}

        def silence(h, x):
            gap["gap"] = checks.silence_gap(h, x)

        self._invalidated_by(silence)
        assert gap["gap"] > 1e-5

    @pytest.mark.parametrize("part", ["gamma", "beta", "running_mean",
                                      "running_var", "dense"])
    def test_one_replaced_slot_array_invalidates(self, part):
        """Each of the student's own arrays counts on its own: one kind
        of them is copied, edited and put back in place of the old."""
        def replace(h, x):
            st = h.student.state
            if part == "dense":
                for p in st.dense:
                    p.assign(p.data * 1.5)
            for bn in st.bns:
                if part in ("gamma", "beta"):
                    param = getattr(bn, part)
                    param.assign(param.data + 0.1)
                elif part != "dense":
                    setattr(bn, part, getattr(bn, part) + 0.1)

        self._invalidated_by(replace)

    def test_another_image_size_rebuilds(self):
        """A net that ends in global pooling runs at any input size; the
        one-image maps follow that size."""
        arch = MEMO_ARCHS["toy_residual"]()
        h = leaky_hierarchy(arch)
        x = images(arch)
        _, memo = memo_pass(h, x)
        small = x[:, :, :8, :8]
        got, rebuilt = memo_pass(h, small)
        assert rebuilt is not memo
        assert_bitwise(got, rebuilt_pass(h, small))

    def test_a_replaced_kernel_is_not_kept_alive(self):
        arch = MEMO_ARCHS["toy_residual"]()
        h = leaky_hierarchy(arch)
        x = images(arch)
        _, memo = memo_pass(h, x)
        assert memo.values
        for p in h.shared_parameters():
            old = weakref.ref(p.value)
            p.assign(p.data * 2.0)
            gc.collect()
            assert old() is None, p.name


class TestFoldedEval:
    """A no-tape eval pass folds each batch norm, and the relu after it,
    into the conv or depthwise conv before it."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("net", sorted(NETS))
    def test_matches_the_tape_pass(self, net, dtype, monkeypatch):
        """Every slot's folded logits and hint maps equal those of the
        unfolded pass on the tape to rounding, with leaky batch norms and,
        on the residual net, a join whose sides prune disjoint channels.
        No batch norm of the folded passes sees the batch, only the
        one-image maps of pruned channels, and no relu but the one after
        each residual join."""
        arch = NETS[net]()
        h = leaky_hierarchy(arch, dtype=dtype)
        x = images(arch, n=5).astype(ad.DTYPES[dtype])
        hint_ids = sorted(arch.maskable_sizes)
        batch_ops = []

        def watched(op):
            def run(t, *args, **kwargs):
                if t.shape[0] > 1:
                    batch_ops.append(op.__name__)
                return op(t, *args, **kwargs)
            return run

        for slot in (*range(len(h.slots)), "disjoint"):
            if slot == "disjoint":
                half_pruned_student(h, disjoint=True)
                slot = 0
            tape = h.forward_slot(slot, x, mode="eval", hint_ids=hint_ids)
            with monkeypatch.context() as mp:
                for name in ("batch_norm", "relu"):
                    mp.setattr(ad, name, watched(getattr(ad, name)))
                got, _ = memo_pass(h, x, slot, hint_ids)
            assert_near(got, tape, dtype)
        joins = sum(st.op == "add" for st in arch.plan)
        assert batch_ops == ["relu"] * joins * (len(h.slots) + 1)

    def test_silence_gap_matches_the_tape_pass(self, monkeypatch):
        """bench/checks.py's silence_gap measures the same leak through
        folded passes as through unfolded ones on the tape."""
        checks = bench_checks()
        arch = MEMO_ARCHS["toy_residual"]()
        x = images(arch)
        folded = checks.silence_gap(leaky_hierarchy(arch), x)
        monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
        tape = checks.silence_gap(leaky_hierarchy(arch), x)
        assert folded > 1e-3 and abs(folded - tape) <= 1e-5

    @pytest.mark.parametrize("arch_id", sorted(MEMO_ARCHS))
    def test_the_frozen_teachers_memo_keeps_no_kernel(self, arch_id):
        """The frozen teacher's memo lives through every step's backward,
        so it keeps its folded biases only, one per-channel vector per
        conv; the top slot's memo, dropped by the next train pass, keeps
        its folded kernels too."""
        arch = MEMO_ARCHS[arch_id]()
        h = leaky_hierarchy(arch)
        h.freeze_teacher()
        x = images(arch)
        h.forward_frozen(x)
        values = [v.data if isinstance(v, ad.Tensor) else v
                  for v in h.frozen[1].memo.values]
        assert values and all(v.shape == (1, v.size, 1, 1) for v in values)
        _, memo = memo_pass(h, x, len(h.slots) - 1)
        kernels = {p.shape for p in h.shared_parameters()}
        assert kernels <= {v.shape for v in memo.values}


class TestMemoAcrossSteps:
    """A train step drops every slot's memo before its backward; the
    frozen teacher's memo stays, and eval passes after the step hit."""

    @staticmethod
    def trainer():
        h = ModelHierarchy(parse_arch(DEPTHWISE_TOY, name="dw"),
                           [0.5, 0.75, 1.0], seed=3)
        h.freeze_teacher()
        data = synthetic_dataset(0, 16, classes=3, size=8, channels=2)
        cfg = TrainConfig(batch_size=8, base_lr=0.05, score_lr=0.5,
                          distill=DistillConfig(tau=4.0, lambda_kd=0.3,
                                                lambda_hint=0.0))
        return h, Trainer(h, data, cfg)

    def test_no_slot_memo_alive_in_the_students_backward(self, monkeypatch):
        """The teacher slot's eval pass builds a memo, and the student's
        train pass drops it before the backward starts."""
        h, trainer = self.trainer()
        built, at_backward = [], []
        forward_slot = ModelHierarchy.forward_slot
        backward = ad.backward

        def watched_forward(self, index, *a, **kw):
            fw = forward_slot(self, index, *a, **kw)
            if index == 1:
                built.append(self.slots[1].state.memo)
            return fw

        def watched_backward(loss):
            at_backward.append([s.state.memo for s in h.slots])
            backward(loss)

        monkeypatch.setattr(ModelHierarchy, "forward_slot", watched_forward)
        monkeypatch.setattr(ad, "backward", watched_backward)
        trainer.finetune_epoch()
        assert len(built) == 2 and all(m is not None for m in built)
        assert at_backward == [[None, None, None]] * 2

    def test_the_frozen_teachers_memo_outlives_a_joint_step(self):
        h, trainer = self.trainer()
        arch = h.arch
        h.forward_frozen(images(arch))
        memo = h.frozen[1].memo
        trainer.joint_epoch()
        assert memo is not None and h.frozen[1].memo is memo

    @pytest.mark.parametrize("slot", [0, 1])
    def test_the_second_eval_pass_after_a_step_hits(self, slot):
        h, trainer = self.trainer()
        trainer.finetune_epoch()
        x = images(h.arch)
        miss, memo = memo_pass(h, x, slot)
        hit, again = memo_pass(h, x, slot)
        assert memo is not None and again is memo
        assert_bitwise(hit, miss)
