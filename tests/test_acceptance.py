"""Acceptance gate: one test per shipped guarantee, run in order.

Each test prints a single verdict line (ACCEPTANCE n: PASS/FAIL) and
enforces its own wall-clock budget. Numbers quoted in expectations are
the reference costs the analyzer must reproduce after display rounding.
"""

import csv
import os
import time

import numpy as np
import pytest

import cascadeprune.autodiff as ad
import oracles
from cascadeprune.arch import compression_report, count_stats, parse_arch
from cascadeprune.cli import main as cli_main
from cascadeprune.cli import resolve_arch
from cascadeprune.data import synthetic_dataset
from cascadeprune.distill import DistillConfig
from cascadeprune.hierarchy import ModelHierarchy, derive_ta_keep_ratios
from cascadeprune.masking import (FilterMask, ImportanceScores, MaskError,
                                  PruneConfig, build_mask, keep_count,
                                  surrogate_gamma_grad)
from cascadeprune.optim import ScoreOptimizer
from cascadeprune.training import TrainConfig, Trainer, evaluate


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: ResNet50 cost table, row by row
# ---------------------------------------------------------------------------

# (group, FLOPs displayed in M, params displayed in M, decimals shown)
RESNET50_ROWS = [
    ("conv0", 118, 0.01),
    ("block0", 231, 0.07), ("block1", 218, 0.07), ("block2", 218, 0.07),
    ("block3", 295, 0.38), ("block4", 218, 0.28), ("block5", 218, 0.28),
    ("block6", 218, 0.28),
    ("block7", 295, 1.51), ("block8", 218, 1.11), ("block9", 218, 1.11),
    ("block10", 218, 1.11), ("block11", 218, 1.11), ("block12", 218, 1.11),
    ("block13", 295, 6.03), ("block14", 218, 4.46), ("block15", 218, 4.46),
    ("classifier", 2.05, 2.05),
]


def test_criterion_1_resnet50_cost_table(tmp_path):
    """Every per-group row and both totals of the ResNet50 reference
    cost table reproduce within half of the displayed unit, in < 1 s."""
    t0 = time.perf_counter()
    out_csv = str(tmp_path / "resnet50.csv")
    assert cli_main(["analyze", "resnet50_imagenet", "--out-csv",
                     out_csv]) == 0
    groups = {r["label"]: (int(r["flops"]), int(r["params"]))
              for r in csv.DictReader(open(out_csv)) if r["kind"] == "group"}
    elapsed = time.perf_counter() - t0

    bad = []
    for label, flops_m, params_m in RESNET50_ROWS:
        f, p = groups[label]
        # unit of the last displayed digit: 1M for "218", 0.01M for "2.05"
        f_unit = 0.01 if flops_m != int(flops_m) else 1.0
        if abs(f / 1e6 - flops_m) > 0.5 * f_unit:
            bad.append(f"{label} flops {f / 1e6:.3f} != {flops_m}")
        if abs(p / 1e6 - params_m) > 0.5 * 0.01:
            bad.append(f"{label} params {p / 1e6:.4f} != {params_m}")

    report = count_stats(resolve_arch("resnet50_imagenet"))
    # the reference total sums the already-rounded per-row megaflops
    rounded_total_b = sum(round(f / 1e6) if fm == int(fm) else f / 1e6
                          for (_, fm, _), (f, _) in
                          zip(RESNET50_ROWS, (groups[l] for l, _, _
                                              in RESNET50_ROWS))) / 1000.0
    if abs(rounded_total_b - 3.85) > 0.5 * 0.01:
        bad.append(f"total flops {rounded_total_b:.4f}B != 3.85B")
    if abs(report.total_params / 1e6 - 25.5) > 0.5 * 0.1:
        bad.append(f"total params {report.total_params / 1e6:.3f}M != 25.5M")
    if report.total_flops != 3_857_973_248 \
            or report.total_params != 25_502_912:
        bad.append("exact totals moved")
    if elapsed >= 1.0:
        bad.append(f"too slow: {elapsed:.2f}s")
    _verdict(1, not bad,
             f"18 rows + totals within display rounding, {elapsed:.2f}s"
             if not bad else "; ".join(bad))


# ---------------------------------------------------------------------------
# criterion 2: VGG16 totals and derived compression ratios
# ---------------------------------------------------------------------------

def test_criterion_2_vgg16_totals_and_ratios():
    """VGG16-CIFAR10 counts 14.98M params / 313M FLOPs within half a
    displayed unit, and the reference 7.76M/134M pruned totals yield
    exactly 1.9x params / 2.3x FLOPs through compression_report."""
    report = count_stats(resolve_arch("vgg16_cifar10"))
    bad = []
    if abs(report.total_params / 1e6 - 14.98) > 0.5 * 0.01:
        bad.append(f"params {report.total_params / 1e6:.4f}M != 14.98M")
    if abs(report.total_flops / 1e6 - 313) > 0.5:
        bad.append(f"flops {report.total_flops / 1e6:.3f}M != 313M")

    ratios = str(compression_report((313_000_000, 14_980_000),
                                    (134_000_000, 7_760_000)))
    if not ratios.startswith("1.9x fewer parameters"):
        bad.append(f"param ratio text: {ratios}")
    if "2.3x fewer FLOPs" not in ratios:
        bad.append(f"flops ratio text: {ratios}")
    _verdict(2, not bad,
             "totals and 1.9x/2.3x ratios reproduce"
             if not bad else "; ".join(bad))


# ---------------------------------------------------------------------------
# criterion 3: gradient oracle suite
# ---------------------------------------------------------------------------

def _separated(rng, shape, spacing=0.01):
    """Random values with pairwise gaps >= 0.004 and |v| >= 0.002, so
    h=1e-5 differencing never crosses a relu kink or pooling tie."""
    n = int(np.prod(shape))
    vals = (rng.permutation(n) + rng.uniform(0.2, 0.8, n)) * spacing
    vals -= (n // 2) * spacing
    return vals.reshape(shape)


def _fd_input_check(build_loss, x0):
    """Engine gradient of a scalar loss w.r.t. one input vs central FD."""
    t = ad.Tensor(x0, dtype="f64", requires_grad=True)
    ad.backward(build_loss(t))
    got = t.grad

    def f(a):
        return float(build_loss(ad.Tensor(a, dtype="f64")).data)

    return oracles.rel_err(got, oracles.fd_grad(f, x0))


def _sq_sum(t):
    return ad.tensor_sum(ad.square(t))


def test_criterion_3_gradient_oracles():
    """Every differentiable op matches central finite differences
    (f64, h=1e-5, relative error < 1e-4) on 50 random instances, the
    conv kernels match the nested-loop transcription exactly, and the
    straight-through score gradient matches both its loop form and the
    derivative of the continuous per-channel relaxation. Under 2 min."""
    t0 = time.perf_counter()
    N = 50
    worst: dict[str, float] = {}

    def check(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    for i in range(N):
        rng = np.random.default_rng(1000 + i)
        stride = 1 + (i % 2)
        pad = "same" if i % 4 < 2 else "valid"

        x = _separated(rng, (2, 2, 5, 5))
        w = _separated(rng, (3, 3, 2, 3))
        check("conv2d/x", _fd_input_check(
            lambda t: _sq_sum(ad.conv2d(t, ad.Tensor(w, dtype="f64"),
                                        stride=stride, padding=pad)), x))
        check("conv2d/w", _fd_input_check(
            lambda t: _sq_sum(ad.conv2d(ad.Tensor(x, dtype="f64"), t,
                                        stride=stride, padding=pad)), w))

        dw = _separated(rng, (3, 3, 4))
        dx = _separated(rng, (2, 4, 5, 5))
        check("depthwise/x", _fd_input_check(
            lambda t: _sq_sum(ad.depthwise_conv2d(
                t, ad.Tensor(dw, dtype="f64"), stride=stride,
                padding=pad)), dx))
        check("depthwise/w", _fd_input_check(
            lambda t: _sq_sum(ad.depthwise_conv2d(
                ad.Tensor(dx, dtype="f64"), t, stride=stride,
                padding=pad)), dw))

        mk = np.arange(3) != i % 3
        check("masked_conv2d/x", _fd_input_check(
            lambda t: _sq_sum(ad.masked_conv2d(
                t, ad.Tensor(w, dtype="f64"), mk, stride=stride,
                padding=pad)[0]), x))
        check("masked_conv2d/w", _fd_input_check(
            lambda t: _sq_sum(ad.masked_conv2d(
                ad.Tensor(x, dtype="f64"), t, mk, stride=stride,
                padding=pad)[0]), w))

        xm = _separated(rng, (3, 4))
        wm = _separated(rng, (4, 5))
        check("dense/x", _fd_input_check(
            lambda t: _sq_sum(ad.dense(t, ad.Tensor(wm, dtype="f64"))), xm))
        check("dense/w", _fd_input_check(
            lambda t: _sq_sum(ad.dense(ad.Tensor(xm, dtype="f64"), t)), wm))

        xb = _separated(rng, (6, 3, 4, 4))
        gamma = rng.uniform(0.5, 1.5, 3)
        beta = rng.uniform(-0.5, 0.5, 3)

        def bn_loss(t, g=gamma, b=beta):
            st = ad.BatchNormState("bn", 3, dtype="f64")
            st.gamma.assign(g)
            st.beta.assign(b)
            return _sq_sum(ad.batch_norm(t, st, mode="train"))

        check("batch_norm/x", _fd_input_check(bn_loss, xb))

        st = ad.BatchNormState("bn", 3, dtype="f64")
        st.gamma.assign(gamma)
        st.beta.assign(beta)
        ad.backward(_sq_sum(ad.batch_norm(ad.Tensor(xb, dtype="f64"), st,
                                          mode="train")))
        got_g = st.gamma.value.grad
        got_b = st.beta.value.grad

        def bn_gamma(g):
            s2 = ad.BatchNormState("bn", 3, dtype="f64")
            s2.gamma.assign(g)
            s2.beta.assign(beta)
            return float(_sq_sum(ad.batch_norm(
                ad.Tensor(xb, dtype="f64"), s2, mode="train")).data)

        def bn_beta(b):
            s2 = ad.BatchNormState("bn", 3, dtype="f64")
            s2.gamma.assign(gamma)
            s2.beta.assign(b)
            return float(_sq_sum(ad.batch_norm(
                ad.Tensor(xb, dtype="f64"), s2, mode="train")).data)

        check("batch_norm/gamma",
              oracles.rel_err(got_g, oracles.fd_grad(bn_gamma, gamma)))
        check("batch_norm/beta",
              oracles.rel_err(got_b, oracles.fd_grad(bn_beta, beta)))

        check("relu", _fd_input_check(
            lambda t: _sq_sum(ad.relu(t)), _separated(rng, (3, 4, 4))))
        check("max_pool", _fd_input_check(
            lambda t: _sq_sum(ad.max_pool(t, 2, 2)),
            _separated(rng, (2, 3, 6, 6))))
        check("global_avg_pool", _fd_input_check(
            lambda t: _sq_sum(ad.global_avg_pool(t)),
            _separated(rng, (2, 3, 4, 4))))
        check("reshape", _fd_input_check(
            lambda t: _sq_sum(ad.reshape(t, (2, 12))),
            _separated(rng, (2, 3, 4))))
        check("flatten", _fd_input_check(
            lambda t: _sq_sum(ad.flatten(t)), _separated(rng, (2, 3, 2, 2))))

        xa = _separated(rng, (3, 4))
        ya = _separated(rng, (3, 4))
        check("add/a", _fd_input_check(
            lambda t: _sq_sum(ad.add(t, ad.Tensor(ya, dtype="f64"))), xa))
        check("add/b", _fd_input_check(
            lambda t: _sq_sum(ad.add(ad.Tensor(xa, dtype="f64"), t)), ya))
        bias = rng.standard_normal((3, 4))
        check("add_const", _fd_input_check(
            lambda t: _sq_sum(ad.add_const(t, bias)), xa))
        check("mul_const", _fd_input_check(
            lambda t: _sq_sum(ad.mul_const(t, bias)), xa))
        check("scale", _fd_input_check(
            lambda t: _sq_sum(ad.scale(t, 1.7)), xa))
        check("square", _fd_input_check(
            lambda t: ad.tensor_sum(ad.square(t)), xa))
        check("tensor_sum", _fd_input_check(
            lambda t: ad.square(ad.tensor_sum(t)), xa))
        check("log_softmax", _fd_input_check(
            lambda t: _sq_sum(ad.log_softmax(t)), rng.standard_normal((4, 6))))

        logits = rng.standard_normal((5, 7))
        onehot = np.eye(7)[rng.integers(0, 7, 5)]
        check("softmax_ce", _fd_input_check(
            lambda t: ad.softmax_cross_entropy(t, onehot), logits))

        # straight-through score gradient: loop form, exactly
        xi = oracles.int_tensor(rng, (2, 2, 5, 5))
        wi = oracles.int_tensor(rng, (3, 3, 2, 3))
        pre = ad.conv2d_raw(xi, wi, stride=stride, padding=pad)
        dY = oracles.int_tensor(rng, pre.shape)
        got = surrogate_gamma_grad(dY, xi, wi, stride=stride, padding=pad)
        assert np.array_equal(
            got, oracles.surrogate_loops(dY, xi, wi, stride, pad))

        # and as the derivative of the continuous channel-scale relaxation
        s0 = rng.uniform(0.2, 1.0, pre.shape[1])

        def scale_loss(s):
            return float((dY * (pre * s[None, :, None, None])).sum())

        check("surrogate",
              oracles.rel_err(got, oracles.fd_grad(scale_loss, s0)))

        # conv forward against the loop oracle, bit for bit
        assert np.array_equal(
            ad.conv2d(ad.Tensor(xi), ad.Tensor(wi), stride=stride,
                      padding=pad).data,
            oracles.conv2d_loops(xi, wi, stride, pad))
        dwi = oracles.int_tensor(rng, (3, 3, 4))
        dxi = oracles.int_tensor(rng, (2, 4, 5, 5))
        assert np.array_equal(
            ad.depthwise_conv2d(ad.Tensor(dxi), ad.Tensor(dwi),
                                stride=stride, padding=pad).data,
            oracles.depthwise_conv2d_loops(dxi, dwi, stride, pad))

    elapsed = time.perf_counter() - t0
    over = {k: v for k, v in worst.items() if v >= 1e-4}
    ok = not over and elapsed < 120.0
    peak = max(worst.values())
    if ok:
        detail = (f"{len(worst)} op gradients x {N} instances, worst rel "
                  f"err {peak:.2e}, {elapsed:.1f}s")
    else:
        detail = f"failures: {over}" if over else f"too slow: {elapsed:.1f}s"
    _verdict(3, ok, detail)


# ---------------------------------------------------------------------------
# criterion 4: mask properties over randomized trials
# ---------------------------------------------------------------------------

def test_criterion_4_mask_properties():
    """Cardinality, determinism, tie-break stability, per-layer floor
    repair, and nesting of masks built at two ratios from identical
    scores, over 1000 randomized trials in < 30 s."""
    t0 = time.perf_counter()
    nesting_checked = 0
    for trial in range(1000):
        rng = np.random.default_rng(4000 + trial)
        n_layers = int(rng.integers(1, 6))
        sizes = {lid: int(rng.integers(1, 13)) for lid in range(n_layers)}
        if trial % 2:
            layers = {lid: rng.standard_normal(n) for lid, n in sizes.items()}
        else:
            # coarse integer scores force plenty of exact ties
            layers = {lid: rng.integers(0, 4, n).astype(float)
                      for lid, n in sizes.items()}
        scores = ImportanceScores(layers)
        total = scores.total_filters()
        min_f = int(rng.integers(1, 3))
        r = float(rng.uniform(0.05, 1.0))
        n_keep = keep_count(r, total)
        floor_sum = sum(min(min_f, n) for n in sizes.values())

        if n_keep < floor_sum:
            with pytest.raises(MaskError):
                build_mask(scores, PruneConfig(r, min_f))
            continue

        mask = build_mask(scores, PruneConfig(r, min_f))
        assert mask.kept_total() == n_keep, "cardinality"
        assert mask == build_mask(scores.copy(), PruneConfig(r, min_f)), \
            "determinism under identical scores"
        for lid, n in sizes.items():
            assert mask.kept_per_layer()[lid] >= min(min_f, n), "floor"

        # tie-break stability: the winner among equal scores must not
        # depend on dict insertion order
        reordered = ImportanceScores(
            {lid: layers[lid] for lid in sorted(layers, reverse=True)})
        assert mask == build_mask(reordered, PruneConfig(r, min_f))

        # nesting at two ratios, when the floor never rewrites the top-k
        r2 = float(rng.uniform(r, 1.0))
        if keep_count(r2, total) >= floor_sum:
            m1 = build_mask(scores, PruneConfig(r, 1))
            m2 = build_mask(scores, PruneConfig(r2, 1))
            ranked = sorted(((lid, i) for lid, v in layers.items()
                             for i in range(v.size)),
                            key=lambda e: (-layers[e[0]][e[1]], e[0], e[1]))

            def head(k):
                kept = {lid: np.zeros(sizes[lid], bool) for lid in sizes}
                for lid, i in ranked[:k]:
                    kept[lid][i] = True
                return FilterMask(kept)

            if m1 == head(m1.kept_total()) and m2 == head(m2.kept_total()):
                nesting_checked += 1
                for lid in m1.layers:
                    assert not np.any(m1.layers[lid] & ~m2.layers[lid]), \
                        f"trial {trial}: smaller mask not nested in larger"
    elapsed = time.perf_counter() - t0
    ok = nesting_checked >= 300 and elapsed < 30.0
    _verdict(4, ok,
             f"1000 trials, nesting exercised {nesting_checked}x, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: cascaded score-gradient routing
# ---------------------------------------------------------------------------

ROUTING_ARCH = """\
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


def test_criterion_5_gradient_routing():
    """On a 3-slot toy hierarchy, each slot's applied score gradient is
    bitwise the straight-through reduction over the next slot's saved
    forward context, and wiring a slot to its own context instead gives
    different numbers. Under 10 s."""
    t0 = time.perf_counter()
    arch = parse_arch(ROUTING_ARCH, name="routing_toy")
    h = ModelHierarchy(arch, (0.5, 0.8, 1.0), seed=3)
    ds = synthetic_dataset(3, 12, 3, 8, channels=1)

    forwards = h.forward_all(ds.images[:6], mode="train", want_context=True)
    total = None
    onehot = np.eye(3, dtype=np.float32)[ds.labels[:6]]
    for fwd in forwards:
        loss = ad.softmax_cross_entropy(fwd.logits, onehot)
        total = loss if total is None else ad.add(total, loss)
    ad.backward(total)
    grads = h.route_gamma_gradients(forwards)

    checked = 0
    for i in range(2):
        for lid, ctx in forwards[i + 1].contexts.items():
            want = surrogate_gamma_grad(ctx.out.grad, ctx.x.data,
                                        ctx.weight.data, ctx.stride,
                                        ctx.padding)
            assert np.array_equal(grads[i][lid], want), \
                f"slot {i} layer {lid}: routed gradient not bitwise equal"
            own = forwards[i].contexts[lid]
            cross = surrogate_gamma_grad(own.out.grad, own.x.data,
                                         own.weight.data, own.stride,
                                         own.padding)
            assert not np.array_equal(grads[i][lid], cross), \
                f"slot {i} layer {lid}: cross-wired control did not differ"
            checked += 1

    # the optimizer applies exactly these arrays
    before = {lid: h.slots[0].scores.layers[lid].copy() for lid in grads[0]}
    expected = {lid: before[lid] - 1.0 * grads[0][lid] for lid in grads[0]}
    ScoreOptimizer("sgd").step({0: h.slots[0].scores}, {0: grads[0]}, 1.0)
    for lid in grads[0]:
        assert np.array_equal(h.slots[0].scores.layers[lid], expected[lid])

    elapsed = time.perf_counter() - t0
    _verdict(5, elapsed < 10.0,
             f"{checked} slot/layer routes bitwise, controls differ, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: desk-scale training efficacy
# ---------------------------------------------------------------------------

CASCADE_ARCH = """\
input c=1 h=8 w=8
conv k=3 in=1 out=8 maskable=false
bn
relu
conv k=3 in=8 out=8
bn
relu
pool kind=max k=2 stride=2
conv k=3 in=8 out=16
bn
relu
pool kind=max k=2 stride=2
conv k=3 in=16 out=16
bn
relu
pool kind=gap
classifier in=16 out=10
"""

# the same four convs with every maskable width at half size
HALF_WIDTH_ARCH = """\
input c=1 h=8 w=8
conv k=3 in=1 out=8 maskable=false
bn
relu
conv k=3 in=8 out=4
bn
relu
pool kind=max k=2 stride=2
conv k=3 in=4 out=8
bn
relu
pool kind=max k=2 stride=2
conv k=3 in=8 out=8
bn
relu
pool kind=gap
classifier in=8 out=10
"""


def _cascade_seed_run(seed: int):
    train = synthetic_dataset(seed, 5000, 10, 8, 1)
    test = synthetic_dataset(seed + 1000, 1000, 10, 8, 1, split="test")

    ratios = derive_ta_keep_ratios(0.5, (1.5, 2.5))
    h = ModelHierarchy(parse_arch(CASCADE_ARCH, name="cascade_toy"),
                       ratios, seed=seed)
    cfg = TrainConfig(batch_size=128, base_lr=0.05, cycle_len_epochs=8,
                      cycle_decay=0.9, score_lr=0.05, seed=seed,
                      distill=DistillConfig(tau=4.0, lambda_kd=0.4))
    tr = Trainer(h, train, cfg, val_data=test)
    tr.pretrain_top(8)
    hamming = []
    prev = h.student.state.mask.copy()
    for _ in range(8):
        tr.joint_epoch()
        cur = h.student.state.mask.copy()
        hamming.append(prev.hamming(cur))
        prev = cur
    for _ in range(8):
        tr.finetune_epoch()
    student_acc = evaluate(h, 0, test)

    bh = ModelHierarchy(parse_arch(HALF_WIDTH_ARCH, name="half_width"),
                        (1.0, 1.0), seed=seed)
    bcfg = TrainConfig(batch_size=128, base_lr=0.05, cycle_len_epochs=16,
                       cycle_decay=0.9, score_lr=0.0, seed=seed,
                       distill=DistillConfig(lambda_kd=0.0, lambda_hint=0.0))
    btr = Trainer(bh, train, bcfg, val_data=None)
    for _ in range(16):
        btr.finetune_epoch()
    baseline_acc = evaluate(bh, 0, test)
    return student_acc, baseline_acc, hamming


def test_criterion_6_training_efficacy():
    """A cascaded keep-0.5 student (one student, two assistants, 8 joint
    + 8 fine-tune epochs, 10-class 5k-sample synthetic data, 4-conv toy
    net) lands within 2 accuracy points of a scratch-trained half-width
    net, with the student mask settled by the last joint epoch. Majority
    of three seeds; under 10 min on one core."""
    t0 = time.perf_counter()
    results = []
    for seed in (0, 1, 2):
        student, baseline, hamming = _cascade_seed_run(seed)
        ok = student >= baseline - 0.02 and hamming[-1] == 0
        results.append(ok)
        print(f"  seed {seed}: student={student:.3f} "
              f"baseline={baseline:.3f} mask flips per epoch={hamming} "
              f"{'ok' if ok else 'MISS'}")
    elapsed = time.perf_counter() - t0
    ok = sum(results) >= 2 and elapsed < 600.0
    _verdict(6, ok, f"{sum(results)}/3 seeds pass, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 7: determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_7_determinism_and_resume(tmp_path):
    """Two identically seeded runs write byte-identical metrics, and a
    run resumed from a checkpoint reproduces the continuous run's
    remaining rows and final checkpoint bitwise. Under 5 min."""
    t0 = time.perf_counter()
    arch_path = tmp_path / "toy.arch"
    arch_path.write_text(ROUTING_ARCH)
    flags = ["--arch", str(arch_path), "--dataset", "synthetic",
             "--synthetic-samples", "96", "--synthetic-classes", "3",
             "--synthetic-size", "8", "--synthetic-channels", "1",
             "--keep-ratio", "0.5", "--ta-divisors", "2.0",
             "--batch-size", "16", "--seed", "11",
             "--pretrain-epochs", "1", "--finetune-epochs", "1"]

    bad = []
    # identically seeded full runs
    blobs = []
    for name in ("run_a", "run_b"):
        out = str(tmp_path / name)
        assert cli_main(["train", *flags, "--joint-epochs", "4",
                         "--out", out]) == 0
        blobs.append((open(os.path.join(out, "metrics.csv"), "rb").read(),
                      open(os.path.join(out, "latest.ckpt"), "rb").read()))
    if blobs[0][0] != blobs[1][0]:
        bad.append("metrics differ between identical runs")
    if blobs[0][1] != blobs[1][1]:
        bad.append("checkpoints differ between identical runs")

    # a run stopped after 2 joint epochs, then resumed for 2 more
    short = str(tmp_path / "run_short")
    assert cli_main(["train", *flags, "--joint-epochs", "2",
                     "--finetune-epochs", "0", "--out", short]) == 0
    resumed = str(tmp_path / "run_resumed")
    assert cli_main(["train", *flags, "--joint-epochs", "2",
                     "--pretrain-epochs", "0",
                     "--pretrained", os.path.join(short, "latest.ckpt"),
                     "--out", resumed]) == 0

    def rows(run, wanted_epochs):
        with open(os.path.join(str(tmp_path / run), "metrics.csv")) as fh:
            return [ln for ln in fh.read().splitlines()[1:]
                    if int(ln.split(",")[1]) in wanted_epochs]

    cont = rows("run_a", {3, 4})      # joint epochs after the stop point
    resu = rows("run_resumed", {3, 4})
    if cont != resu:
        bad.append(f"resumed rows diverge ({len(cont)} vs {len(resu)})")
    ck_cont = open(os.path.join(str(tmp_path / "run_a"),
                                "epoch_0005.ckpt"), "rb").read()
    ck_resu = open(os.path.join(resumed, "epoch_0005.ckpt"), "rb").read()
    if ck_cont != ck_resu:
        bad.append("post-resume checkpoint differs from continuous run")

    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        bad.append(f"too slow: {elapsed:.0f}s")
    _verdict(7, not bad,
             f"identical metrics/checkpoints, resume bitwise over "
             f"{len(cont)} rows, {elapsed:.0f}s"
             if not bad else "; ".join(bad))


# ---------------------------------------------------------------------------
# criterion 8: full-scale run, documented but not gated
# ---------------------------------------------------------------------------

def test_criterion_8_full_scale_run_documented():
    """The full CIFAR-10 VGG16 keep-0.4 run is documented as an optional
    long-running experiment with an expected outcome; it is not executed
    here because it is hardware- and time-dependent."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = " ".join(open(readme).read().split())
    ok = ("keep-ratio 0.4" in text and "vgg16_cifar10" in text
          and "cifar10" in text and "not part of the test gate" in text)
    _verdict(8, ok,
             "full-scale run documented in README.md, not gated"
             if ok else "README.md lacks the full-scale run section")
