"""Architecture parsing and the FLOPs/parameter analyzer.

The shipped full-size specs are pinned to exact integer totals that were
derived once by hand from the layer formulas (conv: K^2*Cin*Cout*Hout*Wout,
dense: Din*Dout, everything else free). Masked cases are checked against
small hand-worked examples.
"""

import numpy as np
import pytest

from cascadeprune.arch import (ArchError, compression_report, count_stats,
                               load_arch, parse_arch)
from cascadeprune.masking import FilterMask

import pathlib

ARCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "src/cascadeprune/archs"


TOY = """
input c=1 h=4 w=4
conv k=3 in=1 out=4 maskable=false
relu
conv k=3 in=4 out=6
relu
pool kind=max k=2 stride=2
conv k=3 in=6 out=8
relu
pool kind=gap
classifier in=8 out=3
"""


class TestParser:
    def test_round_trip_structure(self):
        spec = parse_arch(TOY, name="toy")
        assert (spec.in_c, spec.in_h, spec.in_w) == (1, 4, 4)
        assert spec.classes == 3
        assert spec.maskable_sizes == {0: 6, 1: 8}

    def test_single_unit_conv(self):
        """1x1 conv, one channel in and out, 1x1 input: 1 FLOP, 1 param."""
        spec = parse_arch("input c=1 h=1 w=1\n"
                          "conv k=1 in=1 out=1\n"
                          "classifier in=1 out=1\n")
        r = count_stats(spec)
        conv_row = r.layers[0]
        assert conv_row.flops == 1 and conv_row.params == 1

    def test_error_carries_line_number(self):
        bad = "input c=3 h=8 w=8\nconv k=3 in=4 out=8\nclassifier in=512 out=10\n"
        with pytest.raises(ArchError, match=r":2:"):
            parse_arch(bad)
        with pytest.raises(ArchError, match=r":4: bn expects c=4, got c=3"):
            parse_arch("input c=4 h=4 w=4\n"
                       "block\n  conv k=3 in=4 out=4\n  bn c=3\n"
                       "pool kind=gap\nclassifier in=4 out=2\n")

    def test_rejects_missing_classifier(self):
        with pytest.raises(ArchError, match="classifier"):
            parse_arch("input c=1 h=4 w=4\nconv k=3 in=1 out=2\n")

    def test_rejects_trailing_layers(self):
        with pytest.raises(ArchError, match="classifier"):
            parse_arch("input c=1 h=1 w=1\nclassifier in=1 out=2\nrelu\n")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ArchError, match="dropout"):
            parse_arch("input c=1 h=4 w=4\ndropout p=0.5\nclassifier in=16 out=2\n")
        with pytest.raises(ArchError, match=r":4: 'pool' not allowed inside a block"):
            parse_arch("input c=2 h=4 w=4\n"
                       "block\n  conv k=3 in=2 out=2\n  pool kind=max k=2 stride=2\n"
                       "pool kind=gap\nclassifier in=2 out=2\n")

    def test_rejects_bad_token(self):
        with pytest.raises(ArchError, match="key=value"):
            parse_arch("input c=1 h=4 w=4\nconv 3x3\nclassifier in=16 out=2\n")
        with pytest.raises(ArchError, match=r":4: relu takes no arguments"):
            parse_arch("input c=2 h=4 w=4\n"
                       "block\n  conv k=3 in=2 out=2\n  relu inplace=true\n"
                       "pool kind=gap\nclassifier in=2 out=2\n")

    def test_rejects_duplicate_key(self):
        with pytest.raises(ArchError, match="duplicate"):
            parse_arch("input c=1 h=4 w=4 c=2\nclassifier in=16 out=2\n")

    def test_rejects_indent_outside_block(self):
        with pytest.raises(ArchError, match="indented"):
            parse_arch("input c=1 h=4 w=4\n  conv k=3 in=1 out=2\n"
                       "classifier in=32 out=2\n")

    def test_rejects_dense_width_mismatch(self):
        with pytest.raises(ArchError, match="in=16"):
            parse_arch("input c=1 h=4 w=4\nclassifier in=20 out=2\n")

    def test_rejects_conv_after_flatten(self):
        with pytest.raises(ArchError, match="flatten"):
            parse_arch("input c=1 h=2 w=2\ndense in=4 out=8\n"
                       "conv k=1 in=8 out=4\nclassifier in=4 out=2\n")
        with pytest.raises(ArchError,
                           match=r":3: bn after the features were flattened"):
            parse_arch("input c=2 h=2 w=2\npool kind=gap\nbn\n"
                       "classifier in=2 out=2\n")

    def test_rejects_identity_block_width_change(self):
        with pytest.raises(ArchError, match="proj"):
            parse_arch("input c=4 h=8 w=8\n"
                       "block\n  conv k=3 in=4 out=8\n  bn\n"
                       "pool kind=gap\nclassifier in=8 out=2\n")

    @pytest.mark.parametrize("text, line", [
        ("input c=1 h=2 w=2\nconv k=5 in=1 out=2 pad=valid\n"
         "classifier in=8 out=2\n", 2),
        ("input c=1 h=2 w=2\ndwconv k=3 pad=valid\nclassifier in=4 out=2\n", 2),
        ("input c=1 h=2 w=2\nconv k=1 in=1 out=2\n"
         "pool kind=max k=3 stride=1\nclassifier in=8 out=2\n", 3),
        ("input c=2 h=2 w=2\nblock\n  conv k=1 in=2 out=2\n"
         "  conv k=3 in=2 out=2 pad=valid\nclassifier in=8 out=2\n", 4),
    ], ids=["conv", "dwconv", "maxpool", "block-conv"])
    def test_rejects_oversized_valid_window(self, text, line):
        """A valid window larger than its input is reported at its own
        line, inside a block body as well as at the top level."""
        with pytest.raises(ArchError, match=rf":{line}: \dx\d window does not fit"):
            parse_arch(text)

    def test_dwconv_valid_padding_is_priced(self):
        """A valid 3x3 depthwise conv shrinks 6x6 to 4x4, so the flattened
        classifier sees 4*4*4 = 64 inputs: 64*2 = 128 FLOPs."""
        spec = parse_arch("input c=2 h=6 w=6\n"
                          "conv k=3 in=2 out=4 maskable=false\nbn\nrelu\n"
                          "dwconv k=3 pad=valid\nbn\nrelu\n"
                          "classifier in=64 out=2\n")
        rows = {r.label: r for r in count_stats(spec).layers}
        assert rows["dwconv0"].out_shape == (4, 4, 4)
        assert rows["dwconv0"].flops == 3 * 3 * 4 * 4 * 4
        assert rows["classifier"].flops == 128

    def test_comments_and_blanks_ignored(self):
        spec = parse_arch("# header\ninput c=1 h=1 w=1\n\n"
                          "conv k=1 in=1 out=2  # inline\n"
                          "classifier in=2 out=2\n")
        assert spec.maskable_sizes == {0: 2}


class TestShippedSpecs:
    def test_vgg16_cifar10_exact_totals(self):
        r = count_stats(load_arch(ARCH_DIR / "vgg16_cifar10.arch"))
        assert r.total_params == 14_977_728
        assert r.total_flops == 313_463_808
        # 13 convs + 2 dense rows carry all the cost
        assert len(r.layers) == 15

    def test_vgg16_displayed_totals(self):
        r = count_stats(load_arch(ARCH_DIR / "vgg16_cifar10.arch"))
        assert round(r.total_params / 1e6, 2) == 14.98
        assert round(r.total_flops / 1e6) == 313

    def test_resnet50_exact_totals(self):
        r = count_stats(load_arch(ARCH_DIR / "resnet50_imagenet.arch"))
        assert r.total_flops == 3_857_973_248
        assert r.total_params == 25_502_912
        assert len(r.layers) == 1 + 16 * 3 + 4 + 1

    def test_resnet50_block_subtotals(self):
        """Stem, sixteen bottleneck blocks, classifier; each group's
        cost matches the hand-derived value in millions."""
        r = count_stats(load_arch(ARCH_DIR / "resnet50_imagenet.arch"))
        groups = dict((g, (f, p)) for g, f, p in r.by_group())
        assert groups["conv0"] == (118_013_952, 9_408)
        assert groups["block0"] == (231_211_008, 73_728)
        assert groups["block1"] == (218_365_952, 69_632)
        assert groups["block3"] == (295_436_288, 376_832)
        assert groups["block4"] == (218_365_952, 278_528)
        assert groups["block7"] == (295_436_288, 1_507_328)
        assert groups["block8"] == (218_365_952, 1_114_112)
        assert groups["block13"] == (295_436_288, 6_029_312)
        assert groups["block14"] == (218_365_952, 4_456_448)
        assert groups["classifier"] == (2_048_000, 2_048_000)

    def test_mobilenet_parses_and_counts(self):
        """Best-effort 32x32 spec; values frozen as regression anchors,
        not as a reproduction of any published figure."""
        r = count_stats(load_arch(ARCH_DIR / "mobilenetv1_cifar100.arch"))
        assert r.total_flops == 46_446_592
        assert r.total_params == 3_287_488


class TestMaskedCounts:
    def test_hand_worked_masked_totals(self):
        """TOY with 3 of 6 kept on layer 0 and 2 of 8 on layer 1.
        conv0 (unmaskable) 36p/576f; conv1 9*4*3=108p, x16 -> 1728f;
        conv2 9*3*2=54p, x4 -> 216f; classifier 2*3=6/6."""
        spec = parse_arch(TOY, name="toy")
        mask = FilterMask({0: [1, 1, 1, 0, 0, 0], 1: [1, 0, 1, 0, 0, 0, 0, 0]})
        r = count_stats(spec, mask)
        assert r.total_params == 36 + 108 + 54 + 6 == 204
        assert r.total_flops == 576 + 1728 + 216 + 6 == 2526

    def test_all_ones_mask_equals_unmasked(self):
        spec = load_arch(ARCH_DIR / "vgg16_cifar10.arch")
        full = count_stats(spec)
        masked = count_stats(spec, spec.full_mask())
        assert masked.total_flops == full.total_flops
        assert masked.total_params == full.total_params

    def test_half_in_half_out_quarters_the_layer(self):
        spec = parse_arch("input c=1 h=8 w=8\n"
                          "conv k=3 in=1 out=4 maskable=false\n"
                          "conv k=3 in=4 out=4\n"
                          "conv k=3 in=4 out=8\n"
                          "pool kind=gap\nclassifier in=8 out=2\n")
        full = count_stats(spec)
        mask = FilterMask({0: [1, 1, 0, 0], 1: [1, 1, 1, 1, 0, 0, 0, 0]})
        half = count_stats(spec, mask)
        # the second maskable conv: in and out both halved
        assert half.layers[2].flops * 4 == full.layers[2].flops
        assert half.layers[2].params * 4 == full.layers[2].params

    def test_removing_filters_never_raises_cost(self):
        """Monotonicity: flipping any kept filter off cannot increase
        either total."""
        rng = np.random.default_rng(5)
        spec = parse_arch(TOY, name="toy")
        mask = spec.full_mask()
        base = count_stats(spec, mask)
        for _ in range(40):
            m2 = mask.copy()
            lid = int(rng.choice(list(m2.layers)))
            kept_idx = np.flatnonzero(m2.layers[lid])
            if kept_idx.size <= 1:
                continue
            m2.layers[lid][rng.choice(kept_idx)] = False
            r2 = count_stats(spec, m2)
            assert r2.total_flops <= base.total_flops
            assert r2.total_params <= base.total_params
            mask, base = m2, r2

    def test_residual_join_takes_wider_branch(self):
        """Hand-worked residual case: the join width is the max of body
        and shortcut kept counts, and feeds the next block's input."""
        text = ("input c=1 h=8 w=8\n"
                "conv k=3 in=1 out=4 maskable=false\nbn\nrelu\n"
                "block proj=true\n"
                "  conv k=3 in=4 out=6\n  bn\n"
                "block\n"
                "  conv k=3 in=6 out=6\n  bn\n"
                "pool kind=gap\nclassifier in=6 out=2\n")
        spec = parse_arch(text)
        assert spec.maskable_sizes == {0: 6, 1: 6, 2: 6}
        mask = FilterMask({0: [1, 1, 0, 0, 0, 0],          # body: 2 kept
                           1: [1, 1, 1, 1, 1, 0],          # proj: 5 kept
                           2: [1, 1, 1, 0, 0, 0]})         # next body: 3 kept
        r = count_stats(spec, mask)
        assert r.total_params == 36 + 72 + 20 + 135 + 10 == 273
        assert r.total_flops == 2304 + 4608 + 1280 + 8640 + 10 == 16842

    def test_mask_layer_size_checked(self):
        spec = parse_arch(TOY, name="toy")
        with pytest.raises(ArchError, match="layer 1"):
            count_stats(spec, FilterMask({0: [1] * 6, 1: [1] * 5}))
        with pytest.raises(ArchError, match="missing"):
            count_stats(spec, FilterMask({0: [1] * 6}))


RESIDUAL = """
input c=3 h=8 w=8
conv k=3 in=3 out=4 maskable=false
bn
relu
conv k=3 in=4 out=6
bn
relu
block proj=true
  conv k=3 in=6 out=8 stride=2
  bn
  relu
  conv k=3 in=8 out=8
  bn
block
  conv k=3 in=8 out=8
  bn
bn
dwconv k=3
bn
relu
dense in=128 out=5
classifier in=5 out=3
"""


class TestPlan:
    """The compiled plan of a residual arch with a projection block, an
    identity block, a depthwise conv and a dense head fed by an
    unflattened map."""

    def test_ops_and_registers(self):
        plan = parse_arch(RESIDUAL).plan
        assert [st.op for st in plan] == [
            "conv", "bn", "relu", "conv", "bn", "relu",
            "fork", "conv", "bn", "relu", "conv", "bn", "conv", "bn", "add",
            "relu",
            "fork", "conv", "bn", "add", "relu",
            "bn", "dwconv", "bn", "relu", "dense", "dense"]
        # fork writes the shortcut, the projection runs on it, add reads it
        assert [i for i, st in enumerate(plan) if st.reg == "s"] == [6, 12, 13,
                                                                   16]
        convs = [st.layer for st in plan if st.op == "conv"]
        assert [c.label for c in convs] == [
            "conv0", "conv1", "block0.conv0", "block0.conv1", "block0.proj",
            "block1.conv0"]
        assert [c.layer_id for c in convs] == [None, 0, 1, 2, 3, 4]

    def test_bn_and_dense_indices(self):
        plan = parse_arch(RESIDUAL).plan
        bns = [(i, st.index) for i, st in enumerate(plan) if st.op == "bn"]
        # the projection's bn (step 13, on s) follows the body's (step 11)
        assert bns == [(1, 0), (4, 1), (8, 2), (11, 3), (13, 4), (18, 5),
                       (21, 6), (23, 7)]
        assert plan[13].reg == "s"
        assert [st.layer.c for st in plan if st.op == "bn"] == [4, 6, 8, 8, 8,
                                                               8, 8, 8]
        dense = [st for st in plan if st.op == "dense"]
        assert [(st.index, st.per, st.out) for st in dense] == [
            (0, 16, (5,)), (1, 1, (3,))]
        assert plan[6].out == (6, 8, 8) and plan[12].out == (8, 4, 4)

    def test_hint_taps(self):
        plan = parse_arch(RESIDUAL).plan
        taps = {i: st.taps for i, st in enumerate(plan) if st.taps}
        # conv1's tap moves past its bn and relu; a block's stays on its
        # closing relu although a top-level bn follows block1
        assert taps == {5: (0,), 15: (1, 2, 3), 20: (4,)}

    def test_dense_fed_by_unflattened_map(self):
        """Full: stem 108p/6912f, conv1 216p/13824f, block0 body 432p/
        6912f and 576p/9216f, proj 48p/768f, block1 576p/9216f, dwconv
        72p/1152f, dense 8*16*5=640, classifier 15.
        Masked (3/6, 4/8, 2/8, 5/8, 3/8 kept): stem 108p/6912f, conv1
        108p/6912f, body 108p/1728f and 72p/1152f, proj 3*5=15p/240f
        (fork width 3), join max(2, 5)=5, block1 9*5*3=135p/2160f, join
        max(3, 5)=5, dwconv 45p/720f, dense 5*16*5=400, classifier 15."""
        spec = parse_arch(RESIDUAL)
        full = count_stats(spec)
        assert full.total_params == 108 + 216 + 432 + 576 + 48 + 576 + 72 \
            + 640 + 15 == 2683
        assert full.total_flops == 6912 + 13824 + 6912 + 9216 + 768 + 9216 \
            + 1152 + 640 + 15 == 48655
        mask = FilterMask({0: [1, 1, 1, 0, 0, 0],
                           1: [1, 1, 1, 1, 0, 0, 0, 0],
                           2: [1, 1, 0, 0, 0, 0, 0, 0],
                           3: [1, 1, 1, 1, 1, 0, 0, 0],
                           4: [1, 1, 1, 0, 0, 0, 0, 0]})
        r = count_stats(spec, mask)
        assert r.total_params == 108 + 108 + 108 + 72 + 15 + 135 + 45 + 400 \
            + 15 == 1006
        assert r.total_flops == 6912 + 6912 + 1728 + 1152 + 240 + 2160 + 720 \
            + 400 + 15 == 20239
        assert r.layers[-2].params == 400
        assert [row.group for row in r.layers] == [
            "conv0", "conv1", "block0", "block0", "block0", "block1",
            "dwconv0", "dense0", "classifier"]


class TestCompressionReport:
    def test_identity(self):
        rep = compression_report((100, 50), (100, 50))
        assert rep.flops_ratio == 1.0 and rep.param_ratio == 1.0
        assert rep.param_reduction_pct == 0.0

    def test_published_vgg_ratios(self):
        """Against the published pruned-model numbers, the computed
        baseline gives 1.9x params and 2.3x FLOPs at one decimal."""
        base = count_stats(load_arch(ARCH_DIR / "vgg16_cifar10.arch"))
        rep = compression_report(base, (134_000_000, 7_760_000))
        assert f"{rep.param_ratio:.1f}" == "1.9"
        assert f"{rep.flops_ratio:.1f}" == "2.3"

    def test_published_resnet_ratios(self):
        base = count_stats(load_arch(ARCH_DIR / "resnet50_imagenet.arch"))
        rep = compression_report(base, (1_040_000_000, base.total_params))
        assert f"{rep.flops_ratio:.1f}" == "3.7"

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            compression_report((10, 10), (0, 5))

    def test_str_is_readable(self):
        rep = compression_report((200, 100), (100, 50))
        s = str(rep)
        assert "2.0x" in s and "50.0%" in s
