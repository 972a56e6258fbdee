"""The benchmark tracer's contract with the package, checked in a second
rather than in the traced smoke run: every name bench/tracing.py wraps
resolves, remove() puts each original back, the context-saving
masked conv still counts its forward GEMM under autodiff.conv2d_raw,
and a pruned slot's eval pass that reuses its memo shows no one-image
conv there.

The tracer is loaded from its file; nothing under bench/ is edited.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

import cascadeprune.autodiff as ad
from cascadeprune import hierarchy, masking
from cascadeprune.arch import parse_arch

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    t = module.Tracer()
    try:
        t.install()
        yield t
    finally:
        t.remove()


def test_install_wraps_every_name_and_remove_restores_them(tracer):
    patched = list(tracer._patches)
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is not original, attr
    tracer.remove()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_the_names_that_must_still_resolve(tracer):
    """Score routing no longer calls these two, so their spans read 0,
    but the tracer's wrap list still names them."""
    wrapped = {(owner, attr) for owner, attr, _ in tracer._patches}
    assert (hierarchy, "surrogate_gamma_grad") in wrapped
    assert (masking, "conv2d_raw") in wrapped
    assert (ad, "conv2d_raw") in wrapped


def test_masked_conv_forward_counts_as_a_conv_forward(tracer):
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
    w = ad.Tensor(rng.standard_normal((3, 3, 3, 4)).astype(np.float32),
                  requires_grad=True)
    ad.masked_conv2d(x, w, np.array([True, False, True, True]))
    spans = [s for s in tracer.spans if s.name == "autodiff.conv2d_fwd"]
    assert len(spans) == 1 and spans[0].count == 2 * 4 * 6 * 6 * 3 * 3 * 3
    assert not [s for s in tracer.spans if s.name.startswith("masking.")]


NET = """
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


def test_a_memo_hit_makes_no_fold_conv(tracer):
    """A student eval pass without the tape makes one conv2d_fwd span per
    conv; the pass that builds the memo adds one one-image conv over the
    channels its first masked conv pruned, and a pass that reuses the
    memo does not."""
    h = hierarchy.ModelHierarchy(parse_arch(NET), [0.5, 1.0])
    mask = h.student.state.mask.layers
    assert not mask[0].all()
    x = np.random.default_rng(0).standard_normal((2, 1, 8, 8)).astype(np.float32)
    counts = []
    for _ in range(2):
        tracer.spans.clear()
        with ad.no_grad():
            h.forward_slot(0, x, mode="eval")
        counts.append([s.count for s in tracer.spans
                       if s.name == "autodiff.conv2d_fwd"])
    miss, hit = counts
    fold_macs = 1 * 6 * 4 * 4 * 3 * 3 * int((~mask[0]).sum())
    assert len(hit) == 3
    assert len(miss) == 4 and sum(miss) - sum(hit) == fold_macs
