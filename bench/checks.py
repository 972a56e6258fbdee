"""Independent computations the workloads check the program against.

Nothing here calls the program's conv kernels or cost counter: the
convolution is a shifted-slice sum, the cost count tracks sets of live
channels, and mask sizes are recomputed from the keep ratio.
"""

from __future__ import annotations

import math

import numpy as np

from cascadeprune import autodiff as ad
from cascadeprune.arch import BlockL, BNL, ClassifierL, ConvL, DenseL, DWConvL, PoolL
from cascadeprune.masking import FilterMask


def _same_geometry(size: int, k: int, stride: int) -> tuple[int, int, int]:
    out = -(-size // stride)
    pad = max((out - 1) * stride + k - size, 0)
    return out, pad // 2, pad - pad // 2


def _out_size(size: int, k: int, stride: int, padding: str) -> int:
    if padding == "same":
        return _same_geometry(size, k, stride)[0]
    return (size - k) // stride + 1


def conv_ref(x: np.ndarray, w: np.ndarray, stride: int, padding: str) -> np.ndarray:
    """Cross-correlation as a sum of K*K shifted-slice matrix products.
    x (N,C,H,W), w (K,K,Cin,Cout) -> (N,Cout,Ho,Wo)."""
    n, c, h, wd = x.shape
    k = w.shape[0]
    if padding == "same":
        ho, top, bottom = _same_geometry(h, k, stride)
        wo, left, right = _same_geometry(wd, k, stride)
        x = np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))
    else:
        ho, wo = (h - k) // stride + 1, (wd - k) // stride + 1
    y = np.zeros((n, ho, wo, w.shape[3]), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            patch = x[:, :, i:i + stride * (ho - 1) + 1:stride,
                      j:j + stride * (wo - 1) + 1:stride]
            y += np.tensordot(patch, w[i, j], axes=([1], [0]))
    return y.transpose(0, 3, 1, 2)


def route_mismatches(h, forwards, routed, kernels) -> list[str]:
    """Compare each scored slot's routed score gradient with the
    straight-through reduction over the next slot's saved context:
    sum over batch and positions of dL/d(masked out) * (x conv w), with
    w the kernels the forward pass ran on (``kernels`` maps each shared
    parameter's id to a copy taken before the step).

    The tolerance is relative to the sum of absolute products, which
    bounds the rounding error of either float32 reduction.
    """
    bad = []
    if sorted(routed) != list(range(len(h.slots) - 1)):
        return [f"routed slots {sorted(routed)}"]
    for i, layers in routed.items():
        ctxs = forwards[i + 1].contexts
        if sorted(layers) != sorted(h.arch.maskable_sizes):
            bad.append(f"slot {i}: layers {sorted(layers)}")
            continue
        for lid, got in layers.items():
            ctx = ctxs[lid]
            prod = ctx.out.grad.astype(np.float64) * conv_ref(
                ctx.x.data, kernels[id(ctx.weight)], ctx.stride, ctx.padding)
            want = prod.sum(axis=(0, 2, 3))
            scale = np.abs(prod).sum(axis=(0, 2, 3))
            del prod
            if not np.all(np.abs(got - want) <= 1e-4 * scale + 1e-30):
                worst = float(np.max(np.abs(got - want) / (scale + 1e-30)))
                bad.append(f"slot {i} layer {lid}: relative error {worst:.2e}")
    return bad


def mask_violations(h) -> list[str]:
    """Each scored slot keeps round-half-up(r * total) filters with every
    layer at or above the floor; the top slot keeps everything."""
    bad = []
    for slot in h.slots[:-1]:
        layers = slot.state.mask.layers
        total = sum(v.size for v in layers.values())
        want = int(math.floor(slot.keep_ratio * total + 0.5))
        kept = sum(int(v.sum()) for v in layers.values())
        if kept != want:
            bad.append(f"slot {slot.index} keeps {kept}, expected {want}")
        for lid, v in layers.items():
            if v.sum() < min(h.min_filters, v.size):
                bad.append(f"slot {slot.index} layer {lid} below the floor")
    if not all(v.all() for v in h.top.state.mask.layers.values()):
        bad.append("top slot mask is not all ones")
    return bad


def union_join_flops(arch, mask) -> int:
    """FLOPs with each layer priced at the channels that are actually
    live: a conv's kept filters, carried through bn, relu and depthwise
    convs, and the union of both branches at a residual join."""
    flops = 0

    def conv(layer, live, h, w):
        nonlocal flops
        ho = _out_size(h, layer.k, layer.stride, layer.padding)
        wo = _out_size(w, layer.k, layer.stride, layer.padding)
        if layer.maskable:
            out = set(np.flatnonzero(mask.layers[layer.layer_id]).tolist())
        else:
            out = set(range(layer.cout))
        flops += layer.k * layer.k * len(live) * len(out) * ho * wo
        return out, ho, wo

    live, h, w = set(range(arch.in_c)), arch.in_h, arch.in_w
    flat = None
    for it in arch.items:
        if isinstance(it, ConvL):
            live, h, w = conv(it, live, h, w)
        elif isinstance(it, DWConvL):
            h = _out_size(h, it.k, it.stride, "same")
            w = _out_size(w, it.k, it.stride, "same")
            flops += it.k * it.k * len(live) * h * w
        elif isinstance(it, PoolL):
            if it.kind == "max":
                h = _out_size(h, it.k, it.stride, it.padding)
                w = _out_size(w, it.k, it.stride, it.padding)
            else:
                flat = len(live)
        elif isinstance(it, (DenseL, ClassifierL)):
            din = flat if flat is not None else len(live) * h * w
            flops += din * it.dout
            flat = it.dout
        elif isinstance(it, BlockL):
            entry, eh, ew = live, h, w
            for b in it.body:
                if isinstance(b, ConvL):
                    live, h, w = conv(b, live, h, w)
            short = conv(it.proj, entry, eh, ew)[0] if it.proj is not None else entry
            live = live | short
    return flops


def disjoint_join_mask(arch):
    """A mask on the first projection block whose body keeps the lower
    half of its output channels and whose shortcut keeps the upper half;
    every other layer keeps everything."""
    block = next(it for it in arch.items if isinstance(it, BlockL) and it.proj is not None)
    last = [b for b in block.body if isinstance(b, ConvL)][-1]
    layers = {lid: np.ones(size, dtype=bool) for lid, size in arch.maskable_sizes.items()}
    half = last.cout // 2
    layers[last.layer_id][half:] = False
    layers[block.proj.layer_id][:half] = False
    return FilterMask(layers)


def bn_after_masked_conv(arch) -> list[tuple[int, int]]:
    """(bn index, layer id) for every batch norm that directly follows a
    maskable conv, in the order slot states store their batch norms: a
    block's body first, then its projection shortcut."""
    pairs, idx, prev = [], 0, None
    for it in arch.items:
        if isinstance(it, BlockL):
            for b in it.body:
                if isinstance(b, BNL):
                    if isinstance(prev, ConvL) and prev.maskable:
                        pairs.append((idx, prev.layer_id))
                    idx += 1
                elif isinstance(b, ConvL):
                    prev = b
            if it.proj is not None:
                pairs.append((idx, it.proj.layer_id))
                idx += 1
            prev = None
        elif isinstance(it, BNL):
            if isinstance(prev, ConvL) and prev.maskable:
                pairs.append((idx, prev.layer_id))
            idx += 1
        elif isinstance(it, (ConvL, DWConvL)):
            prev = it
    return pairs


def silence_gap(h, images: np.ndarray) -> float:
    """Largest change of the student's eval logits when the batch-norm
    offsets and running means of its pruned channels are zeroed. A
    pruned filter that contributes nothing downstream gives 0."""
    with ad.no_grad():
        before = h.forward_slot(0, images, mode="eval").logits.data.copy()
    st = h.student.state
    for bn_idx, lid in bn_after_masked_conv(h.arch):
        pruned = ~st.mask.layers[lid]
        bn = st.bns[bn_idx]
        beta = bn.beta.data.copy()
        beta[pruned] = 0.0
        bn.beta.assign(beta)
        bn.running_mean = bn.running_mean.copy()
        bn.running_mean[pruned] = 0.0
    with ad.no_grad():
        after = h.forward_slot(0, images, mode="eval").logits.data
    return float(np.abs(after - before).max() / max(1.0, np.abs(before).max()))
