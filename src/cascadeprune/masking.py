"""Learned filter-level pruning masks.

Each prunable conv layer owns one importance score per output filter.
A binary mask is derived from the scores by global ranking: keep the
top fraction across all layers together, then repair any layer that
fell below its floor. Scores receive a straight-through surrogate
gradient (gradient of the loss w.r.t. a per-channel multiplier,
evaluated on the unmasked pre-activation) so that disabled filters can
still compete and re-enter on later mask refreshes.

Every pass runs through one op set (hierarchy._KeptWidth), which
carries activations at their live channels and convolves gathered
kernel rows and columns, so its cost falls with the keep ratio. Only in
a pass that saves routing contexts does a masked conv run
``autodiff.masked_conv2d`` instead: one op that computes every filter
and zeroes the pruned ones, whose backward keeps the kernel gradient G
of the unmasked output gradient, from which score routing reads the
surrogate below as a contraction with the kernel. Both agree in outputs
and gradients up to float summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import conv2d_kernel_grad
# not called here: bench/tracing.py wraps this name (ROADMAP item 1 drops it)
from .autodiff import conv2d_raw  # noqa: F401


class MaskError(ValueError):
    """Raised when a mask request is infeasible or malformed."""


@dataclass(frozen=True)
class PruneConfig:
    """How much to keep and how low a layer may go.

    keep_ratio: fraction of all prunable filters to keep, in (0, 1].
    min_filters: per-layer floor; no layer's kept count drops below it.
    """
    keep_ratio: float
    min_filters: int = 1

    def __post_init__(self):
        if not 0.0 < self.keep_ratio <= 1.0:
            raise MaskError(f"keep_ratio must be in (0, 1], got {self.keep_ratio}")
        if self.min_filters < 0:
            raise MaskError(f"min_filters must be >= 0, got {self.min_filters}")


class ImportanceScores:
    """Per-layer float score vectors, keyed by layer id."""

    def __init__(self, layers: dict[int, np.ndarray]):
        self.layers = {lid: np.asarray(v, dtype=np.float64).copy()
                       for lid, v in layers.items()}
        for lid, v in self.layers.items():
            if v.ndim != 1 or v.size == 0:
                raise MaskError(f"layer {lid}: scores must be a non-empty vector")

    @classmethod
    def from_weights(cls, weights: dict[int, np.ndarray]) -> "ImportanceScores":
        """Initialize from kernel magnitudes: per-filter L1 norm, rescaled
        to unit mean within each layer so layers start on equal footing."""
        layers = {}
        for lid, w in weights.items():
            if w.ndim != 4:
                raise MaskError(f"layer {lid}: expected (K,K,Cin,Cout) kernel")
            l1 = np.abs(w).sum(axis=(0, 1, 2)).astype(np.float64)
            mean = l1.mean()
            layers[lid] = l1 / mean if mean > 0 else np.ones_like(l1)
        return cls(layers)

    def total_filters(self) -> int:
        return sum(v.size for v in self.layers.values())

    def copy(self) -> "ImportanceScores":
        return ImportanceScores(self.layers)


class FilterMask:
    """Per-layer boolean keep vectors, keyed by layer id."""

    def __init__(self, layers: dict[int, np.ndarray]):
        self.layers = {lid: np.asarray(v, dtype=bool).copy()
                       for lid, v in layers.items()}

    def kept_per_layer(self) -> dict[int, int]:
        return {lid: int(v.sum()) for lid, v in self.layers.items()}

    def kept_total(self) -> int:
        return sum(int(v.sum()) for v in self.layers.values())

    def hamming(self, other: "FilterMask") -> int:
        """Number of filters whose keep bit differs between the two masks."""
        if set(self.layers) != set(other.layers):
            raise MaskError("masks cover different layer sets")
        return sum(int((self.layers[lid] != other.layers[lid]).sum())
                   for lid in self.layers)

    def copy(self) -> "FilterMask":
        return FilterMask(self.layers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FilterMask):
            return NotImplemented
        return set(self.layers) == set(other.layers) and \
            all(np.array_equal(self.layers[k], other.layers[k]) for k in self.layers)


def keep_count(keep_ratio: float, total: int) -> int:
    """Round half-up: floor(ratio * total + 0.5)."""
    return int(np.floor(keep_ratio * total + 0.5))


def build_mask(scores: ImportanceScores, config: PruneConfig) -> FilterMask:
    """Global top-k mask with per-layer floor repair.

    Filters from every layer are ranked together by score, descending,
    ties broken by (layer id, filter index) ascending, and the top
    keep_count are marked kept. While some layer holds fewer than
    min_filters kept, one exchange is made: that layer's best disabled
    filter is enabled and the weakest kept filter of any layer still
    strictly above the floor is disabled. The kept total never changes.
    """
    total = scores.total_filters()
    n_keep = keep_count(config.keep_ratio, total)
    floor_sum = sum(min(config.min_filters, v.size) for v in scores.layers.values())
    if n_keep < floor_sum:
        raise MaskError(f"cannot keep {n_keep} of {total} filters while "
                        f"honoring a floor of {config.min_filters} per layer")

    if not scores.layers:
        return FilterMask({})
    # one stable sort per key, the last key first: score descending, then
    # layer id, then filter index; -0.0 and +0.0 compare equal and tie
    lids = list(scores.layers)
    sizes = [scores.layers[lid].size for lid in lids]
    layer_of = np.repeat(lids, sizes)
    index_of = np.concatenate([np.arange(n) for n in sizes])
    flat = np.concatenate([scores.layers[lid] for lid in lids])
    keep = np.zeros(total, dtype=bool)
    keep[np.lexsort((index_of, layer_of, -flat))[:n_keep]] = True
    mask = dict(zip(lids, np.split(keep, np.cumsum(sizes)[:-1])))

    def floor_of(lid: int) -> int:
        return min(config.min_filters, mask[lid].size)

    while True:
        short = [lid for lid in sorted(mask) if mask[lid].sum() < floor_of(lid)]
        if not short:
            break
        lid = short[0]
        enable = max((i for i in range(mask[lid].size) if not mask[lid][i]),
                     key=lambda i: (scores.layers[lid][i], -i))
        # weakest kept filter among layers that can spare one
        donor = min(((dl, i) for dl, v in mask.items() if v.sum() > floor_of(dl)
                     for i in range(v.size) if v[i]),
                    key=lambda e: (scores.layers[e[0]][e[1]], -e[0], -e[1]))
        mask[lid][enable] = True
        mask[donor[0]][donor[1]] = False

    return FilterMask(mask)


def contract_kernel_grad(w: np.ndarray, kernel_grad: np.ndarray) -> np.ndarray:
    """Per output filter, the sum over (kh, kw, cin) of w * kernel_grad:
    with kernel_grad = patches(x)^T . dL_dY, this is sum over batch and
    positions of dL_dY * (x conv w)."""
    return (w * kernel_grad).sum(axis=(0, 1, 2))


def surrogate_gamma_grad(dL_dY: np.ndarray, x: np.ndarray, w: np.ndarray,
                         stride: int = 1, padding: str = "same") -> np.ndarray:
    """Score gradient through the straight-through estimator.

    Treating the binary mask as a per-channel multiplier gamma on the
    raw conv output Y = gamma * (X conv W), the loss gradient is

        d loss / d gamma[n] = sum over batch and positions of
                              dL_dY[:, n] * (X conv W)[:, n]

    computed on the unmasked product, so a disabled filter still sees a
    meaningful gradient and can climb back above the keep threshold. It
    is evaluated as the contraction of W with the kernel gradient of
    dL_dY, through the same two helpers as score routing, which reads the
    kernel gradient that autodiff.masked_conv2d's backward kept.
    """
    return contract_kernel_grad(w, conv2d_kernel_grad(x, dL_dY, w.shape,
                                                      stride, padding))
