"""Span tracing from outside the program.

The tracer replaces a function at the name its caller looks up (a module
global such as ``cascadeprune.masking.conv2d_raw``, or a class attribute
such as ``ModelHierarchy.forward_all``) with a wrapper that records one
span per call: name, start, end, parent span and the training step it
ran in. ``remove`` puts every original back, so untraced rounds run the
program exactly as shipped.

Training steps are delimited by wrapping ``cascadeprune.training.batches``:
a step span opens when a batch is handed to a training loop and closes
when the loop asks for the next one. Batches drawn inside ``evaluate`` are
data spans only.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "count")

    def __init__(self, name, start, parent, step):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.step = step
        self.count = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._step: int | None = None
        self._eval_depth = 0
        self.steps = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._step))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        elif idx in self._stack:
            self._stack.remove(idx)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a span-recording wrapper. count, if
        given, maps (args, result) to the work the call did."""
        original = getattr(owner, attr)
        tracer = self
        is_eval = name == "training.evaluate"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            tracer._eval_depth += is_eval
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._eval_depth -= is_eval
                tracer.close(idx)
            if count is not None:
                tracer.spans[idx].count = count(args, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_batches(self, owner, attr: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            training = tracer._eval_depth == 0
            step_idx = None
            try:
                while True:
                    if step_idx is not None:
                        tracer.close(step_idx)
                        tracer._step = step_idx = None
                    data = tracer.open("data.batch" if training
                                       else "data.eval_batch")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(data)
                    if training:
                        step_idx = tracer.open("training.step")
                        tracer._step = tracer.steps
                        tracer.spans[step_idx].step = tracer.steps
                        tracer.steps += 1
                    yield item
            finally:
                if step_idx is not None:
                    tracer.close(step_idx)
                    tracer._step = None
                inner.close()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the program's public functions at their callers' names."""
        from cascadeprune import autodiff, cli, hierarchy, masking, optim, training

        for method in ("forward_all", "forward_frozen", "forward_slot",
                       "route_gamma_gradients", "refresh_masks"):
            self.wrap(hierarchy.ModelHierarchy, method, f"hierarchy.{method}")
        self.wrap(autodiff, "backward", "autodiff.backward")
        self.wrap(autodiff, "conv2d_raw", "autodiff.conv2d_fwd", _conv_macs)
        self.wrap(autodiff, "depthwise_conv2d_raw", "autodiff.dwconv_fwd",
                  _dwconv_macs)
        for op in ("batch_norm", "max_pool", "relu"):
            self.wrap(autodiff, op, f"autodiff.{op}")
        self.wrap(masking, "conv2d_raw", "masking.surrogate_conv", _conv_macs)
        self.wrap(hierarchy, "surrogate_gamma_grad", "masking.surrogate")
        self.wrap(hierarchy, "build_mask", "masking.build_mask")
        self.wrap(training, "slot_loss", "distill.slot_loss")
        self.wrap(optim.SGDNesterov, "step", "optim.weight_step")
        self.wrap(optim.ScoreOptimizer, "step", "optim.score_step")
        self.wrap(training, "count_stats", "arch.count_stats")
        self.wrap(cli, "count_stats", "arch.count_stats")
        self.wrap(training, "save_checkpoint", "checkpoint.save",
                  lambda args, out: float(os.path.getsize(args[0])))
        for fn in ("evaluate", "evaluate_frozen"):
            self.wrap(training, fn, "training.evaluate")
            self.wrap(cli, fn, "training.evaluate")
        for stage in ("pretrain_top", "joint_epoch", "finetune_epoch"):
            self.wrap(training.Trainer, stage, f"training.{stage}")
        self.wrap_batches(training, "batches")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per span: index, name, start and end (seconds,
    perf_counter clock), parent index, step index and work count."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "step": s.step, "count": s.count}) + "\n")


def _conv_macs(args, out) -> float:
    k, _, cin, _ = args[1].shape
    return float(out.size) * k * k * cin


def _dwconv_macs(args, out) -> float:
    k = args[1].shape[0]
    return float(out.size) * k * k


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# span name -> metric name; each is the span's total time inside training
# steps, divided by the number of steps
PER_STEP_MS = {
    "hierarchy.forward_all": "hierarchy.forward_all_ms",
    "hierarchy.forward_frozen": "hierarchy.forward_frozen_ms",
    "hierarchy.route_gamma_gradients": "hierarchy.route_gamma_gradients_ms",
    "hierarchy.refresh_masks": "hierarchy.refresh_masks_ms",
    "autodiff.backward": "autodiff.backward_ms",
    "autodiff.conv2d_fwd": "autodiff.conv2d_fwd_ms",
    "autodiff.dwconv_fwd": "autodiff.dwconv_fwd_ms",
    "autodiff.batch_norm": "autodiff.batch_norm_ms",
    "autodiff.max_pool": "autodiff.max_pool_ms",
    "autodiff.relu": "autodiff.relu_ms",
    "masking.surrogate": "masking.surrogate_ms",
    "masking.build_mask": "masking.build_mask_ms",
    "distill.slot_loss": "distill.slot_loss_ms",
    "optim.weight_step": "optim.weight_step_ms",
    "optim.score_step": "optim.score_step_ms",
    "arch.count_stats": "arch.count_stats_ms",
}


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from one set of traced rounds.

    Times and MAC counts are per training step; GMAC/s rates and
    forward_slot time take every call, training and eval alike; the
    checkpoint figures are per save.
    """
    step_spans = [s for s in spans if s.name == "training.step"]
    steps = max(len(step_spans), 1)
    in_step: dict[str, float] = {}
    work: dict[str, float] = {}
    total: dict[str, list[float]] = {}
    for s in spans:
        if s.step is not None:
            in_step[s.name] = in_step.get(s.name, 0.0) + s.seconds
            work[s.name] = work.get(s.name, 0.0) + s.count
        t = total.setdefault(s.name, [0.0, 0.0, 0])
        t[0] += s.seconds
        t[1] += s.count
        t[2] += 1

    def rate(name):
        secs, count, _ = total.get(name, (0.0, 0.0, 0))
        return count / secs / 1e9 if secs > 0 else 0.0

    def mean(name, idx):
        t = total.get(name)
        return t[idx] / t[2] if t else 0.0

    out = {metric: 1e3 * in_step.get(name, 0.0) / steps
           for name, metric in PER_STEP_MS.items()}
    out["data.batch_ms"] = 1e3 * total.get("data.batch", [0.0])[0] / steps
    out["hierarchy.forward_slot_ms"] = 1e3 * mean("hierarchy.forward_slot", 0)
    out["autodiff.conv2d_fwd_gmac"] = work.get("autodiff.conv2d_fwd", 0.0) / steps / 1e9
    out["autodiff.conv2d_fwd_gmac_per_s"] = rate("autodiff.conv2d_fwd")
    out["autodiff.dwconv_fwd_gmac_per_s"] = rate("autodiff.dwconv_fwd")
    out["masking.surrogate_conv_gmac"] = work.get("masking.surrogate_conv", 0.0) / steps / 1e9
    out["checkpoint.save_ms"] = 1e3 * mean("checkpoint.save", 0)
    out["checkpoint.size_bytes"] = mean("checkpoint.save", 1)
    selfs = self_seconds(spans)
    out["training.step_ms"] = 1e3 * float(np.mean([s.seconds for s in step_spans])) \
        if step_spans else 0.0
    out["training.step_self_ms"] = 1e3 * float(np.mean(
        [selfs[i] for i, s in enumerate(spans) if s.name == "training.step"])) \
        if step_spans else 0.0
    return out
