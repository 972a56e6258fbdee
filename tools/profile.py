"""Say where each slot's eval pass goes: milliseconds per autodiff op kind.

    OPENBLAS_NUM_THREADS=1 python3 tools/profile.py [--arch mobilenetv1_cifar100]
        [--slots 0 3] [--batch 32] [--repeats 5]

Builds the benchmark's hierarchy (student keep ratio 0.5, assistants from
divisors 1.5 and 2.5) at its masks at init and runs each slot's eval pass
with the tape off, as evaluation does: one pass that builds the slot's
memo, then the best of --repeats timed passes, the slots taking turns.
The autodiff functions are wrapped at their module-level names, as
tools/digests.py and bench/tracing.py wrap program functions, and each
op kind is charged its self time (its time less that of the wrapped ops
it calls), taken from the fastest pass.

Per slot it prints the pass time and the op kinds' shares of it, then
count_stats' priced FLOPs, and the realised speedup (the top slot's pass
time over the slot's) beside the priced one (the top slot's FLOPs over
the slot's).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cascadeprune.autodiff as ad  # noqa: E402
from cascadeprune.arch import count_stats  # noqa: E402
from cascadeprune.cli import resolve_arch  # noqa: E402
from cascadeprune.data import synthetic_dataset  # noqa: E402
from cascadeprune.hierarchy import ModelHierarchy, derive_ta_keep_ratios  # noqa: E402

# op kind -> the autodiff functions charged to it
KINDS = {
    "conv": ("conv2d_raw", "conv2d"),
    "depthwise": ("depthwise_conv2d_raw", "depthwise_conv2d"),
    "batch norm": ("batch_norm",),
    "relu": ("relu",),
    "pool": ("max_pool", "global_avg_pool"),
    "dense": ("dense",),
    "add": ("add",),
    "gather": ("gather_kernel", "take", "place"),
}


class OpClock:
    """Self time per op kind, from wrappers installed on the autodiff
    module; a wrapped op that calls another is charged only the time
    outside it."""

    def __init__(self):
        self.ms = dict.fromkeys(KINDS, 0.0)
        self._stack: list[list] = []  # [kind, start, time in children]
        self._originals: list[tuple[str, object]] = []

    def install(self) -> None:
        for kind, names in KINDS.items():
            for name in names:
                original = getattr(ad, name)
                self._originals.append((name, original))
                setattr(ad, name, self._wrap(kind, original))

    def remove(self) -> None:
        for name, original in reversed(self._originals):
            setattr(ad, name, original)
        self._originals.clear()

    def _wrap(self, kind: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [kind, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                spent = time.perf_counter() - frame[1]
                self.ms[kind] += 1e3 * (spent - frame[2])
                if self._stack:
                    self._stack[-1][2] += spent
        return timed

    def reset(self) -> None:
        self.ms = dict.fromkeys(KINDS, 0.0)


def profile(h, slots: list, images: np.ndarray, repeats: int,
            clock: OpClock) -> dict:
    """Per slot, the fastest of `repeats` eval passes after one that
    builds its memo: its milliseconds and its self time per op kind. The
    slots take turns, pass by pass, so that a slow phase of the host
    falls on all of them alike."""
    best = {}
    for r in range(repeats + 1):
        for slot in slots:
            clock.reset()
            t0 = time.perf_counter()
            with ad.no_grad():
                h.forward_slot(slot, images, mode="eval")
            ms = 1e3 * (time.perf_counter() - t0)
            if r and (slot not in best or ms < best[slot][0]):
                best[slot] = (ms, dict(clock.ms))
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--arch", default="mobilenetv1_cifar100")
    ap.add_argument("--slots", type=int, nargs="+",
                    help="slot indices (default: every slot)")
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    arch = resolve_arch(args.arch)
    h = ModelHierarchy(arch, derive_ta_keep_ratios(0.5, (1.5, 2.5)), seed=args.seed)
    images = synthetic_dataset(args.seed, max(args.batch, arch.classes), arch.classes,
                               arch.in_h, arch.in_c).images[:args.batch]
    top = len(h.slots) - 1
    slots = sorted(set(args.slots if args.slots is not None else range(top + 1)) | {top})
    clock = OpClock()
    clock.install()
    try:
        runs = profile(h, slots, images, args.repeats, clock)
    finally:
        clock.remove()
    flops = {s: count_stats(arch, h.slots[s].state.mask).total_flops for s in slots}

    print(f"{args.arch}, eval, batch {args.batch}, best of {args.repeats}, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"{'slot':<5} {'pass ms':>8} " + " ".join(f"{k:>10}" for k in KINDS)
          + f" {'other':>7}")
    for s in slots:
        ms, kinds = runs[s]
        other = ms - sum(kinds.values())
        print(f"{s:<5} {ms:8.2f} " + " ".join(
            f"{kinds[k]:6.2f} {100 * kinds[k] / ms:2.0f}%" for k in KINDS)
            + f" {other:7.2f}")
    print(f"{'slot':<5} {'priced MFLOPs':>14} {'priced speedup':>15} "
          f"{'realised speedup':>17}")
    for s in slots:
        print(f"{s:<5} {flops[s] / 1e6:14.1f} {flops[top] / flops[s]:15.2f} "
              f"{runs[top][0] / runs[s][0]:17.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
