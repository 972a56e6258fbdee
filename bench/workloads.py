"""The benchmark's three workloads.

Each workload has a set-up (sampled several times through the run,
median reported), a warm-up that is neither set-up nor timed, and a
round: a fixed list of operations that the runner repeats until the
run's seconds are spent. Every round attempts the same operations, so
the share of failed operations does not depend on how many rounds a run
fits in.

Operations are training steps (failed when a loss is not finite), eval
passes (failed when a logit is not finite) and correctness checks.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import math
import multiprocessing
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from cascadeprune import autodiff as ad
from cascadeprune import cli, training
from cascadeprune.arch import count_stats
from cascadeprune.checkpoint import load_checkpoint
from cascadeprune.data import Dataset, synthetic_dataset
from cascadeprune.hierarchy import ModelHierarchy, derive_ta_keep_ratios
from cascadeprune.training import TrainConfig, Trainer

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

STUDENT_KEEP = 0.5
TA_DIVISORS = (1.5, 2.5)
FIXED_SEED = 0          # seed of the states the known-fault checks read


class BenchError(RuntimeError):
    """The program could not run a workload to its end."""


class Ops:
    """Attempted and failed operations. A failure of an operation that
    is not a known fault makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "",
               known_fault: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        line = f"{name}: {detail}" if detail else name
        (self.known if known_fault else self.unexpected).append(line)

    @property
    def correct(self) -> bool:
        return not self.unexpected


@dataclass
class Tally:
    """Work and seconds of the timed rounds, and the set-up samples."""
    setup_s: list = field(default_factory=list)
    train_samples: int = 0
    train_s: float = 0.0
    student_images: int = 0
    student_s: float = 0.0
    top_s: float = 0.0
    # per-step seconds of rounds run with and without tracing
    step_s: dict = field(default_factory=lambda: {True: [], False: []})


def eval_pair(h, images: np.ndarray, student_first: bool, ops: Ops,
              tally: Tally) -> None:
    """Student and top slot on the same images, back to back, so both
    see the same host phase."""
    order = (0, len(h.slots) - 1) if student_first else (len(h.slots) - 1, 0)
    for slot in order:
        t0 = time.perf_counter()
        with ad.no_grad():
            logits = h.forward_slot(slot, images, mode="eval").logits.data
        dt = time.perf_counter() - t0
        ops.record(f"eval slot {slot}", bool(np.isfinite(logits).all()),
                   "non-finite logits")
        if slot == 0:
            tally.student_s += dt
            tally.student_images += images.shape[0]
        else:
            tally.top_s += dt


def nominal_speedup(h) -> float:
    return count_stats(h.arch, h.top.state.mask).total_flops \
        / count_stats(h.arch, h.student.state.mask).total_flops


# ---------------------------------------------------------------------------
# vgg16-joint and mobilenet-finetune: in-process steps on shipped archs
# ---------------------------------------------------------------------------

@dataclass
class CascadeState:
    h: ModelHierarchy
    trainer: Trainer
    batches: list
    eval_images: list
    snapshot: dict | None = None
    next_batch: int = 0
    pairs: int = 0


class CascadeWorkload:
    """Training steps of one stage of the cascade, driven through
    Trainer's public epoch methods on one-batch datasets, interleaved
    with student/top eval pairs. The set-up is timed ``setups`` times
    before the warm-up and ``round_setups`` times after every round, so
    that its samples span the run's host phases."""

    CHECK_BATCH = 4     # images of the routing check's step

    def __init__(self, name: str, arch_id: str, stage: str, seed: int,
                 batch: int, eval_pairs: int, setups: int = 0, round_setups: int = 0):
        self.name = name
        self.arch_id = arch_id
        self.stage = stage
        self.seed = seed
        self.batch = batch
        self.eval_pairs = eval_pairs
        self.setups = setups
        self.round_setups = round_setups

    def _timed_setup(self, tally: Tally) -> CascadeState:
        gc.collect()
        t0 = time.perf_counter()
        st = self.setup()
        tally.setup_s.append(time.perf_counter() - t0)
        return st

    def prepare(self, tally: Tally) -> CascadeState:
        st = None
        for _ in range(self.setups):
            st = None  # free the last state before building the next
            st = self._timed_setup(tally)
        return st

    def setup(self) -> CascadeState:
        arch = cli.resolve_arch(self.arch_id)
        h = ModelHierarchy(arch, derive_ta_keep_ratios(STUDENT_KEEP, TA_DIVISORS),
                           seed=self.seed)
        classes, size = arch.classes, arch.in_h
        pool = synthetic_dataset(self.seed, max(4 * self.batch, classes),
                                 classes, size, arch.in_c)
        batches = [Dataset(pool.images[i:i + self.batch], pool.labels[i:i + self.batch],
                           classes, "train")
                   for i in range(0, pool.n - self.batch + 1, self.batch)]
        held_out = synthetic_dataset(self.seed + 1000,
                                     max(self.eval_pairs * self.batch, classes),
                                     classes, size, arch.in_c, split="test")
        eval_images = [held_out.images[i * self.batch:(i + 1) * self.batch]
                       for i in range(self.eval_pairs)]
        h.freeze_teacher()
        trainer = Trainer(h, batches[0], TrainConfig(batch_size=self.batch,
                                                     seed=self.seed))
        return CascadeState(h, trainer, batches, eval_images)

    def _step(self, st: CascadeState, ops: Ops, tally: Tally | None,
              traced: bool = False) -> None:
        st.trainer.data = st.batches[st.next_batch % len(st.batches)]
        st.next_batch += 1
        rows = st.trainer.metrics.rows
        rows.clear()
        t0 = time.perf_counter()
        if self.stage == "joint":
            st.trainer.joint_epoch()
        else:
            st.trainer.finetune_epoch()
        dt = time.perf_counter() - t0
        want = len(st.h.slots) if self.stage == "joint" else 1
        ok = len(rows) == want and all(math.isfinite(r["loss"]) for r in rows)
        ops.record("train step", ok, f"losses {[r['loss'] for r in rows]}")
        if tally is not None:
            tally.train_samples += self.batch
            tally.train_s += dt
            tally.step_s[traced].append(dt)

    def warm_up(self, st: CascadeState, ops: Ops) -> None:
        if self.stage != "joint":
            st.snapshot = _finetune_snapshot(st.h)
        self._step(st, ops, None)
        eval_pair(st.h, st.eval_images[0], True, ops, Tally())

    def _routing_check(self, ops: Ops) -> None:
        """Score routing checked on a fixed-seed step (see
        routing_mismatches), in a forked child so that the check's memory
        does not count in this process's peak."""
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=fork) as pool:
            bad = pool.submit(routing_mismatches, self.name, self.arch_id).result()
        # only a mismatch of the routed values is the known fault
        known = all("relative error" in b for b in bad)
        ops.record("score routing", not bad,
                   f"{len(bad)} slot layers differ, first {bad[0]}" if bad else "",
                   known_fault=known)

    def round(self, st: CascadeState, ops: Ops, tally: Tally, traced: bool) -> None:
        self._step(st, ops, tally, traced)
        if self.stage == "joint":
            bad = checks.mask_violations(st.h)
            ops.record("mask sizes", not bad, "; ".join(bad))
        for images in st.eval_images:
            eval_pair(st.h, images, st.pairs % 2 == 0, ops, tally)
            st.pairs += 1

    def after_round(self, st: CascadeState, ops: Ops, tally: Tally) -> None:
        """Untraced: the routing check and the round's set-up samples."""
        if self.stage == "joint":
            self._routing_check(ops)
        for _ in range(self.round_setups):
            self._timed_setup(tally)

    def finish(self, st: CascadeState, ops: Ops) -> None:
        if self.stage != "joint":
            for name, detail in _finetune_changes(st.h, st.snapshot):
                ops.record(name, not detail, detail)

    def summary(self, st: CascadeState) -> dict:
        return {"nominal_speedup": nominal_speedup(st.h)}


def routing_mismatches(name: str, arch_id: str) -> list[str]:
    """The first joint step of a fresh hierarchy built with the fixed seed
    on CHECK_BATCH images, its score routing checked against the
    benchmark's own reduction over the next slot's saved context with the
    kernels that forward pass ran on. Its inputs do not depend on --seed,
    so every round gets the same result."""
    st = CascadeWorkload(name, arch_id, "joint", FIXED_SEED,
                         CascadeWorkload.CHECK_BATCH, eval_pairs=0).setup()
    h = st.h
    kernels = {id(p): p.data.copy() for p in h.shared_parameters()}
    bad = ["routing did not run"]

    def route_and_check(forwards, **kw):
        routed = ModelHierarchy.route_gamma_gradients(h, forwards, **kw)
        bad[:] = checks.route_mismatches(h, forwards, routed, kernels)
        return routed

    h.route_gamma_gradients = route_and_check  # this instance only
    st.trainer.joint_epoch()
    return bad


def _finetune_snapshot(h) -> dict[str, tuple]:
    """Shape, dtype and digest of every named tensor: enough to tell
    bit-identical from changed without holding a copy."""
    return {name: (v.shape, v.dtype.str,
                   hashlib.blake2b(np.ascontiguousarray(v).data).digest())
            for name, v in h.named_tensors().items()}


def _finetune_changes(h, snap: dict) -> list[tuple[str, str]]:
    """(check name, what went wrong or '') for the fine-tune stage's
    promises: masks and scores frozen, slots above the student and the
    frozen teacher untouched, the student itself trained."""
    now = _finetune_snapshot(h)
    if set(now) != set(snap):
        return [("fine-tune state", "state layout changed")]
    moved = [k for k in snap if now[k] != snap[k]]
    masks = [k for k in moved if ".mask." in k or ".scores." in k]
    teachers = [k for k in moved if k not in masks
                and not k.startswith(("slot0.", "shared."))]
    trained = "slot0.stem.w" in moved
    return [("masks and scores unchanged", ", ".join(masks[:3])),
            ("teachers unchanged", ", ".join(teachers[:3])),
            ("student trained", "" if trained else "student stem did not move")]


# ---------------------------------------------------------------------------
# toy-pipeline: the train and eval commands on a small residual net
# ---------------------------------------------------------------------------

TOY_ARCH = os.path.join(HERE, "toy_residual.arch")
TOY_CLASSES = 6
TOP1_MARGIN = 0.2       # student_top1 must beat chance by this much


@dataclass
class ToyState:
    eval_images: list
    silence_images: np.ndarray
    pairs: int = 0
    nominal: float = 0.0
    student_top1: list = field(default_factory=list)


class ToyWorkload:
    """`cascadeprune train` then `eval --checkpoint`, in process, on a
    residual toy with crop, flip and normalisation. Each round's `train`
    gives one set-up sample: from entering the command to its first
    training batch."""

    def __init__(self, seed: int, samples: int, epochs: tuple, eval_pairs: int,
                 out_dir: str):
        self.name = "toy-pipeline"
        self.seed = seed
        self.samples = samples
        self.epochs = epochs
        self.eval_pairs = eval_pairs
        self.out_dir = out_dir
        self.fixed_dir = os.path.join(out_dir, "fixed")

    def _argv(self, seed: int, samples: int, epochs: tuple) -> list[str]:
        pre, joint, fine = epochs
        return ["--arch", TOY_ARCH, "--dataset", "synthetic",
                "--synthetic-samples", str(samples), "--synthetic-size", "16",
                "--synthetic-classes", str(TOY_CLASSES), "--keep-ratio", str(STUDENT_KEEP),
                "--pretrain-epochs", str(pre), "--joint-epochs", str(joint),
                "--finetune-epochs", str(fine), "--batch-size", "32",
                "--base-lr", "0.1", "--crop", "--crop-pad", "1",
                "--flip-prob", "0.5", "--normalize", "--seed", str(seed)]

    def prepare(self, tally: Tally) -> ToyState:
        """Eval images, normalised per channel by their own statistics,
        and the silence check's fixed images; no set-up is timed here."""
        images = synthetic_dataset(self.seed + 2000, self.eval_pairs * 32,
                                   TOY_CLASSES, 16).images
        mean = images.mean(axis=(0, 2, 3), keepdims=True)
        std = images.std(axis=(0, 2, 3), keepdims=True)
        norm = ((images - mean) / std).astype(np.float32)
        eval_images = [norm[i * 32:(i + 1) * 32] for i in range(self.eval_pairs)]
        silence = synthetic_dataset(FIXED_SEED + 1000, 64, TOY_CLASSES, 16).images
        return ToyState(eval_images, silence)

    def _cli(self, argv: list[str]) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            raise BenchError(f"cascadeprune {argv[0]} exited with {rc}")
        return buf.getvalue()

    def _train(self, run_dir: str, seed: int, epochs: tuple,
               samples: int) -> tuple[str, float, float]:
        """Run `train`; return its output, the seconds from entering the
        command to its first training batch, and the seconds after."""
        shutil.rmtree(run_dir, ignore_errors=True)
        first = []
        batches = training.batches

        def first_batch(*args, **kwargs):  # the name Trainer looks up
            if not first:
                first.append(time.perf_counter())
            return batches(*args, **kwargs)

        training.batches = first_batch
        try:
            t0 = time.perf_counter()
            out = self._cli(["train"] + self._argv(seed, samples, epochs)
                            + ["--out", run_dir])
            t1 = time.perf_counter()
        finally:
            training.batches = batches
        return out, first[0] - t0, t1 - first[0]

    @staticmethod
    def _load(run_dir: str) -> ModelHierarchy:
        tensors, meta = load_checkpoint(os.path.join(run_dir, "latest.ckpt"))
        h = ModelHierarchy(cli.resolve_arch(meta["arch"]), meta["keep_ratios"])
        h.load_named_tensors({k: v for k, v in tensors.items()
                              if not k.startswith(("opt.", "scoreopt."))})
        return h

    def warm_up(self, st: ToyState, ops: Ops) -> None:
        """A short fixed-seed run, independent of --seed: it warms the
        pipeline, and its checkpoint is the state the silence check
        reads in every round."""
        self._train(self.fixed_dir, FIXED_SEED, (1, 2, 1), 64)

    def round(self, st: ToyState, ops: Ops, tally: Tally, traced: bool) -> None:
        run_dir = os.path.join(self.out_dir, "round")
        out, setup_s, dt = self._train(run_dir, self.seed, self.epochs, self.samples)
        tally.setup_s.append(setup_s)

        losses: dict[int, list[float]] = {}
        with open(os.path.join(run_dir, "metrics.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                losses.setdefault(int(row["step"]), []).append(float(row["loss"]))
        for step, vals in sorted(losses.items()):
            ops.record("train step", all(math.isfinite(v) for v in vals),
                       f"step {step} losses {vals}")
        steps = len(losses)
        tally.train_samples += sum(self.epochs) * self.samples
        tally.train_s += dt
        tally.step_s[traced].append(dt / max(steps, 1))

        trained = _last_field(out, "student test accuracy:")
        st.student_top1.append(float(trained))
        chance = 1.0 / TOY_CLASSES
        ops.record("student beats chance", float(trained) >= chance + TOP1_MARGIN,
                   f"student_top1 {trained} vs chance {chance:.4f} + {TOP1_MARGIN}")

        evaluated = _last_field(self._cli(
            ["eval", "--checkpoint", os.path.join(run_dir, "latest.ckpt")]
            + self._argv(self.seed, self.samples, self.epochs)), "accuracy:")
        ops.record("eval reproduces train", evaluated == trained,
                   f"eval --checkpoint {evaluated} vs train {trained}")

        h = self._load(run_dir)
        for images in st.eval_images:
            eval_pair(h, images, st.pairs % 2 == 0, ops, tally)
            st.pairs += 1
        st.nominal = nominal_speedup(h)

        gap = checks.silence_gap(self._load(self.fixed_dir), st.silence_images)
        ops.record("pruned-channel silence", gap <= 1e-5,
                   f"student logits moved by {gap:.4f} (relative)", known_fault=True)

        arch = h.arch
        mask = checks.disjoint_join_mask(arch)
        priced = count_stats(arch, mask).total_flops
        live = checks.union_join_flops(arch, mask)
        ops.record("residual-join pricing", priced == live,
                   f"count_stats {priced} vs live-channel count {live}",
                   known_fault=True)

    def after_round(self, st: ToyState, ops: Ops, tally: Tally) -> None:
        pass

    def finish(self, st: ToyState, ops: Ops) -> None:
        pass

    def summary(self, st: ToyState) -> dict:
        return {"nominal_speedup": st.nominal,
                "student_top1": float(np.median(st.student_top1))}


def _last_field(text: str, marker: str) -> str:
    lines = [ln for ln in text.splitlines() if marker in ln]
    if not lines:
        raise BenchError(f"no {marker!r} line in the command's output")
    return lines[-1].split()[-1]
