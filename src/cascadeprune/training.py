"""The two-stage training procedure over a model hierarchy.

Stage order is fixed: optional supervised pretraining of the top model
(to mint the frozen teacher), joint training of all slots with live
masks, an optional pass with the masks pinned, then student fine-tuning
with teacher promotion. Every batch is one optimizer step; metrics go
to a CSV with one row per (batch, participating slot).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .arch import count_stats
from .checkpoint import load_checkpoint, save_checkpoint, write_atomically
from .data import AugmentConfig, Dataset, batches
from .distill import DistillConfig, slot_loss
from .hierarchy import ModelHierarchy, SlotForward, check_tensors
from .optim import LRSchedule, ScoreOptimizer, SGDNesterov, lr_at


class TrainingError(RuntimeError):
    pass


CSV_HEADER = ("step,epoch,stage,slot,loss,task_loss,kd_loss,hint_loss,"
              "accuracy,lr,kept_filters_total,flops,params")

STAGES = ("pretrain", "joint", "intermediate_finetune", "student_finetune")

# pretraining's loss: plain cross-entropy, whatever the run distills with
PLAIN = DistillConfig(lambda_kd=0, lambda_hint=0)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    base_lr: float = 0.008
    cycle_len_epochs: int = 5
    cycle_decay: float = 0.9
    momentum: float = 0.9
    weight_decay: float = 0.0004
    score_lr: float = 0.01
    score_optimizer: str = "sgd"
    distill: DistillConfig = field(default_factory=DistillConfig)
    augment: AugmentConfig | None = None
    promotion_patience: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.promotion_patience < 1:
            raise ValueError(f"promotion_patience must be >= 1, got "
                             f"{self.promotion_patience}")
        if self.score_lr < 0:
            raise ValueError(f"score_lr must be >= 0, got {self.score_lr}")


@dataclass
class TrainState:
    epoch: int = 0          # completed epochs, global across stages
    step: int = 0           # completed optimizer steps
    stage: str = "pretrain"
    teacher_index: int = 1  # slot teaching the student; len(slots) = frozen
    streak: int = 0         # consecutive epochs the student beat its teacher
    seed: int = 0
    val_history: dict = field(default_factory=dict)


def apply_promotion(state: TrainState, student_acc: float, teacher_acc: float,
                    patience: int, slot_count: int) -> bool:
    """Record one epoch's validation accuracies and advance the teacher
    index after `patience` consecutive student wins. The index never
    decreases and stops at slot_count, which stands for the frozen
    teacher. Returns whether a promotion happened."""
    state.val_history.setdefault("student", []).append(float(student_acc))
    state.val_history.setdefault("teacher", []).append(float(teacher_acc))
    state.streak = state.streak + 1 if student_acc > teacher_acc else 0
    if state.streak >= patience:
        state.streak = 0
        if state.teacher_index < slot_count:
            state.teacher_index += 1
            return True
    return False


def _accuracy(forward, ds: Dataset, augment: AugmentConfig | None) -> float:
    """Deterministic top-1 accuracy over a split of the SlotForward that
    forward(images) returns, run with the tape off, 256 images at a time."""
    correct = 0
    for images, one_hot in batches(ds, 256, seed=0, epoch=0,
                                   augment=augment, shuffle=False):
        with ad.no_grad():
            logits = forward(images).logits.data
        correct += int((logits.argmax(axis=1)
                        == one_hot.argmax(axis=1)).sum())
    return correct / ds.n


def evaluate(h: ModelHierarchy, slot_index: int, ds: Dataset,
             augment: AugmentConfig | None = None) -> float:
    """Deterministic top-1 accuracy of one slot over a split."""
    return _accuracy(lambda images: h.forward_slot(slot_index, images,
                                                   mode="eval"), ds, augment)


def evaluate_frozen(h: ModelHierarchy, ds: Dataset,
                    augment: AugmentConfig | None = None) -> float:
    """Deterministic top-1 accuracy of the frozen teacher over a split."""
    return _accuracy(h.forward_frozen, ds, augment)


def read_training_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors and meta of the training checkpoint at path. TrainingError
    names the first key its meta or the meta's state lacks or should not have."""
    tensors, meta = load_checkpoint(path)
    if meta.get("kind") != "cascade-train":
        raise TrainingError(f"{path}: not a training checkpoint")
    state = meta.get("state")
    for what, have, want in (("meta", meta, {"kind", "arch", "keep_ratios", "state"}),
                             ("state", state if isinstance(state, dict) else {},
                              {f.name for f in fields(TrainState)})):
        odd = sorted(have.keys() ^ want)
        if odd:
            problem = "unknown" if odd[0] in have else "no"
            raise TrainingError(f"{path}: checkpoint {what} has {problem} key {odd[0]!r}")
    return tensors, meta


def load_tensors(h: ModelHierarchy, tensors: dict[str, np.ndarray],
                 weight_opt: SGDNesterov | None = None,
                 score_opt: ScoreOptimizer | None = None) -> None:
    """Load a training checkpoint's tensors into h and the optimizers once
    all are checked: HierarchyError names the first wrong tensor. Without
    optimizers the optimizer part is only checked, against a Trainer's
    over h (rmsprop if the table has score state), whose zeroed buffers
    are never written."""
    fill = weight_opt is not None
    if not fill:
        kind = "rmsprop" if any(k.startswith("scoreopt.") for k in tensors) else "sgd"
        weight_opt = SGDNesterov(h.all_parameters())
        score_opt = ScoreOptimizer({s.index: s.scores for s in h.slots[:-1]}, kind)
    opt_state = {**weight_opt.state_tensors(), **score_opt.state_tensors()}
    # h checks the rest of the table, unknown optimizer names among it
    check_tensors({k: v for k, v in tensors.items() if k in opt_state},
                  {k: v.shape for k, v in opt_state.items()})
    h.load_named_tensors({k: v for k, v in tensors.items() if k not in opt_state})
    if fill:
        for name, v in opt_state.items():
            v[...] = tensors[name]


class MetricsWriter:
    """Appends CSV rows; keeps them in memory as dicts for inspection."""

    def __init__(self, path: str | None):
        self.path = path
        self.rows: list[dict] = []
        self._fh = None
        if path is not None:
            fresh = not os.path.exists(path) or os.path.getsize(path) == 0
            self._fh = open(path, "a")
            if fresh:
                self._fh.write(CSV_HEADER + "\n")
                self._fh.flush()

    def write(self, row: dict) -> None:
        self.rows.append(row)
        if self._fh is not None:
            cells = []
            for key in CSV_HEADER.split(","):
                v = row[key]
                cells.append(repr(v) if isinstance(v, float) else str(v))
            self._fh.write(",".join(cells) + "\n")
            self._fh.flush()

    def drop_from(self, step: int) -> None:
        """Forget every row at step >= `step`, in memory and in the file,
        which is rewritten atomically with its header when it holds any."""
        self.rows = [r for r in self.rows if r["step"] < step]
        if self._fh is None:
            return
        with open(self.path) as fh:
            header, *body = fh.readlines()
        keep = [line for line in body if int(line.split(",", 1)[0]) < step]
        if len(keep) == len(body):
            return
        self._fh.close()
        write_atomically(self.path, lambda fh: fh.write(
            "".join([header] + keep).encode()))
        self._fh = open(self.path, "a")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class Trainer:
    """Owns the hierarchy, optimizers, stage bookkeeping, and metrics."""

    def __init__(self, h: ModelHierarchy, train_data: Dataset,
                 cfg: TrainConfig, val_data: Dataset | None = None,
                 out_dir: str | None = None):
        self.h = h
        self.data = train_data
        self.val_data = val_data
        self.cfg = cfg
        steps = math.ceil(train_data.n / cfg.batch_size)
        self.schedule = LRSchedule(cfg.base_lr, cfg.cycle_len_epochs,
                                   cfg.cycle_decay, steps)
        self.weight_opt = SGDNesterov(h.all_parameters(), cfg.momentum,
                                      cfg.weight_decay)
        self.score_opt = ScoreOptimizer({s.index: s.scores for s in h.slots[:-1]},
                                        cfg.score_optimizer)
        self.state = TrainState(seed=cfg.seed)
        self.eval_augment = None
        if cfg.augment is not None and cfg.augment.normalization is not None:
            self.eval_augment = AugmentConfig(
                normalization=cfg.augment.normalization)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
        self.metrics = MetricsWriter(
            os.path.join(out_dir, "metrics.csv") if out_dir else None)

    # -- stage bookkeeping --------------------------------------------------

    def _enter_stage(self, stage: str) -> None:
        if STAGES.index(stage) < STAGES.index(self.state.stage):
            raise TrainingError(f"stage can only move forward, not "
                                f"{self.state.stage} -> {stage}")
        self.state.stage = stage

    def _needs_teacher(self) -> bool:
        d = self.cfg.distill
        return d.lambda_kd > 0 or (d.lambda_hint > 0 and len(d.hint_layers) > 0)

    def _moving(self, slot_index: int) -> set[str]:
        """The names of the shared parameters and the slot's own."""
        return {p.name for p in self.h.shared_parameters()} \
            | {p.name for p in self.h.slot_parameters(slot_index)}

    def _teacher(self):
        """The fine-tune teacher as (its eval forward of a batch, its accuracy
        over a split): slot t, or the frozen teacher at t == len(slots)."""
        h, t, augment = self.h, self.state.teacher_index, self.eval_augment
        if t < len(h.slots):
            return (functools.partial(h.forward_slot, t, mode="eval"),
                    lambda ds: evaluate(h, t, ds, augment=augment))
        if h.frozen is None:
            raise TrainingError("teacher index points at the frozen model "
                                "but none exists")
        return h.forward_frozen, lambda ds: evaluate_frozen(h, ds, augment=augment)

    @staticmethod
    def _maps(fwd: SlotForward):
        return [fwd.hint_maps[k] for k in sorted(fwd.hint_maps)]

    def _emit(self, slot_index: int, loss: float, parts: dict, acc: float,
              lr: float) -> None:
        mask = self.h.slots[slot_index].state.mask
        stats = count_stats(self.h.arch, mask)
        self.metrics.write({
            "step": self.state.step, "epoch": self.state.epoch,
            "stage": self.state.stage, "slot": slot_index,
            "loss": float(loss), "task_loss": parts["task"],
            "kd_loss": parts["kd"], "hint_loss": parts["hint"],
            "accuracy": float(acc), "lr": float(lr),
            "kept_filters_total": mask.kept_total(),
            "flops": stats.total_flops, "params": stats.total_params,
        })

    def _epoch_batches(self):
        return batches(self.data, self.cfg.batch_size, self.state.seed,
                       self.state.epoch, augment=self.cfg.augment,
                       shuffle=True)

    # -- the one optimizer step ---------------------------------------------

    def _step(self, one_hot, students, distill: DistillConfig,
              moving: set[str] | None = None, routed=None) -> None:
        """The step every stage takes: one backward over the losses of
        students' (slot, forward, teacher forward or None), a weight step
        over `moving` (all when None), routing over `routed` if given, and
        each slot's row. Its callers hold the forwards, which die with them."""
        total = None
        records = []
        for i, fwd, teacher in students:
            loss, parts = slot_loss(
                fwd.logits, one_hot, teacher.logits if teacher else None,
                self._maps(fwd), self._maps(teacher or fwd), distill)
            total = loss if total is None else ad.add(total, loss)
            acc = (fwd.logits.data.argmax(axis=1) == one_hot.argmax(axis=1)).mean()
            records.append((i, float(loss.data), parts, float(acc)))
        ad.backward(total)
        lr = lr_at(self.schedule, self.state.step)
        self.weight_opt.step(lr, include=moving)
        self.weight_opt.zero_grad()
        if routed is not None:
            grads = self.h.route_gamma_gradients(routed)
            self.score_opt.step({i: self.h.slots[i].scores for i in grads},
                                grads, self.cfg.score_lr)
            self.h.refresh_masks()
        for i, loss_v, parts, acc in records:
            self._emit(i, loss_v, parts, acc, lr)
        self.state.step += 1

    # -- pretraining of the top model ---------------------------------------

    def pretrain_top(self, epochs: int) -> None:
        """Supervised training of the top slot only, then freeze it as
        the permanent teacher. Must precede the joint stage when any
        distillation weight is nonzero."""
        self._enter_stage("pretrain")
        top = len(self.h.slots) - 1
        moving = self._moving(top)
        for _ in range(epochs):
            for images, one_hot in self._epoch_batches():
                self._pretrain_step(images, one_hot, top, moving)
            self.state.epoch += 1
        self.h.freeze_teacher()

    def _pretrain_step(self, images, one_hot, top: int, moving: set) -> None:
        """The forward of one step of the top slot, with no teacher."""
        fwd = self.h.forward_slot(top, images, mode="train")
        self._step(one_hot, [(top, fwd, None)], PLAIN, moving)

    # -- joint and intermediate stages --------------------------------------

    def joint_epoch(self) -> None:
        self._enter_stage("joint")
        if self.h.frozen is None and self._needs_teacher():
            raise TrainingError("the top slot distills from a frozen teacher; "
                                "run pretrain_top() or load one first")
        self._cascade_epoch(update_scores=True)

    def intermediate_epoch(self) -> None:
        """Joint training with the masks pinned: no score or mask updates."""
        self._enter_stage("intermediate_finetune")
        self._cascade_epoch(update_scores=False)

    def _cascade_epoch(self, update_scores: bool) -> None:
        route = update_scores and self.cfg.score_lr > 0
        for images, one_hot in self._epoch_batches():
            self._cascade_step(images, one_hot, route)
        self.state.epoch += 1

    def _cascade_step(self, images, one_hot, route: bool) -> None:
        """The forwards of one step of every slot, each taught by the next one
        up and the top by the frozen teacher, whose no-tape forward runs first."""
        h, hint_ids = self.h, self.cfg.distill.hint_layers
        frozen = h.forward_frozen(images, hint_ids=hint_ids) \
            if self._needs_teacher() else None
        slots = range(len(h.slots))
        # routing reads the contexts of slots 1 and up; a slot that saves
        # none runs at its kept width
        forwards = h.forward_all(images, mode="train", hint_ids=hint_ids,
                                 want_context=slots[1:] if route else False)
        self._step(one_hot, zip(slots, forwards, forwards[1:] + [frozen]),
                   self.cfg.distill, routed=forwards if route else None)

    # -- student fine-tuning -------------------------------------------------

    def finetune_epoch(self) -> None:
        """Train the student alone against its current teacher; the
        masks and scores stay fixed, and only student-reachable
        parameters (shared kernels, slot-0 stem/BN/heads) move."""
        self._enter_stage("student_finetune")
        teacher, teacher_accuracy = self._teacher()
        moving = self._moving(0)
        for images, one_hot in self._epoch_batches():
            self._finetune_step(images, one_hot, teacher, moving)
        self.state.epoch += 1
        if self.val_data is not None:
            student_acc = evaluate(self.h, 0, self.val_data, augment=self.eval_augment)
            apply_promotion(self.state, student_acc, teacher_accuracy(self.val_data),
                            self.cfg.promotion_patience, len(self.h.slots))

    def _finetune_step(self, images, one_hot, teacher, moving: set) -> None:
        """The forwards of one student step; the teacher's no-tape forward
        runs before the student's graph is built."""
        hint_ids = self.cfg.distill.hint_layers
        with ad.no_grad():
            t_fwd = teacher(images, hint_ids=hint_ids) if self._needs_teacher() else None
        fwd = self.h.forward_slot(0, images, mode="train", hint_ids=hint_ids)
        self._step(one_hot, [(0, fwd, t_fwd)], self.cfg.distill, moving)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        tensors = {**self.h.named_tensors(), **self.weight_opt.state_tensors(),
                   **self.score_opt.state_tensors()}
        meta = {"kind": "cascade-train", "arch": self.h.arch.name,
                "keep_ratios": self.h.keep_ratios, "state": asdict(self.state)}
        save_checkpoint(path, tensors, meta)

    def load_state(self, tensors: dict[str, np.ndarray], meta: dict) -> None:
        """Resume from a checkpoint's tensors and meta as read_training_checkpoint
        returns them; a rejected one leaves the trainer as it was. Metrics rows
        at or past the checkpoint's step, written by a run that went on after
        it, are dropped, so that resuming into the same out dir does not
        repeat them."""
        if meta["keep_ratios"] != self.h.keep_ratios:
            raise TrainingError(f"checkpoint keep ratios "
                                f"{meta['keep_ratios']} do not match the "
                                f"hierarchy's {self.h.keep_ratios}")
        load_tensors(self.h, tensors, self.weight_opt, self.score_opt)
        self.state = TrainState(**meta["state"])
        self.metrics.drop_from(self.state.step)

    def close(self) -> None:
        self.metrics.close()
