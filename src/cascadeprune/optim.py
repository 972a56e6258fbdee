"""Optimizers and the learning-rate schedule.

The update formulas operate on plain arrays, so the same code drives
both network parameters and the per-filter importance scores. Weight
decay is folded into the gradient as an L2 term and skipped for
anything flagged decay-exempt (batch-norm scale/offset, scores).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter


@dataclass(frozen=True)
class LRSchedule:
    """Cosine cycles with exponential decay between cycles.

    lr(step) = base_lr * cycle_decay^c * (1 + cos(pi * t / T)) / 2
    with T = cycle_len_epochs * steps_per_epoch, c the completed cycles
    and t the step within the current cycle.
    """
    base_lr: float = 0.008
    cycle_len_epochs: int = 5
    cycle_decay: float = 0.9
    steps_per_epoch: int = 1

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not 0.0 < self.cycle_decay <= 1.0:
            raise ValueError(f"cycle_decay must be in (0, 1], got {self.cycle_decay}")
        if self.cycle_len_epochs < 1 or self.steps_per_epoch < 1:
            raise ValueError("cycle length and steps per epoch must be >= 1")


def lr_at(sched: LRSchedule, step: int) -> float:
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    cycle_steps = sched.cycle_len_epochs * sched.steps_per_epoch
    c, t = divmod(step, cycle_steps)
    return sched.base_lr * sched.cycle_decay ** c \
        * 0.5 * (1.0 + math.cos(math.pi * t / cycle_steps))


def nesterov_update(value: np.ndarray, grad: np.ndarray, buf: np.ndarray,
                    lr: float, momentum: float) -> np.ndarray:
    """One Nesterov step on a raw array; mutates buf, returns new value.

    buf <- momentum * buf + grad
    value <- value - lr * (grad + momentum * buf)

    The update is built in one scratch array, which becomes the new
    value. Each operation takes the same two operands as the formula, so
    the result is bitwise the formula's.
    """
    buf *= momentum
    buf += grad
    t = buf * momentum
    t += grad
    t *= lr
    return np.subtract(value, t, out=t)


def rmsprop_update(value: np.ndarray, grad: np.ndarray, sq: np.ndarray,
                   lr: float, rho: float, eps: float) -> np.ndarray:
    """One RMSProp step on a raw array; mutates sq, returns new value.

    sq <- rho * sq + (1 - rho) * grad^2
    value <- value - lr * grad / (sqrt(sq) + eps)
    """
    sq *= rho
    sq += (1.0 - rho) * grad * grad
    return value - lr * grad / (np.sqrt(sq) + eps)


class SGDNesterov:
    """Nesterov-momentum SGD over Parameter objects with decoupled-in-name,
    coupled-in-math weight decay: decaying parameters see grad + wd*value."""

    def __init__(self, params: list[Parameter], momentum: float = 0.9,
                 weight_decay: float = 0.0004):
        self.params = list(params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        # np.zeros, not zeros_like: a buffer never written costs no memory
        self.buffers = {id(p): np.zeros(p.shape, p.data.dtype) for p in self.params}

    def step(self, lr: float, include: set[str] | None = None) -> None:
        """Apply one update. With include, only named parameters move;
        the rest keep their values and momentum untouched (dormant).

        The step consumes the gradients of the parameters it moves: the
        weight decay is added into the gradient array each parameter
        owns, not into a copy, so call zero_grad after it, as Trainer
        does."""
        for p in self.params:
            if not p.trainable:
                continue
            if include is not None and p.name not in include:
                continue
            g = p.grad.astype(p.data.dtype, copy=False)
            if self.weight_decay and not p.decay_exempt:
                g += p.data.dtype.type(self.weight_decay) * p.data
            p.assign(nesterov_update(p.data, g, self.buffers[id(p)],
                                     p.data.dtype.type(lr),
                                     p.data.dtype.type(self.momentum)))

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Checkpoint name -> momentum buffer, live: a load writes into it."""
        return {f"opt.{p.name}.momentum": self.buffers[id(p)]
                for p in self.params}


class ScoreOptimizer:
    """Updates per-layer importance-score vectors from routed gradients.

    kind 'sgd' is plain gradient descent (no momentum, no decay: scores
    are decay-exempt by definition); kind 'rmsprop' (rho 0.9, eps 1e-8)
    normalizes per-score step sizes, which spreads pruning more evenly
    across layers, from zero running squares for every layer of every
    slot in scores.
    """

    def __init__(self, scores: dict[int, "ImportanceScores"], kind: str = "sgd"):
        if kind not in ("sgd", "rmsprop"):
            raise ValueError(f"score optimizer kind must be sgd or rmsprop, "
                             f"got {kind!r}")
        self.kind = kind
        self.sq: dict[tuple[int, int], np.ndarray] = {} if kind == "sgd" else {
            (s, lid): np.zeros_like(v)
            for s, sc in scores.items() for lid, v in sc.layers.items()}

    def step(self, scores_by_slot: dict[int, "ImportanceScores"],
             grads_by_slot: dict[int, dict[int, np.ndarray]], lr: float) -> None:
        for slot_idx, grads in grads_by_slot.items():
            layers = scores_by_slot[slot_idx].layers
            for lid, g in grads.items():
                v = layers[lid]
                if self.kind == "sgd":
                    layers[lid] = v - lr * g
                else:
                    layers[lid] = rmsprop_update(v, g.astype(v.dtype),
                                                 self.sq[(slot_idx, lid)], lr,
                                                 0.9, 1e-8)

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Checkpoint name -> running square, live: a load writes into it."""
        return {f"scoreopt.slot{s}.layer{lid}.sq": v
                for (s, lid), v in sorted(self.sq.items())}
