"""Distillation losses: temperature-softened KL to a teacher, feature-map
hints, and the combined per-model training objective.

Teacher-side tensors are always treated as constants. Gradients reach
only the student's side, which is what lets one backward pass over the
sum of all models' losses produce each model's own loss gradients at its
own nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class DistillConfig:
    """Loss weights and temperature.

    hint_layers names the maskable-conv ids whose activation maps are
    compared between student and teacher; empty disables the hint term.
    complement_ce scales the task term by (1 - lambda_kd), a convention
    some distillation setups use; off by default.
    """
    tau: float = 15.0
    lambda_kd: float = 0.4
    lambda_hint: float = 0.001
    hint_layers: tuple = ()
    complement_ce: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.lambda_kd < 0 or self.lambda_hint < 0:
            raise ValueError("loss weights must be non-negative")


def kd_loss(student_logits: Tensor, teacher_logits, tau: float) -> Tensor:
    """tau^2 times the batch-mean KL(teacher || student) of the softened
    output distributions. The teacher side contributes constants only, so
    the gradient w.r.t. student logits is tau*(p_student - q_teacher)/N.
    """
    t = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits)
    if t.shape != student_logits.shape:
        raise ad.ShapeError(f"teacher logits {t.shape} vs student "
                            f"{student_logits.shape}")
    n = t.shape[0]
    dt = student_logits.dtype.type
    log_q = ad._log_softmax_rows(t.astype(student_logits.dtype) / dt(tau))
    coef = np.exp(log_q) / dt(n)
    # constant part: sum of coef * log q, same elementwise route as the
    # student term below so identical logits cancel to exactly zero
    const = (coef * log_q).sum(dtype=student_logits.dtype)
    log_p = ad.log_softmax(ad.scale(student_logits, 1.0 / tau))
    cross = ad.tensor_sum(ad.mul_const(log_p, -coef))
    return ad.scale(ad.add_const(cross, const), tau * tau)


def hint_loss(student_maps: Sequence[Tensor], teacher_maps: Sequence) -> Tensor:
    """Mean over map pairs of the mean squared elementwise difference.
    Teacher maps are constants. Empty lists give a zero scalar."""
    if len(student_maps) != len(teacher_maps):
        raise ad.ShapeError(f"{len(student_maps)} student maps vs "
                            f"{len(teacher_maps)} teacher maps")
    if not student_maps:
        return Tensor(np.zeros(()))
    total: Optional[Tensor] = None
    pairs = len(student_maps)
    for s, t in zip(student_maps, teacher_maps):
        t_data = t.data if isinstance(t, Tensor) else np.asarray(t)
        if t_data.shape != s.shape:
            raise ad.ShapeError(f"hint map shapes differ: {s.shape} vs {t_data.shape}")
        term = ad.scale(ad.tensor_sum(ad.square(ad.add_const(s, -t_data))),
                        1.0 / (s.size * pairs))
        total = term if total is None else ad.add(total, term)
    return total


def slot_loss(student_logits: Tensor, labels: np.ndarray,
              teacher_logits, student_maps: Sequence[Tensor],
              teacher_maps: Sequence, cfg: DistillConfig):
    """One model's objective: cross-entropy to the labels plus weighted
    distillation terms from its teacher.

    Returns (loss tensor, parts) where parts holds the float values of
    the task, kd, and hint terms before weighting. Terms with zero weight
    are skipped entirely, so a zero-weight run builds the exact same
    graph as plain supervised training.
    """
    ce = ad.softmax_cross_entropy(student_logits, labels)
    parts = {"task": float(ce.data), "kd": 0.0, "hint": 0.0}
    total = ad.scale(ce, 1.0 - cfg.lambda_kd) if cfg.complement_ce else ce
    if cfg.lambda_kd > 0:
        kd = kd_loss(student_logits, teacher_logits, cfg.tau)
        parts["kd"] = float(kd.data)
        total = ad.add(total, ad.scale(kd, cfg.lambda_kd))
    if cfg.lambda_hint > 0 and len(student_maps) > 0:
        hint = hint_loss(student_maps, teacher_maps)
        parts["hint"] = float(hint.data)
        total = ad.add(total, ad.scale(hint, cfg.lambda_hint))
    return total, parts
