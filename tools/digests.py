"""Print BLAKE2b digests of what training and eval compute, one per line.

Two source trees that compute the same bits print the same lines, so a
change meant to leave numerics alone is checked by diffing this
script's output on each tree:

    python3 tools/digests.py > new.txt            # in one tree
    python3 tools/digests.py > old.txt            # in the other
    diff old.txt new.txt

Each net gets a hierarchy with the benchmark's keep ratios (student 0.5,
assistants from divisors 1.5 and 2.5) and a frozen teacher, on synthetic
data at a fixed seed. The toys pretrain the top slot for one epoch;
then every net runs one joint epoch, one intermediate epoch (masks
pinned) and two fine-tune epochs, the first against slot 1 and the
second against the frozen teacher (two steps each). Each fine-tune
epoch ends in a teacher promotion check on held-out data. Every net
steps its scores by SGD but toy_residual_rmsprop, which is toy_residual
under RMSProp score steps. The digests cover:

- every gradient that reaches the optimizer, at every step;
- every routed score gradient of every joint step;
- every named tensor (weights, batch-norm state, masks, scores) after
  each epoch, and the bytes of the checkpoint Trainer.save writes
  then, which adds the file layout, the optimizers' state and the
  train state with its validation history;
- that checkpoint read back as eval reads it (load_tensors into a fresh
  hierarchy) and as finetune does (Trainer.load_state into a fresh
  Trainer): every named tensor each load leaves, the finetune load's
  momentum and score state, and each one's frozen teacher's logits;
- every metrics row, as the line the run's metrics.csv holds;
- each slot's eval logits and hint maps on a memo miss and a memo hit,
  a pass on the tape, and the frozen teacher's logits.

First comes one digest per parsed arch, for the three shipped archs and
bench/toy_residual.arch, so that a parser change is diffed the same
way. It covers all that parse_arch returns but the arch's name: each
plan step's op, register, index, output size, inputs per channel, taps
and the layer it shares with items; each layer's fields and label; the
block structure of items; and the maskable sizes.

The toys run in float32 and float64 (toy_residual_rmsprop in float32
only), vgg16_cifar10 and mobilenetv1_cifar100 in float32 at batch 32.
Set the BLAS thread count (for example OPENBLAS_NUM_THREADS=1) the same
way for both trees. The first line, not a digest, names the BLAS numpy
was built with, its version and the two thread-count variables, since
the bits are only claimed for one BLAS at one thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cascadeprune.autodiff as ad  # noqa: E402
from cascadeprune.arch import BlockL, parse_arch  # noqa: E402
from cascadeprune.cli import resolve_arch  # noqa: E402
from cascadeprune.data import Dataset, synthetic_dataset  # noqa: E402
from cascadeprune.distill import DistillConfig  # noqa: E402
from cascadeprune.hierarchy import ModelHierarchy, derive_ta_keep_ratios  # noqa: E402
from cascadeprune.optim import SGDNesterov  # noqa: E402
from cascadeprune.training import (TrainConfig, Trainer, load_tensors,  # noqa: E402
                                   read_training_checkpoint)

TOY_RESIDUAL = os.path.join(ROOT, "bench", "toy_residual.arch")

# a net with two depthwise convs, one of them strided and one valid
DEPTHWISE_TOY = """
input c=2 h=8 w=8
conv k=3 in=2 out=8 maskable=false
bn
relu
conv k=1 in=8 out=12
bn
relu
dwconv k=3 stride=2
bn
relu
conv k=1 in=12 out=10
bn
relu
dwconv k=3 pad=valid
bn
relu
classifier in=40 out=3
"""


def toy_residual():
    # named, not by its path: a checkpoint's meta holds the arch name
    return parse_arch(Path(TOY_RESIDUAL).read_text(), name="toy_residual")


# name -> (arch loader, dtypes, batch size, pretrain epochs, score optimizer)
NETS = {
    "toy_residual": (toy_residual, ("f32", "f64"), 8, 1, "sgd"),
    "toy_residual_rmsprop": (toy_residual, ("f32",), 8, 1, "rmsprop"),
    "depthwise_toy": (lambda: parse_arch(DEPTHWISE_TOY, name="dw"),
                      ("f32", "f64"), 8, 1, "sgd"),
    "mobilenetv1_cifar100": (lambda: resolve_arch("mobilenetv1_cifar100"),
                             ("f32",), 32, 0, "sgd"),
    "vgg16_cifar10": (lambda: resolve_arch("vgg16_cifar10"),
                      ("f32",), 32, 0, "sgd"),
}


# label -> what resolve_arch reads: a shipped arch id or a file
ARCHS = {"toy_residual": TOY_RESIDUAL,
         **{name: name for name in ("mobilenetv1_cifar100",
                                    "resnet50_imagenet", "vgg16_cifar10")}}


def digest(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


class Printer:
    """Writes `prefix label digest` lines, and counts the steps and
    routings of the net under its prefix."""

    def __init__(self, out):
        self.out = out
        self.start("")

    def start(self, prefix: str) -> None:
        self.prefix = prefix
        self.counts = {"step": 0, "route": 0}

    def __call__(self, label: str, a) -> None:
        self.out.write(f"{self.prefix} {label} {digest(a)}\n")


def blas_line() -> str:
    """The BLAS numpy was built with, and the thread-count variables."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}"
                       for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"blas {blas.get('name')} {blas.get('version')} {threads}"


def describe(arch) -> str:
    """The parsed arch as text, one line per layer and per plan step. A
    step's layer is named by its place in items, or written out when
    items does not hold it."""
    place = {}
    lines = [f"input {arch.in_c} {arch.in_h} {arch.in_w} "
             f"classes {arch.classes} maskable {arch.maskable_sizes}"]

    def walk(layers, path):
        for i, layer in enumerate(layers):
            at = place[id(layer)] = f"{path}{i}"
            if isinstance(layer, BlockL):
                lines.append(f"{at} block {layer.label}")
                walk(layer.body, f"{at}.")
                if layer.proj is not None:
                    place[id(layer.proj)] = f"{at}.proj"
                    lines.append(f"{at}.proj {layer.proj!r}")
            else:
                lines.append(f"{at} {layer!r}")

    walk(arch.items, "")
    for st in arch.plan:
        layer = place.get(id(st.layer), repr(st.layer))
        lines.append(f"{st.op} {st.reg} {st.index} {st.out} {st.per} "
                     f"{st.taps} {layer}")
    return "\n".join(lines)


def watch_steps(emit: Printer) -> None:
    """Digest every gradient handed to the optimizer and every routed
    score gradient, in the order they are computed."""
    step, route = SGDNesterov.step, ModelHierarchy.route_gamma_gradients

    def watched_step(self, lr, include=None):
        count = emit.counts
        count["step"] += 1
        for p in self.params:
            if p.trainable and (include is None or p.name in include) \
                    and p.value.grad is not None:
                emit(f"step{count['step']} grad {p.name}", p.value.grad)
        return step(self, lr, include=include)

    def watched_route(self, forwards):
        count = emit.counts
        count["route"] += 1
        grads = route(self, forwards)
        for i in sorted(grads):
            for lid in sorted(grads[i]):
                emit(f"route{count['route']} slot{i} layer{lid}", grads[i][lid])
        return grads

    SGDNesterov.step = watched_step
    ModelHierarchy.route_gamma_gradients = watched_route


def saved(emit: Printer, trainer: Trainer, stage: str) -> None:
    """Every named tensor, the checkpoint file's bytes, and what each way
    of reading the file back leaves."""
    for name, a in sorted(trainer.h.named_tensors().items()):
        emit(f"{stage} {name}", a)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.ckpt")
        trainer.save(path)
        with open(path, "rb") as fh:
            emit(f"{stage} checkpoint", np.frombuffer(fh.read(), np.uint8))
        reloaded(emit, trainer, stage, path)


def reloaded(emit: Printer, trainer: Trainer, stage: str, path: str) -> None:
    """The checkpoint at path read back the eval way (load_tensors into a
    fresh hierarchy) and the finetune way (Trainer.load_state into a fresh
    Trainer): every named tensor each leaves, the finetune way's momentum
    and score state, and each one's frozen teacher's eval logits."""
    h, x = trainer.h, trainer.val_data.images[:trainer.cfg.batch_size]
    for way in ("eval", "finetune"):
        fresh = ModelHierarchy(h.arch, h.keep_ratios, seed=1, dtype=h.dtype)
        tensors, meta = read_training_checkpoint(path)
        opt_state = {}
        if way == "eval":
            load_tensors(fresh, tensors)
        else:
            resumed = Trainer(fresh, trainer.data, trainer.cfg)
            resumed.load_state(tensors, meta)
            opt_state = {**resumed.weight_opt.state_tensors(),
                         **resumed.score_opt.state_tensors()}
        for name, a in sorted({**fresh.named_tensors(), **opt_state}.items()):
            emit(f"{stage} {way} {name}", a)
        emit(f"{stage} {way} frozen logits", fresh.forward_frozen(x).logits.data)


def eval_logits(emit: Printer, h: ModelHierarchy, x: np.ndarray,
                hint_ids) -> None:
    for slot in range(len(h.slots)):
        for kind in ("miss", "hit"):
            with ad.no_grad():
                fw = h.forward_slot(slot, x, mode="eval", hint_ids=hint_ids)
            emit(f"eval slot{slot} {kind} logits", fw.logits.data)
            for k in sorted(fw.hint_maps):
                emit(f"eval slot{slot} {kind} {k}", fw.hint_maps[k].data)
        fw = h.forward_slot(slot, x, mode="eval", hint_ids=hint_ids)
        emit(f"eval slot{slot} tape logits", fw.logits.data)
    for kind in ("first", "second"):  # the joint steps built its memo
        emit(f"eval frozen {kind} logits", h.forward_frozen(x).logits.data)


def run_net(emit: Printer, net: str, dtype: str, seed: int) -> None:
    load, _, batch, pretrain, score_optimizer = NETS[net]
    arch = load()
    h = ModelHierarchy(arch, derive_ta_keep_ratios(0.5, (1.5, 2.5)),
                       seed=seed, dtype=dtype)
    pool = synthetic_dataset(seed, max(2 * batch, arch.classes), arch.classes,
                             arch.in_h, arch.in_c)
    data = Dataset(pool.images[:2 * batch], pool.labels[:2 * batch],
                   arch.classes, "train")
    hint_ids = tuple(sorted(arch.maskable_sizes)[1::3])
    cfg = TrainConfig(batch_size=batch, base_lr=0.05, score_lr=0.5, seed=seed,
                      score_optimizer=score_optimizer,
                      distill=DistillConfig(tau=4.0, lambda_kd=0.4,
                                            lambda_hint=0.001,
                                            hint_layers=hint_ids))
    test = synthetic_dataset(seed + 1, max(batch, arch.classes), arch.classes,
                             arch.in_h, arch.in_c, split="test")
    with tempfile.TemporaryDirectory() as out_dir:
        trainer = Trainer(h, data, cfg, val_data=test, out_dir=out_dir)
        if pretrain:
            trainer.pretrain_top(pretrain)
            saved(emit, trainer, "pretrain")
        else:
            h.freeze_teacher()
        trainer.joint_epoch()
        saved(emit, trainer, "joint")
        trainer.intermediate_epoch()
        saved(emit, trainer, "intermediate")
        trainer.finetune_epoch()
        saved(emit, trainer, "finetune")
        trainer.state.teacher_index = len(h.slots)
        trainer.finetune_epoch()
        saved(emit, trainer, "finetune_frozen")
        trainer.close()
        with open(os.path.join(out_dir, "metrics.csv")) as fh:
            for n, line in enumerate(fh):
                emit(f"row{n}", np.frombuffer(line.encode(), np.uint8))
    x = test.images[:batch]
    eval_logits(emit, h, x.astype(ad.DTYPES[dtype]), hint_ids)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nets", nargs="+", choices=sorted(NETS),
                    default=list(NETS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    print(blas_line())
    emit = Printer(sys.stdout)
    emit.start("arch")
    for name, source in ARCHS.items():
        emit(name, np.frombuffer(describe(resolve_arch(source)).encode(),
                                 np.uint8))
    watch_steps(emit)
    for net in args.nets:
        for dtype in NETS[net][1]:
            emit.start(f"{net} {dtype}")
            run_net(emit, net, dtype, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
