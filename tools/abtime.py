"""Time two source trees against each other, interleaved in one process.

    OPENBLAS_NUM_THREADS=1 python3 tools/abtime.py OLD_TREE NEW_TREE \\
        [--arch mobilenetv1_cifar100] [--batch 32] [--rounds 8] [--step finetune]

Each tree is a checkout of this repository (its root, holding src/). Both
are imported in this process under distinct package names, so their
code runs on the same host phase. Each gets the benchmark's hierarchy
(student keep ratio 0.5, assistants from divisors 1.5 and 2.5, a frozen
teacher) built from the same seed, and the same synthetic images. Every
round times, for each task, one call per tree, the order alternating
from round to round: one training step (a fine-tune step of the
student against slot 1, or a joint step), then the student's and the
top slot's eval pass (no tape, each after an untimed pass that rebuilds
the memo the step dropped). The script prints, per task,
each tree's median milliseconds, the median of the rounds' ratios
new/old, and in how many rounds the new tree was faster.

Why one process: timed as separate processes on a shared 2-core host,
the same student pass ranged from 42 to 62 ms between runs, which hides
a 5% effect. Interleaved, both trees see the same host phase.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import time

import numpy as np


def load_tree(tree: str, name: str):
    """The package under tree/src/cascadeprune, imported as `name`."""
    pkg_dir = os.path.join(os.path.abspath(tree), "src", "cascadeprune")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("autodiff", "arch", "data", "hierarchy", "training"):
        importlib.import_module(f"{name}.{sub}")
    return pkg, pkg_dir


class Side:
    """One tree's hierarchy, trainer and images, and its three tasks."""

    def __init__(self, tree: str, name: str, arch_id: str, batch: int,
                 seed: int, step: str):
        pkg, pkg_dir = load_tree(tree, name)
        # resolve_arch looks the package up as cascadeprune, so the arch
        # is read from this tree's own file
        arch = pkg.arch.load_arch(os.path.join(pkg_dir, "archs", f"{arch_id}.arch"))
        h = pkg.hierarchy.ModelHierarchy(
            arch, pkg.hierarchy.derive_ta_keep_ratios(0.5, (1.5, 2.5)), seed=seed)
        h.freeze_teacher()
        data = pkg.data.synthetic_dataset(seed, max(batch, arch.classes),
                                          arch.classes, arch.in_h, arch.in_c)
        data = pkg.data.Dataset(data.images[:batch], data.labels[:batch],
                                arch.classes, "train")
        self.trainer = pkg.training.Trainer(
            h, data, pkg.training.TrainConfig(batch_size=batch, seed=seed))
        self.images = data.images
        self.h, self.ad, self.step = h, pkg.autodiff, step

    def eval_pass(self, slot: int) -> None:
        with self.ad.no_grad():
            self.h.forward_slot(slot, self.images, mode="eval").logits.data.sum()

    def train_step(self) -> None:
        if self.step == "joint":
            self.trainer.joint_epoch()
        else:
            self.trainer.finetune_epoch()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="the reference tree")
    ap.add_argument("new", help="the tree under test")
    ap.add_argument("--arch", default="mobilenetv1_cifar100")
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--step", choices=("finetune", "joint"), default="finetune")
    args = ap.parse_args(argv)

    sides = [Side(tree, f"abtime_{tag}", args.arch, args.batch, args.seed, args.step)
             for tree, tag in ((args.old, "old"), (args.new, "new"))]
    top = len(sides[0].h.slots) - 1
    tasks = {f"{args.step} step": lambda s: s.train_step(),
             "student eval": lambda s: s.eval_pass(0),
             "top eval": lambda s: s.eval_pass(top)}
    times = {task: ([], []) for task in tasks}
    for r in range(args.rounds + 1):  # round 0 warms up, untimed
        for task, run in tasks.items():
            if task.endswith("eval"):  # time a memo hit: the step dropped it
                for side in sides:
                    run(side)
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                run(sides[i])
                if r:
                    times[task][i].append(time.perf_counter() - t0)

    print(f"{args.arch}, batch {args.batch}, {args.rounds} rounds, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"{'task':<16} {'old ms':>9} {'new ms':>9} {'new/old':>8} {'wins':>6}")
    for task, (old, new) in times.items():
        ratios = np.array(new) / np.array(old)  # one per round
        print(f"{task:<16} {1e3 * np.median(old):9.2f} {1e3 * np.median(new):9.2f} "
              f"{np.median(ratios):8.3f} {int((ratios < 1).sum()):>3}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
