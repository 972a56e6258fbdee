"""Command-line surface.

Commands: train (full pipeline), finetune (resume into the student
stage), analyze (cost table for an architecture, optionally under a
checkpoint's masks), eval (accuracy of one slot), export (per-layer
pruning histogram and an epoch summary from a finished run).

Configuration precedence: built-in defaults, then the --config YAML
file, then explicit flags. The fully resolved configuration is written
into the output directory. Exit codes: 0 success, 1 validation error,
2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from importlib import resources

import yaml

from .arch import (ArchError, ArchSpec, compression_report, count_stats,
                   load_arch, parse_arch)
from .checkpoint import CheckpointError, copy_checkpoint, load_checkpoint
from .data import (AugmentConfig, DataError, Dataset, channel_stats,
                   load_cifar10, load_mnist_idx, synthetic_dataset)
from .distill import DistillConfig
from .hierarchy import (HierarchyError, ModelHierarchy, checkpoint_mask,
                        derive_ta_keep_ratios)
from .masking import MaskError
from .training import (TrainConfig, Trainer, TrainingError, evaluate,
                       evaluate_frozen, load_tensors, read_training_checkpoint)

DATA_ROOT_ENV = "CASCADEPRUNE_DATA_ROOT"
SHIPPED_ARCHS = ("vgg16_cifar10", "resnet50_imagenet", "mobilenetv1_cifar100")


class CLIError(ValueError):
    """Configuration or argument validation failure (exit code 1)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _floats(text):
    return [float(x) for x in str(text).replace(",", " ").split()]


def _ints(text):
    return [int(x) for x in str(text).replace(",", " ").split()]


# name -> (type, default, help). Bools get --flag / --no-flag forms.
CONFIG_KEYS = {
    "arch": (str, "vgg16_cifar10", "shipped arch id or path to an .arch file"),
    "dataset": (str, "synthetic", "cifar10, mnist, or synthetic"),
    "data_root": (str, None, f"dataset directory (or ${DATA_ROOT_ENV})"),
    "out": (str, None, "output directory for checkpoints and metrics"),
    "keep_ratio": (float, None, "fraction of filters the student keeps"),
    "prune_ratio": (float, None, "fraction of filters the student drops"),
    "keep_ratios": (_floats, None,
                    "explicit slot ratio list, overrides the divisor rule"),
    "ta_divisors": (_floats, [1.5, 2.5],
                    "teaching-assistant spacing divisors"),
    "min_filters": (int, 1, "per-layer floor of kept filters"),
    "tau": (float, 15.0, "distillation temperature"),
    "lambda_kd": (float, 0.4, "weight of the soft-label term"),
    "lambda_hint": (float, 0.001, "weight of the hint term"),
    "hint_layers": (_ints, [], "maskable conv ids tapped for hints"),
    "complement_ce": (bool, False,
                      "scale cross-entropy by 1 - lambda_kd"),
    "base_lr": (float, 0.008, "initial learning rate"),
    "cycle_len_epochs": (int, 5, "cosine cycle length in epochs"),
    "cycle_decay": (float, 0.9, "per-cycle learning-rate decay"),
    "momentum": (float, 0.9, "Nesterov momentum"),
    "weight_decay": (float, 0.0004, "L2 factor on decaying parameters"),
    "score_lr": (float, 0.01, "learning rate for importance scores"),
    "score_optimizer": (str, "sgd", "score update rule: sgd or rmsprop"),
    "batch_size": (int, 128, "samples per optimizer step"),
    "seed": (int, 0, "run seed"),
    "pretrain_epochs": (int, 0,
                        "supervised epochs minting the frozen teacher"),
    "pretrained": (str, None, "checkpoint holding a trained teacher"),
    "joint_epochs": (int, 30, "epochs of joint mask training"),
    "intermediate_epochs": (int, 0, "epochs of pinned-mask joint training"),
    "finetune_epochs": (int, 30, "epochs of student fine-tuning"),
    "promotion_patience": (int, 1,
                           "consecutive wins before a teacher promotion"),
    "flip_prob": (float, 0.0, "horizontal flip probability"),
    "crop": (bool, False, "random crop from a zero-padded canvas"),
    "crop_pad": (int, 4, "zero padding around the crop canvas"),
    "center_crop": (bool, False, "center instead of random crop offsets"),
    "normalize": (bool, False, "per-channel train-split normalization"),
    "synthetic_samples": (int, 5000, "synthetic train-split size"),
    "synthetic_classes": (int, 10, "synthetic class count"),
    "synthetic_size": (int, 16, "synthetic image height and width"),
    "synthetic_channels": (int, 3, "synthetic channel count"),
}

DEFAULTS = {k: v[1] for k, v in CONFIG_KEYS.items()}


def _add_config_flags(p: argparse.ArgumentParser, keys=None) -> None:
    p.add_argument("--config", help="YAML file with config keys")
    for key in keys or CONFIG_KEYS:
        typ, default, text = CONFIG_KEYS[key]
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            p.add_argument(flag, action=argparse.BooleanOptionalAction,
                           default=None, help=f"{text} (default: {default})")
        else:
            p.add_argument(flag, type=typ, default=None,
                           help=f"{text} (default: {default})")


def resolve_config(args) -> tuple[dict, set[str]]:
    """The resolved configuration, and the keys the user set, by flag or
    in the --config file (those given as null count as not set)."""
    cfg = dict(DEFAULTS)
    given: set[str] = set()
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise CLIError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise CLIError(f"{args.config}: expected a mapping at top level")
        unknown = set(loaded) - set(CONFIG_KEYS)
        if unknown:
            raise CLIError(f"{args.config}: unknown config key "
                           f"{sorted(unknown)[0]!r}")
        for key, value in loaded.items():
            if value is not None:
                value = _config_value(args.config, key, value)
                given.add(key)
            cfg[key] = value
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
            given.add(key)
    if cfg["dataset"] not in ("cifar10", "mnist", "synthetic"):
        raise CLIError(f"dataset must be cifar10, mnist, or synthetic, "
                       f"got {cfg['dataset']!r}")
    return cfg, given


def _config_value(path: str, key: str, value):
    """A non-null --config value checked against its key's type, a list
    key's string parsed; CLIError names the file and the key."""
    typ = CONFIG_KEYS[key][0]
    listed = typ in (_ints, _floats)
    if listed and isinstance(value, str):
        try:
            return typ(value)
        except ValueError:
            pass
    want = {_ints: int, _floats: (int, float), float: (int, float)}.get(typ, typ)
    items = value if listed and isinstance(value, list) else [value]
    if (items is value or not listed) and all(
            isinstance(v, want) and (typ is bool or not isinstance(v, bool))
            for v in items):
        return value
    kind = {_ints: "a list of integers", _floats: "a list of numbers"}.get(
        typ, typ.__name__)
    raise CLIError(f"{path}: config key {key!r} takes {kind}, got {value!r}")


def resolve_ratios(cfg: dict) -> list[float]:
    if cfg["keep_ratio"] is not None and cfg["prune_ratio"] is not None:
        raise CLIError("--keep-ratio and --prune-ratio are mutually "
                       "exclusive; give exactly one")
    if cfg["keep_ratios"] is not None:
        return [float(r) for r in cfg["keep_ratios"]]
    if cfg["keep_ratio"] is None and cfg["prune_ratio"] is None:
        raise CLIError("give --keep-ratio, --prune-ratio, or an explicit "
                       "keep_ratios list")
    r0 = cfg["keep_ratio"] if cfg["keep_ratio"] is not None \
        else 1.0 - cfg["prune_ratio"]
    return derive_ta_keep_ratios(r0, cfg["ta_divisors"])


def resolve_arch(name_or_path: str) -> ArchSpec:
    if os.path.exists(name_or_path):
        return load_arch(name_or_path)
    packaged = resources.files("cascadeprune") / "archs" \
        / f"{name_or_path}.arch"
    if packaged.is_file():
        return parse_arch(packaged.read_text(), name=name_or_path)
    raise CLIError(f"unknown architecture {name_or_path!r}; shipped ids: "
                   f"{', '.join(SHIPPED_ARCHS)}")


def resolve_datasets(cfg: dict) -> tuple[Dataset, Dataset]:
    kind = cfg["dataset"]
    if kind == "synthetic":
        n = cfg["synthetic_samples"]
        train = synthetic_dataset(cfg["seed"], n, cfg["synthetic_classes"],
                                  cfg["synthetic_size"],
                                  cfg["synthetic_channels"], split="train")
        test = synthetic_dataset(cfg["seed"] + 1000,
                                 max(n // 5, cfg["synthetic_classes"]),
                                 cfg["synthetic_classes"],
                                 cfg["synthetic_size"],
                                 cfg["synthetic_channels"], split="test")
        return train, test
    root = cfg["data_root"] or os.environ.get(DATA_ROOT_ENV)
    if not root:
        raise CLIError(f"dataset {kind!r} needs --data-root or "
                       f"${DATA_ROOT_ENV}")
    return load_cifar10(root) if kind == "cifar10" else load_mnist_idx(root)


def build_augment(cfg: dict, arch: ArchSpec,
                  train: Dataset) -> AugmentConfig | None:
    wants = cfg["flip_prob"] > 0 or cfg["crop"] or cfg["normalize"]
    if not wants:
        return None
    return AugmentConfig(
        flip_prob=cfg["flip_prob"],
        crop_size=(arch.in_h, arch.in_w) if cfg["crop"] else None,
        crop_pad=cfg["crop_pad"],
        center_crop=cfg["center_crop"],
        normalization=channel_stats(train) if cfg["normalize"] else None)


def build_train_config(cfg: dict, augment) -> TrainConfig:
    return TrainConfig(
        batch_size=cfg["batch_size"], base_lr=cfg["base_lr"],
        cycle_len_epochs=cfg["cycle_len_epochs"],
        cycle_decay=cfg["cycle_decay"], momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"], score_lr=cfg["score_lr"],
        score_optimizer=cfg["score_optimizer"],
        distill=DistillConfig(tau=cfg["tau"], lambda_kd=cfg["lambda_kd"],
                              lambda_hint=cfg["lambda_hint"],
                              hint_layers=tuple(cfg["hint_layers"]),
                              complement_ce=cfg["complement_ce"]),
        augment=augment, promotion_patience=cfg["promotion_patience"],
        seed=cfg["seed"])


def write_resolved_config(cfg: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.yaml"), "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# display helpers
# ---------------------------------------------------------------------------

def fmt_params(n: int) -> str:
    return f"{n / 1e6:.2f}M" if n >= 1e6 else f"{n:,}"


def fmt_flops(n: int) -> str:
    if n >= 1e9:
        return f"{n / 1e9:.2f}B"
    if n >= 1e6:
        return f"{n / 1e6:.0f}M"
    return f"{n:,}"


def _print_stats(report, out=None) -> None:
    out = out if out is not None else sys.stdout
    print(f"{'layer':<24}{'output':<18}{'params':>12}{'flops':>16}", file=out)
    for row in report.layers:
        shape = "x".join(str(d) for d in row.out_shape)
        print(f"{row.label:<24}{shape:<18}{row.params:>12}{row.flops:>16}",
              file=out)
    groups = report.by_group()
    if len(groups) < len(report.layers):
        print("per-group subtotals:", file=out)
        for group, flops, params in groups:
            print(f"{group:<24}{'':<18}{params:>12}{flops:>16}", file=out)
    print(f"total: {fmt_flops(report.total_flops)} FLOPs, "
          f"{fmt_params(report.total_params)} params "
          f"({report.total_flops:,} / {report.total_params:,})", file=out)


def _write_stats_csv(report, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "label", "params", "flops"])
        for row in report.layers:
            w.writerow(["layer", row.label, row.params, row.flops])
        for group, flops, params in report.by_group():
            w.writerow(["group", group, params, flops])
        w.writerow(["total", "", report.total_params, report.total_flops])


def _checkpoint_hierarchy(cfg: dict, given: set[str],
                          meta: dict) -> ModelHierarchy:
    """A fresh hierarchy of a training checkpoint's arch, unless the
    config names one, at the checkpoint's keep ratios."""
    arch = resolve_arch(str(cfg["arch"]) if "arch" in given else meta["arch"])
    return ModelHierarchy(arch, meta["keep_ratios"], seed=cfg["seed"],
                          min_filters=cfg["min_filters"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _stage_epochs(trainer: Trainer, out_dir: str, runner, count: int) -> None:
    for _ in range(count):
        runner()
        path = os.path.join(out_dir, f"epoch_{trainer.state.epoch:04d}.ckpt")
        trainer.save(path)
        copy_checkpoint(path, os.path.join(out_dir, "latest.ckpt"))


def _run_stages(cfg: dict, hierarchy, stages, checkpoint: str | None) -> int:
    """Train a hierarchy(meta of `checkpoint`, or None): build the Trainer,
    write config.yaml, load the checkpoint or else pretrain, run each
    stage's `<stage>_epochs` epochs with a checkpoint after every epoch,
    and print the final report."""
    tensors, meta = read_training_checkpoint(checkpoint) if checkpoint \
        else (None, None)
    h = hierarchy(meta)
    train, test = resolve_datasets(cfg)
    trainer = Trainer(h, train, build_train_config(cfg, build_augment(cfg, h.arch, train)),
                      val_data=test, out_dir=cfg["out"])
    write_resolved_config(cfg, cfg["out"])
    try:
        if tensors is not None:
            trainer.load_state(tensors, meta)
            del tensors  # let the loaded weights go once training replaces them
        elif cfg["pretrain_epochs"] > 0:
            trainer.pretrain_top(cfg["pretrain_epochs"])
            trainer.save(os.path.join(cfg["out"], "latest.ckpt"))
        for stage in stages:
            _stage_epochs(trainer, cfg["out"], getattr(trainer, f"{stage}_epoch"),
                          cfg[f"{stage}_epochs"])
    finally:
        trainer.close()
    print(compression_report(count_stats(h.arch),
                             count_stats(h.arch, h.student.state.mask)))
    acc = evaluate(h, 0, test, augment=trainer.eval_augment)
    print(f"student test accuracy: {acc:.4f}")
    return 0


def cmd_train(args) -> int:
    cfg, _ = resolve_config(args)
    if not cfg["out"]:
        raise CLIError("--out is required for train")
    ratios = resolve_ratios(cfg)
    arch = resolve_arch(cfg["arch"])
    return _run_stages(
        cfg, lambda meta: ModelHierarchy(arch, ratios, seed=cfg["seed"],
                                         min_filters=cfg["min_filters"]),
        ("joint", "intermediate", "finetune"), cfg["pretrained"])


def cmd_finetune(args) -> int:
    cfg, given = resolve_config(args)
    if not args.checkpoint:
        raise CLIError("--checkpoint is required for finetune")
    if not cfg["out"]:
        raise CLIError("--out is required for finetune")
    return _run_stages(cfg, lambda meta: _checkpoint_hierarchy(cfg, given, meta),
                       ("finetune",), args.checkpoint)


def cmd_analyze(args) -> int:
    arch = resolve_arch(args.arch)
    mask = None
    if args.checkpoint:
        tensors, _ = load_checkpoint(args.checkpoint)
        mask = checkpoint_mask(tensors, arch, args.slot)
    report = count_stats(arch, mask)
    _print_stats(report)
    if mask is not None:
        print(compression_report(count_stats(arch), report))
    if args.out_csv:
        _write_stats_csv(report, args.out_csv)
    return 0


def cmd_eval(args) -> int:
    cfg, given = resolve_config(args)
    tensors, meta = read_training_checkpoint(args.checkpoint)
    h = _checkpoint_hierarchy(cfg, given, meta)
    load_tensors(h, tensors)
    train, test = resolve_datasets(cfg)
    augment = None
    if cfg["normalize"]:
        augment = AugmentConfig(normalization=channel_stats(train))
    if not 0 <= args.slot <= len(h.slots):
        raise CLIError(f"slot must be 0..{len(h.slots)} "
                       f"({len(h.slots)} = frozen teacher)")
    if args.slot == len(h.slots):
        acc = evaluate_frozen(h, test, augment=augment)
    else:
        acc = evaluate(h, args.slot, test, augment=augment)
    print(f"slot {args.slot} top-1 accuracy: {acc:.4f}")
    return 0


def cmd_export(args) -> int:
    run_dir = args.run
    metrics_path = os.path.join(run_dir, "metrics.csv")
    ckpt_path = args.checkpoint or os.path.join(run_dir, "latest.ckpt")
    if not os.path.exists(metrics_path):
        raise DataError(f"no metrics file at {metrics_path}")
    if not os.path.exists(ckpt_path):
        raise DataError(f"no checkpoint at {ckpt_path}")
    tensors, meta = read_training_checkpoint(ckpt_path)
    h = ModelHierarchy(resolve_arch(args.arch or meta["arch"]),
                       meta["keep_ratios"])
    load_tensors(h, tensors)
    masks = [slot.state.mask for slot in h.slots]
    out_dir = args.out or run_dir
    os.makedirs(out_dir, exist_ok=True)

    hist_path = os.path.join(out_dir, "mask_histogram.csv")
    with open(hist_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["slot", "layer_id", "filters", "kept", "pruned",
                    "kept_pct", "pruned_pct"])
        for slot, mask in enumerate(masks):
            kept_per_layer = mask.kept_per_layer()
            for lid in sorted(mask.layers):
                total = mask.layers[lid].size
                kept = kept_per_layer[lid]
                w.writerow([slot, lid, total, kept, total - kept,
                            f"{100.0 * kept / total:.2f}",
                            f"{100.0 * (total - kept) / total:.2f}"])

    summary_path = os.path.join(out_dir, "summary.csv")
    _summarize_metrics(metrics_path, summary_path)
    print(f"wrote {hist_path} and {summary_path}")
    return 0


def _summarize_metrics(metrics_path: str, out_path: str) -> None:
    """Collapse per-step rows into per-epoch means per (stage, slot)."""
    groups: dict[tuple, list[dict]] = {}
    order = []
    with open(metrics_path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["epoch"]), row["stage"], int(row["slot"]))
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "stage", "slot", "mean_loss", "mean_accuracy",
                    "kept_filters_total", "flops", "params"])
        for key in order:
            rows = groups[key]
            loss = sum(float(r["loss"]) for r in rows) / len(rows)
            acc = sum(float(r["accuracy"]) for r in rows) / len(rows)
            last = rows[-1]
            w.writerow([key[0], key[1], key[2], f"{loss:.6f}", f"{acc:.6f}",
                        last["kept_filters_total"], last["flops"],
                        last["params"]])


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadeprune",
        description="Cascaded filter pruning with distillation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training pipeline")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_ft = sub.add_parser("finetune", help="resume into student fine-tuning")
    p_ft.add_argument("--checkpoint", help="training checkpoint to resume")
    _add_config_flags(p_ft)
    p_ft.set_defaults(func=cmd_finetune)

    p_an = sub.add_parser("analyze", help="cost table for an architecture")
    p_an.add_argument("arch", help="shipped arch id or .arch path")
    p_an.add_argument("--checkpoint", help="apply this checkpoint's masks")
    p_an.add_argument("--slot", type=int, default=0,
                      help="whose mask to apply (default: 0, the student)")
    p_an.add_argument("--out-csv", help="also write the table as CSV")
    p_an.set_defaults(func=cmd_analyze)

    p_ev = sub.add_parser("eval", help="accuracy of one slot")
    p_ev.add_argument("--checkpoint", required=True)
    p_ev.add_argument("--slot", type=int, default=0,
                      help="slot index; the slot count selects the frozen "
                           "teacher (default: 0)")
    _add_config_flags(p_ev)
    p_ev.set_defaults(func=cmd_eval)

    p_ex = sub.add_parser("export", help="histogram and summary CSVs")
    p_ex.add_argument("run", help="run directory with metrics.csv")
    p_ex.add_argument("--checkpoint", help="default: <run>/latest.ckpt")
    p_ex.add_argument("--arch", help="override the checkpoint's arch id")
    p_ex.add_argument("--out", help="output directory (default: the run dir)")
    p_ex.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (CLIError, ArchError, MaskError, ValueError, TrainingError,
            HierarchyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
