"""End-to-end checks of the command-line interface."""

import csv
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from cascadeprune.checkpoint import load_checkpoint, save_checkpoint
from cascadeprune.cli import _stage_epochs, main
from cascadeprune.masking import FilterMask

TINY_ARCH = """\
input c=1 h=8 w=8

conv k=3 in=1 out=4 maskable=false
bn
relu
conv k=3 in=4 out=6
bn
relu
pool kind=max k=2 stride=2
conv k=3 in=6 out=6
bn
relu
pool kind=gap
classifier in=6 out=3
"""

SYNTH_FLAGS = ["--dataset", "synthetic", "--synthetic-samples", "60",
               "--synthetic-classes", "3", "--synthetic-size", "8",
               "--synthetic-channels", "1", "--seed", "7",
               "--batch-size", "16"]


@pytest.fixture(scope="module")
def tiny_arch(tmp_path_factory):
    path = tmp_path_factory.mktemp("arch") / "tiny.arch"
    path.write_text(TINY_ARCH)
    return str(path)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, tiny_arch):
    """One small pipeline run shared by the read-only command tests."""
    out = str(tmp_path_factory.mktemp("run"))
    rc = main(["train", "--arch", tiny_arch, *SYNTH_FLAGS,
               "--keep-ratio", "0.5", "--ta-divisors", "2.0",
               "--pretrain-epochs", "1", "--joint-epochs", "2",
               "--finetune-epochs", "1", "--out", out])
    assert rc == 0
    return out


class TestAnalyze:
    def test_vgg_totals_on_stdout(self, capsys):
        assert main(["analyze", "vgg16_cifar10"]) == 0
        out = capsys.readouterr().out
        assert "14.98M params" in out
        assert "313M FLOPs" in out
        assert "conv12" in out

    def test_csv_table(self, tmp_path, capsys):
        csv_path = str(tmp_path / "stats.csv")
        assert main(["analyze", "vgg16_cifar10", "--out-csv", csv_path]) == 0
        rows = list(csv.DictReader(open(csv_path)))
        total = [r for r in rows if r["kind"] == "total"]
        assert len(total) == 1
        assert int(total[0]["params"]) == 14_977_728
        assert int(total[0]["flops"]) == 313_463_808
        assert sum(1 for r in rows if r["kind"] == "layer") == 15

    def test_unknown_arch(self, capsys):
        assert main(["analyze", "no_such_arch"]) == 1
        assert "no_such_arch" in capsys.readouterr().err

    def test_malformed_arch_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.arch"
        bad.write_text("input c=1 h=8 w=8\nconv k=3 in=WRONG out=4\n")
        assert main(["analyze", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.arch:2" in err

    def test_masked_analyze_reports_compression(self, trained_run,
                                                tiny_arch, capsys):
        ckpt = os.path.join(trained_run, "latest.ckpt")
        assert main(["analyze", tiny_arch, "--checkpoint", ckpt]) == 0
        out = capsys.readouterr().out
        assert "fewer parameters" in out
        assert "fewer FLOPs" in out


class TestTrain:
    def test_outputs_exist(self, trained_run):
        names = sorted(os.listdir(trained_run))
        assert "latest.ckpt" in names
        assert "metrics.csv" in names
        assert "config.yaml" in names
        assert any(n.startswith("epoch_") and n.endswith(".ckpt")
                   for n in names)
        with open(os.path.join(trained_run, "metrics.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("step,epoch,stage,slot,loss")
        assert len(lines) > 1

    def test_latest_refresh_survives_a_failed_copy(self, tmp_path, monkeypatch):
        """A copy that fails halfway through leaves the previous
        latest.ckpt whole and loadable, and no temp file behind."""
        state = SimpleNamespace(epoch=0)

        def save(path):
            save_checkpoint(path, {"w": np.full(4096, state.epoch, np.float32)},
                            {"epoch": state.epoch})

        trainer = SimpleNamespace(state=state, save=save)

        def runner():
            state.epoch += 1

        _stage_epochs(trainer, str(tmp_path), runner, 1)

        def torn_copy(fsrc, fdst, length=0):
            fdst.write(fsrc.read(100))
            raise OSError("disk full")

        monkeypatch.setattr(shutil, "copyfileobj", torn_copy)
        with pytest.raises(OSError, match="disk full"):
            _stage_epochs(trainer, str(tmp_path), runner, 1)
        tensors, meta = load_checkpoint(str(tmp_path / "latest.ckpt"))
        assert meta == {"epoch": 1}
        assert np.array_equal(tensors["w"], np.ones(4096, np.float32))
        assert sorted(os.listdir(tmp_path)) == [
            "epoch_0001.ckpt", "epoch_0002.ckpt", "latest.ckpt"]

    def test_resolved_config_written(self, trained_run):
        cfg = yaml.safe_load(open(os.path.join(trained_run, "config.yaml")))
        assert cfg["keep_ratio"] == 0.5
        assert cfg["joint_epochs"] == 2
        assert cfg["batch_size"] == 16

    def test_ratio_conflict(self, tmp_path, capsys):
        rc = main(["train", "--keep-ratio", "0.5", "--prune-ratio", "0.5",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_ratio_missing(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path / "o")]) == 1

    def test_out_missing(self, capsys):
        assert main(["train", "--keep-ratio", "0.5"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_unknown_dataset(self, tmp_path, capsys):
        rc = main(["train", "--keep-ratio", "0.5", "--dataset", "imagenet",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_data_root_env_is_honored(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "cifar"
        root.mkdir()
        monkeypatch.setenv("CASCADEPRUNE_DATA_ROOT", str(root))
        rc = main(["train", "--keep-ratio", "0.5", "--dataset", "cifar10",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert str(root) in capsys.readouterr().err

    def test_missing_data_root_is_validation_error(self, tmp_path, capsys):
        rc = main(["train", "--keep-ratio", "0.5", "--dataset", "cifar10",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "CASCADEPRUNE_DATA_ROOT" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, tiny_arch):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "arch": tiny_arch, "dataset": "synthetic",
            "synthetic_samples": 60, "synthetic_classes": 3,
            "synthetic_size": 8, "synthetic_channels": 1,
            "keep_ratio": 0.5, "ta_divisors": [2.0], "batch_size": 16,
            "pretrain_epochs": 1, "joint_epochs": 1, "finetune_epochs": 0,
            "seed": 7}))
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg_path),
                   "--joint-epochs", "2", "--out", str(out)])
        assert rc == 0
        resolved = yaml.safe_load(open(out / "config.yaml"))
        assert resolved["joint_epochs"] == 2, "flag overrides the file"
        assert resolved["batch_size"] == 16, "file overrides the default"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("learning_rate: 0.1\n")
        rc = main(["train", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("batch_size", "abc"), ("keep_ratio", "0.5"), ("finetune_epochs", 1.5),
        ("seed", "7"), ("crop", "yes")])
    def test_a_mistyped_config_value_is_a_validation_error(
            self, tmp_path, tiny_arch, capsys, key, value):
        """A --config value of the wrong type exits 1 naming the file and
        the key, neither failing later nor taken for another value."""
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(
            {"keep_ratio": 0.5, "joint_epochs": 0, "finetune_epochs": 0,
             key: value}))
        # the data flags only: --seed and --batch-size would override the key
        rc = main(["train", "--config", str(cfg_path), "--arch", tiny_arch,
                   *SYNTH_FLAGS[:10], "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert str(cfg_path) in err and repr(key) in err

    def test_same_seed_byte_identical(self, tmp_path, tiny_arch):
        argv = ["train", "--arch", tiny_arch, *SYNTH_FLAGS,
                "--keep-ratio", "0.5", "--ta-divisors", "2.0",
                "--pretrain-epochs", "1", "--joint-epochs", "1",
                "--finetune-epochs", "0"]
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(argv + ["--out", out]) == 0
            outs.append(out)
        m = [open(os.path.join(o, "metrics.csv"), "rb").read() for o in outs]
        c = [open(os.path.join(o, "latest.ckpt"), "rb").read() for o in outs]
        assert m[0] == m[1]
        assert c[0] == c[1]


class TestEval:
    def test_student_accuracy_printed(self, trained_run, tiny_arch, capsys):
        rc = main(["eval", "--checkpoint",
                   os.path.join(trained_run, "latest.ckpt"),
                   "--arch", tiny_arch, *SYNTH_FLAGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slot 0 top-1 accuracy:" in out
        acc = float(out.rsplit(":", 1)[1])
        assert 0.0 <= acc <= 1.0

    def test_frozen_teacher_slot(self, trained_run, tiny_arch, capsys):
        rc = main(["eval", "--checkpoint",
                   os.path.join(trained_run, "latest.ckpt"),
                   "--arch", tiny_arch, "--slot", "2", *SYNTH_FLAGS])
        assert rc == 0
        assert "slot 2" in capsys.readouterr().out

    def test_slot_out_of_range(self, trained_run, tiny_arch, capsys):
        rc = main(["eval", "--checkpoint",
                   os.path.join(trained_run, "latest.ckpt"),
                   "--arch", tiny_arch, "--slot", "9", *SYNTH_FLAGS])
        assert rc == 1


class TestArchOverride:
    @pytest.mark.parametrize("command", ["eval", "finetune"])
    def test_arch_from_the_config_file_overrides_the_checkpoint(
            self, trained_run, tiny_arch, tmp_path, command, capsys):
        """A checkpoint naming an arch that no longer resolves still loads
        when the --config file (and no flag) names the arch."""
        tensors, meta = load_checkpoint(os.path.join(trained_run, "latest.ckpt"))
        ckpt = str(tmp_path / "moved.ckpt")
        save_checkpoint(ckpt, tensors, dict(meta, arch="no_such_arch"))
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump({"arch": tiny_arch}))
        argv = [command, "--checkpoint", ckpt, *SYNTH_FLAGS]
        if command == "finetune":
            argv += ["--finetune-epochs", "1", "--out", str(tmp_path / "ft")]
        assert main(argv) == 1
        assert "no_such_arch" in capsys.readouterr().err
        assert main(argv + ["--config", str(cfg_path)]) == 0


class TestFinetune:
    def test_resumes_and_reports(self, trained_run, tiny_arch,
                                 tmp_path, capsys):
        out = str(tmp_path / "ft")
        rc = main(["finetune", "--checkpoint",
                   os.path.join(trained_run, "latest.ckpt"),
                   "--arch", tiny_arch, *SYNTH_FLAGS,
                   "--finetune-epochs", "1", "--out", out])
        assert rc == 0
        assert "student test accuracy" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "latest.ckpt"))

    def test_checkpoint_required(self, tmp_path, capsys):
        assert main(["finetune", "--out", str(tmp_path / "o")]) == 1

    def test_reads_the_checkpoint_once(self, trained_run, tiny_arch,
                                       tmp_path, monkeypatch):
        import cascadeprune.cli as cli
        import cascadeprune.training as training
        reads = []

        def counting(path):
            reads.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(cli, "load_checkpoint", counting)
        monkeypatch.setattr(training, "load_checkpoint", counting)
        rc = main(["finetune", "--checkpoint",
                   os.path.join(trained_run, "latest.ckpt"),
                   "--arch", tiny_arch, *SYNTH_FLAGS,
                   "--finetune-epochs", "1", "--out", str(tmp_path / "ft")])
        assert rc == 0
        assert len(reads) == 1


class TestExport:
    def test_histogram_rows_cover_layers_and_slots(self, trained_run,
                                                   tiny_arch, capsys):
        rc = main(["export", trained_run, "--arch", tiny_arch])
        assert rc == 0
        rows = list(csv.DictReader(
            open(os.path.join(trained_run, "mask_histogram.csv"))))
        # two maskable convs, three slots (student, one TA, top)
        assert len(rows) == 6
        assert {(r["slot"], r["layer_id"]) for r in rows} \
            == {(str(s), str(l)) for s in range(3) for l in range(2)}
        for r in rows:
            assert int(r["kept"]) + int(r["pruned"]) == int(r["filters"])
        student = [r for r in rows if r["slot"] == "0"]
        kept = sum(int(r["kept"]) for r in student)
        total = sum(int(r["filters"]) for r in student)
        assert kept / total == pytest.approx(0.5, abs=0.01)

    def test_all_ones_masks_export_zero_pruned(self, tmp_path, tiny_arch):
        out = str(tmp_path / "full")
        rc = main(["train", "--arch", tiny_arch, *SYNTH_FLAGS,
                   "--keep-ratios", "1.0 1.0", "--lambda-kd", "0",
                   "--lambda-hint", "0", "--joint-epochs", "1",
                   "--finetune-epochs", "0", "--out", out])
        assert rc == 0
        assert main(["export", out, "--arch", tiny_arch]) == 0
        rows = list(csv.DictReader(
            open(os.path.join(out, "mask_histogram.csv"))))
        assert rows and all(float(r["pruned_pct"]) == 0.0 for r in rows)

    def test_summary_aggregates_epochs(self, trained_run, tiny_arch):
        assert main(["export", trained_run, "--arch", tiny_arch]) == 0
        rows = list(csv.DictReader(
            open(os.path.join(trained_run, "summary.csv"))))
        assert rows
        stages = {r["stage"] for r in rows}
        assert "joint" in stages and "student_finetune" in stages
        for r in rows:
            float(r["mean_loss"]), float(r["mean_accuracy"])

    def test_kept_column_is_kept_per_layer(self, trained_run, tiny_arch):
        """Each slot's kept counts are its checkpointed mask's
        kept_per_layer(), row by row."""
        assert main(["export", trained_run, "--arch", tiny_arch]) == 0
        rows = list(csv.DictReader(
            open(os.path.join(trained_run, "mask_histogram.csv"))))
        tensors, _ = load_checkpoint(os.path.join(trained_run, "latest.ckpt"))
        for slot in range(3):
            prefix = f"slot{slot}.mask."
            mask = FilterMask({int(k[len(prefix):]): v for k, v in tensors.items()
                               if k.startswith(prefix)})
            got = {int(r["layer_id"]): int(r["kept"]) for r in rows
                   if r["slot"] == str(slot)}
            assert got == mask.kept_per_layer()

    def test_reads_the_checkpoint_once(self, trained_run, tiny_arch,
                                       monkeypatch):
        import cascadeprune.cli as cli
        import cascadeprune.training as training
        reads = []

        def counting(path):
            reads.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(cli, "load_checkpoint", counting)
        monkeypatch.setattr(training, "load_checkpoint", counting)
        assert main(["export", trained_run, "--arch", tiny_arch]) == 0
        assert len(reads) == 1

    @pytest.mark.parametrize("command", ["export", "analyze"])
    def test_a_short_mask_is_rejected_by_name(self, trained_run, tiny_arch,
                                              tmp_path, capsys, command):
        """A mask with fewer entries than its conv has filters is a
        malformed checkpoint, not a smaller layer."""
        tensors, meta = load_checkpoint(os.path.join(trained_run, "latest.ckpt"))
        tensors["slot0.mask.0"] = tensors["slot0.mask.0"][:-2]
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(os.path.join(trained_run, "metrics.csv"), run)
        ckpt = str(run / "latest.ckpt")
        save_checkpoint(ckpt, tensors, meta)
        argv = {"export": ["export", str(run), "--arch", tiny_arch],
                "analyze": ["analyze", tiny_arch, "--checkpoint", ckpt]}
        assert main(argv[command]) == 1
        assert "'slot0.mask.0'" in capsys.readouterr().err
        assert not (run / "mask_histogram.csv").exists()

    def test_missing_run_dir(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "nope")]) == 2


@pytest.fixture(scope="module")
def rmsprop_run(tmp_path_factory, tiny_arch):
    """A run whose checkpoint holds every kind of tensor: shared kernels,
    slot state, a frozen teacher, momentum and rmsprop score state."""
    out = str(tmp_path_factory.mktemp("rmsprop"))
    rc = main(["train", "--arch", tiny_arch, *SYNTH_FLAGS,
               "--keep-ratio", "0.5", "--ta-divisors", "2.0",
               "--score-optimizer", "rmsprop", "--pretrain-epochs", "1",
               "--joint-epochs", "1", "--finetune-epochs", "0",
               "--out", out])
    assert rc == 0
    return out


def _corruptions():
    """(id, change to the meta, change to the tensors, what the error
    names). Each drops a meta key or a state field, adds an unknown
    state field, or drops or shortens the first tensor of a prefix."""
    out = [("none", None, None, None)]
    for key in ("kind", "arch", "keep_ratios", "state"):
        out.append((f"meta-{key}", ("drop", key), None,
                    None if key == "kind" else repr(key)))
    out.append(("state-epoch", ("drop state", "epoch"), None, "'epoch'"))
    out.append(("state-unknown", ("add state", "bogus"), None, "'bogus'"))
    for prefix in ("shared.", "slot0.", "frozen.", "opt.", "scoreopt."):
        for how in ("drop", "short"):
            out.append((f"{how}-{prefix}", None, (how, prefix), prefix))
    return out


class TestCorruptCheckpoints:
    @pytest.mark.parametrize("command", ["finetune", "eval", "export"])
    @pytest.mark.parametrize("label, meta_change, tensor_change, named",
                             _corruptions(), ids=[c[0] for c in _corruptions()])
    def test_every_command_rejects_a_corrupt_checkpoint(
            self, rmsprop_run, tiny_arch, tmp_path, capsys, command, label,
            meta_change, tensor_change, named):
        """Each single corruption of a training checkpoint is a
        validation error (exit 1) naming what is wrong, in every command
        that reads one; the untouched checkpoint runs."""
        tensors, meta = load_checkpoint(os.path.join(rmsprop_run, "latest.ckpt"))
        if meta_change is not None:
            how, key = meta_change
            if how == "drop":
                del meta[key]
            elif how == "drop state":
                del meta["state"][key]
            else:
                meta["state"][key] = 0
        if tensor_change is not None:
            how, prefix = tensor_change
            name = min(k for k in tensors if k.startswith(prefix))
            if how == "drop":
                del tensors[name]
            else:
                tensors[name] = tensors[name][:-1]
            named = repr(name)
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(os.path.join(rmsprop_run, "metrics.csv"), run)
        ckpt = str(run / "latest.ckpt")
        save_checkpoint(ckpt, tensors, meta)
        argv = {"finetune": ["finetune", "--checkpoint", ckpt, "--arch",
                             tiny_arch, *SYNTH_FLAGS, "--score-optimizer",
                             "rmsprop", "--finetune-epochs", "1",
                             "--out", str(tmp_path / "ft")],
                "eval": ["eval", "--checkpoint", ckpt, "--arch", tiny_arch,
                         *SYNTH_FLAGS],
                "export": ["export", str(run), "--arch", tiny_arch,
                           "--out", str(tmp_path / "ex")]}[command]
        rc = main(argv)
        err = capsys.readouterr().err
        if label == "none":
            assert rc == 0, err
            return
        assert rc == 1, err
        if named is not None:
            assert named in err


class TestInvocation:
    def test_help_shows_defaults(self, capsys):
        assert main(["train", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--keep-ratio" in out
        assert "0.008" in out
        assert "0.0004" in out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_module_entry_point(self):
        # the child imports the package from wherever this process does
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "cascadeprune.cli",
             "analyze", "vgg16_cifar10"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0
        assert "14.98M params" in proc.stdout
