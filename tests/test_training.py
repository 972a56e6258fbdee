"""Training pipeline tests.

The state-diff audit and the supervised-equivalence run are the load
bearing pieces: the first proves a joint step touches exactly the state
it should, the second proves the cascade machinery with zeroed
distillation weights degenerates to plain supervised training.
"""

import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import cascadeprune.autodiff as ad
import cascadeprune.training as training
from cascadeprune.arch import parse_arch
from cascadeprune.checkpoint import load_checkpoint, save_checkpoint
from cascadeprune.data import Dataset, batches, synthetic_dataset
from cascadeprune.distill import DistillConfig
from cascadeprune.hierarchy import HierarchyError, ModelHierarchy
from cascadeprune.optim import SGDNesterov, lr_at
from cascadeprune.training import (
    CSV_HEADER,
    MetricsWriter,
    TrainConfig,
    Trainer,
    TrainingError,
    TrainState,
    apply_promotion,
    evaluate,
    evaluate_frozen,
    read_training_checkpoint,
)

TOY = """
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


def toy_hierarchy(ratios=(0.5, 1.0), seed=0):
    return ModelHierarchy(parse_arch(TOY, name="toy"), ratios, seed=seed)


def toy_data(seed=0, n=24):
    return synthetic_dataset(seed, n, classes=3, size=8, channels=1)


def quiet_config(**kw):
    base = dict(batch_size=8, base_lr=0.05, cycle_len_epochs=5,
                score_lr=0.5, seed=0,
                distill=DistillConfig(tau=4.0, lambda_kd=0.3,
                                      lambda_hint=0.0))
    base.update(kw)
    return TrainConfig(**base)


class TestPromotion:
    def test_scripted_two_epochs_patience_two_promotes_once(self):
        state = TrainState()
        promotions = [apply_promotion(state, 0.8, 0.75, patience=2,
                                      slot_count=3) for _ in range(2)]
        assert promotions == [False, True]
        assert state.teacher_index == 2
        assert state.streak == 0

    def test_no_promotion_when_student_behind(self):
        state = TrainState()
        for _ in range(5):
            assert not apply_promotion(state, 0.5, 0.75, 1, 3)
        assert state.teacher_index == 1

    def test_tie_does_not_count_as_a_win(self):
        state = TrainState()
        assert not apply_promotion(state, 0.75, 0.75, 1, 3)
        assert state.streak == 0

    def test_streak_resets_on_a_loss(self):
        state = TrainState()
        apply_promotion(state, 0.8, 0.7, 3, 5)
        apply_promotion(state, 0.8, 0.7, 3, 5)
        apply_promotion(state, 0.6, 0.7, 3, 5)   # loss wipes the streak
        assert state.streak == 0 and state.teacher_index == 1

    def test_terminates_at_frozen_teacher(self):
        state = TrainState()
        for _ in range(10):
            apply_promotion(state, 0.9, 0.1, 1, 3)
        assert state.teacher_index == 3  # == slot_count, the frozen model

    def test_index_is_monotone(self):
        rng = np.random.default_rng(0)
        state = TrainState()
        seen = [state.teacher_index]
        for _ in range(60):
            apply_promotion(state, rng.random(), rng.random(), 2, 4)
            seen.append(state.teacher_index)
        assert all(a <= b for a, b in zip(seen, seen[1:]))

    def test_history_recorded(self):
        state = TrainState()
        apply_promotion(state, 0.8, 0.75, 2, 3)
        assert state.val_history == {"student": [0.8], "teacher": [0.75]}


class TestEvaluate:
    def test_self_consistent_labels_score_one(self):
        # label each image with the model's own prediction: accuracy 1.0
        h = toy_hierarchy()
        images = np.random.default_rng(0).random((20, 1, 8, 8)).astype(np.float32)
        with ad.no_grad():
            fwd = h.forward_slot(1, images, mode="eval")
        ds = Dataset(images, fwd.logits.data.argmax(axis=1).astype(np.int64),
                     3, "test")
        assert evaluate(h, 1, ds) == 1.0

    def test_random_labels_near_chance(self):
        h = ModelHierarchy(parse_arch(TOY.replace("out=3", "out=10"),
                                      name="toy10"), (0.5, 1.0), seed=3)
        rng = np.random.default_rng(1)
        ds = Dataset(rng.random((1200, 1, 8, 8)).astype(np.float32),
                     rng.integers(0, 10, 1200), 10, "test")
        acc = evaluate(h, 1, ds)
        assert abs(acc - 0.1) < 0.03

    def test_repeat_identical(self):
        h = toy_hierarchy()
        ds = toy_data()
        assert evaluate(h, 0, ds) == evaluate(h, 0, ds)

    def test_frozen_matches_top_right_after_freezing(self):
        h = toy_hierarchy()
        h.freeze_teacher()
        ds = toy_data()
        assert evaluate_frozen(h, ds) == evaluate(h, 1, ds)


class TestStateDiffAudit:
    def test_one_joint_batch_touches_exactly_the_right_state(self, tmp_path):
        h = toy_hierarchy(ratios=(0.5, 1.0), seed=1)
        h.freeze_teacher()
        data = toy_data(seed=2, n=8)   # one batch exactly
        trainer = Trainer(h, data, quiet_config(score_lr=50.0))
        before = {k: v.copy() for k, v in h.named_tensors().items()}
        trainer.joint_epoch()

        after = h.named_tensors()
        changed = {k for k in before if not np.array_equal(before[k], after[k])}
        unchanged = set(before) - changed

        frozen = {k for k in before if k.startswith("frozen.")}
        assert frozen <= unchanged, "the frozen teacher must never move"
        assert {k for k in before if k.startswith("slot1.mask.")} <= unchanged

        for k in before:
            if k.startswith("shared.") or ".stem." in k or ".dense" in k:
                if not k.startswith("frozen."):
                    assert k in changed, f"{k} should have trained"
        for pre in ("slot0", "slot1"):
            for piece in ("gamma", "beta", "rmean", "rvar"):
                assert any(k.startswith(f"{pre}.bn") and k.endswith(piece)
                           and k in changed for k in before), (pre, piece)
        score_keys = {k for k in before if k.startswith("slot0.scores.")}
        assert score_keys and score_keys <= changed
        mask_keys = {k for k in before if k.startswith("slot0.mask.")}
        assert mask_keys & changed, "a large score step must move the mask"

    def test_intermediate_epoch_pins_masks_and_scores(self):
        h = toy_hierarchy(seed=1)
        h.freeze_teacher()
        trainer = Trainer(h, toy_data(n=16), quiet_config(score_lr=5.0))
        before = {k: v.copy() for k, v in h.named_tensors().items()}
        trainer.intermediate_epoch()
        after = h.named_tensors()
        for k in before:
            if k.startswith("slot0.scores.") or ".mask." in k:
                assert np.array_equal(before[k], after[k]), k
        assert not np.array_equal(before["shared.conv1.w"],
                                  after["shared.conv1.w"])


class TestSupervisedEquivalence:
    def _reference_losses(self, h_src, data, cfg, epochs):
        """Plain supervised training of two independent heads over shared
        kernels, written directly against the tensor ops."""
        arch = h_src.arch
        shared = {label: ad.Parameter(f"shared.{label}.w", p.data.copy(),
                                      dtype="f32")
                  for label, p in h_src.shared.items()}
        slots = []
        for i, slot in enumerate(h_src.slots):
            st = slot.state
            bns = []
            for j, bn in enumerate(st.bns):
                b = ad.BatchNormState(f"slot{i}.bn{j}", bn.channels, "f32")
                b.gamma.assign(bn.gamma.data.copy())
                b.beta.assign(bn.beta.data.copy())
                bns.append(b)
            slots.append((
                ad.Parameter(f"slot{i}.stem.w", st.stem.data.copy(), dtype="f32"),
                bns,
                ad.Parameter(f"slot{i}.dense0.w", st.dense[0].data.copy(),
                             dtype="f32")))
        params = list(shared.values())
        for stem, bns, dense in slots:
            params += [stem, dense]
            for b in bns:
                params += [b.gamma, b.beta]
        opt = SGDNesterov(params, cfg.momentum, cfg.weight_decay)

        def net(x, stem, bns, dense):
            t = ad.conv2d(x, stem.value, 1, "same")
            t = ad.relu(ad.batch_norm(t, bns[0], mode="train"))
            t = ad.conv2d(t, shared["conv1"].value, 1, "same")
            t = ad.relu(ad.batch_norm(t, bns[1], mode="train"))
            t = ad.max_pool(t, 2, 2)
            t = ad.conv2d(t, shared["conv2"].value, 1, "same")
            t = ad.relu(ad.batch_norm(t, bns[2], mode="train"))
            t = ad.global_avg_pool(t)
            return ad.dense(t, dense.value)

        losses = []
        step = 0
        sched = Trainer(h_src, data, cfg).schedule
        for epoch in range(epochs):
            for images, one_hot in batches(data, cfg.batch_size, cfg.seed,
                                           epoch, shuffle=True):
                x = ad.Tensor(images, dtype="f32")
                total = None
                for stem, bns, dense in slots:
                    loss = ad.softmax_cross_entropy(net(x, stem, bns, dense),
                                                    one_hot)
                    losses.append(float(loss.data))
                    total = loss if total is None else ad.add(total, loss)
                ad.backward(total)
                opt.step(lr_at(sched, step))
                opt.zero_grad()
                step += 1
        return losses, shared

    def test_zero_weights_reduce_to_plain_training(self):
        cfg = quiet_config(batch_size=8, score_lr=0.0,
                           distill=DistillConfig(lambda_kd=0.0,
                                                 lambda_hint=0.0))
        data = toy_data(seed=4, n=24)
        h = ModelHierarchy(parse_arch(TOY, name="toy"), (1.0, 1.0), seed=7)
        ref_losses, ref_shared = self._reference_losses(
            ModelHierarchy(parse_arch(TOY, name="toy"), (1.0, 1.0), seed=7),
            data, cfg, epochs=2)

        trainer = Trainer(h, data, cfg)
        for _ in range(2):
            trainer.joint_epoch()
        got_losses = [r["loss"] for r in trainer.metrics.rows]
        assert len(got_losses) == len(ref_losses) == 2 * 3 * 2
        np.testing.assert_allclose(got_losses, ref_losses, rtol=1e-6)
        for label, p in ref_shared.items():
            np.testing.assert_allclose(h.shared[label].data, p.data,
                                       rtol=1e-5, atol=1e-7)

    def test_joint_csv_row_count(self):
        h = toy_hierarchy(ratios=(0.5, 0.75, 1.0))
        h.freeze_teacher()
        data = toy_data(n=20)
        trainer = Trainer(h, data, quiet_config(batch_size=8))
        trainer.joint_epoch()
        assert len(trainer.metrics.rows) == math.ceil(20 / 8) * 3


WIDE = """
input c=3 h=16 w=16
conv k=3 in=3 out=16 maskable=false
bn
relu
conv k=3 in=16 out=32
bn
relu
conv k=3 in=32 out=32
bn
relu
pool kind=gap
classifier in=32 out=4
"""


class TestStepMemory:
    """What a step leaves behind for the next one, and which forwards it
    runs in what order."""

    @staticmethod
    def _trainer(batches, **kw):
        h = ModelHierarchy(parse_arch(WIDE, name="wide"), (0.5, 0.75, 1.0))
        h.freeze_teacher()
        data = synthetic_dataset(0, 16 * batches, classes=4, size=16, channels=3)
        return h, Trainer(h, data, quiet_config(batch_size=16, **kw))

    def test_a_batch_carries_nothing_into_the_next(self):
        """A 3-batch joint epoch peaks within 10% of a 1-batch one: each
        step's graph, forwards and saved contexts are gone before the next
        batch's forward runs."""
        peaks = []
        for n in (1, 3):
            _, trainer = self._trainer(n)
            tracemalloc.start()
            try:
                trainer.joint_epoch()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < 1.1 * peaks[0], f"peaks {peaks}"

    @pytest.mark.parametrize("score_lr,routed", [(0.5, True), (0.0, False)])
    def test_contexts_are_saved_only_for_score_routing(self, monkeypatch,
                                                       score_lr, routed):
        """With score_lr 0 a joint step saves no routing context, so every
        slot runs at its kept width, and routing never runs."""
        saved, routes = [], []
        forward_all = ModelHierarchy.forward_all
        route = ModelHierarchy.route_gamma_gradients

        def counting_forward_all(self, *a, **kw):
            fws = forward_all(self, *a, **kw)
            saved.append([len(fw.contexts) for fw in fws])
            return fws

        def counting_route(self, forwards):
            routes.append(len(forwards))
            return route(self, forwards)

        monkeypatch.setattr(ModelHierarchy, "forward_all", counting_forward_all)
        monkeypatch.setattr(ModelHierarchy, "route_gamma_gradients", counting_route)
        _, trainer = self._trainer(2, score_lr=score_lr)
        trainer.joint_epoch()
        assert saved == ([[0, 2, 2]] if routed else [[0, 0, 0]]) * 2
        assert routes == ([3] if routed else []) * 2

    def test_teacher_forwards_run_before_the_graph(self, monkeypatch):
        """The no-grad teacher forward of a step runs before the forwards
        that build its graph, so its buffers are freed before the graph
        grows."""
        calls = []
        for name in ("forward_all", "forward_slot", "forward_frozen"):
            original = getattr(ModelHierarchy, name)

            def logged(self, *a, _name=name, _original=original, **kw):
                calls.append(_name if _name != "forward_slot" else a[0])
                return _original(self, *a, **kw)

            monkeypatch.setattr(ModelHierarchy, name, logged)
        h, trainer = self._trainer(1)
        trainer.joint_epoch()
        assert calls == ["forward_frozen", "forward_all"]
        for teacher in (1, len(h.slots)):
            calls.clear()
            trainer.state.teacher_index = teacher
            trainer.finetune_epoch()
            assert calls == [1 if teacher == 1 else "forward_frozen", 0]


class TestFinetune:
    def _trained(self, val=None, **kw):
        h = toy_hierarchy(seed=2)
        h.freeze_teacher()
        trainer = Trainer(h, toy_data(n=16), quiet_config(**kw), val_data=val)
        return h, trainer

    def test_masks_scores_and_teacher_state_pinned(self):
        h, trainer = self._trained()
        before = {k: v.copy() for k, v in h.named_tensors().items()}
        trainer.finetune_epoch()
        after = h.named_tensors()
        for k in before:
            own = k.startswith(("slot0.", "shared."))
            if ".mask." in k or ".scores." in k or not own:
                assert np.array_equal(before[k], after[k]), k
        assert not np.array_equal(before["slot0.stem.w"], after["slot0.stem.w"])
        assert not np.array_equal(before["shared.conv1.w"],
                                  after["shared.conv1.w"])
        assert any(not np.array_equal(before[k], after[k])
                   for k in before if k.startswith("slot0.bn"))

    def test_stage_cannot_move_backward(self):
        h, trainer = self._trained()
        trainer.finetune_epoch()
        with pytest.raises(TrainingError, match="forward"):
            trainer.joint_epoch()

    def test_promotion_happens_on_validation_data(self):
        val = toy_data(seed=9, n=12)
        h, trainer = self._trained(val=val)
        trainer.finetune_epoch()
        assert len(trainer.state.val_history["student"]) == 1
        assert len(trainer.state.val_history["teacher"]) == 1

    def test_promotion_at_the_frozen_teacher_scores_the_frozen_teacher(
            self, monkeypatch):
        """At teacher index len(slots), the epoch's teacher accuracy is
        evaluate_frozen's on the validation split."""
        val = toy_data(seed=9, n=12)
        h, trainer = self._trained(val=val)
        trainer.state.teacher_index = len(h.slots)
        scored = []

        def spy(*a, **kw):
            scored.append(evaluate_frozen(*a, **kw))
            return scored[-1]

        monkeypatch.setattr(training, "evaluate_frozen", spy)
        trainer.finetune_epoch()
        assert trainer.state.val_history["teacher"] == scored \
            == [evaluate_frozen(h, val)]
        assert trainer.state.teacher_index == len(h.slots)

    def test_rows_are_student_only(self):
        h, trainer = self._trained()
        trainer.finetune_epoch()
        assert {r["slot"] for r in trainer.metrics.rows} == {0}
        assert all(r["stage"] == "student_finetune"
                   for r in trainer.metrics.rows)

    def test_frozen_teacher_requirement(self):
        h = toy_hierarchy()
        trainer = Trainer(h, toy_data(n=8), quiet_config())
        trainer.state.teacher_index = len(h.slots)
        with pytest.raises(TrainingError, match="frozen"):
            trainer.finetune_epoch()


class TestPretrain:
    def test_pretrain_trains_only_top_and_freezes(self):
        h = toy_hierarchy(seed=3)
        trainer = Trainer(h, toy_data(n=16), quiet_config())
        before = {k: v.copy() for k, v in h.named_tensors().items()}
        trainer.pretrain_top(1)
        after = h.named_tensors()
        assert h.frozen is not None
        assert not np.array_equal(before["slot1.stem.w"], after["slot1.stem.w"])
        for k in before:
            if k.startswith("slot0.") and ".bn" not in k:
                assert np.array_equal(before[k], after[k]), k
        # the frozen copy equals the just-trained top slot
        assert np.array_equal(after["frozen.stem.w"], after["slot1.stem.w"])

    def test_pretrain_is_plain_cross_entropy_whatever_the_distillation(self):
        """Pretraining has no teacher: under complement_ce, a kd weight and
        hint layers its rows carry no distillation term, and it trains
        the same tensors as under the default distillation config."""
        runs = []
        for distill in (DistillConfig(), DistillConfig(
                lambda_kd=0.4, lambda_hint=0.5, complement_ce=True,
                hint_layers=tuple(sorted(toy_hierarchy().arch.maskable_sizes)))):
            h = toy_hierarchy(seed=3)
            trainer = Trainer(h, toy_data(n=16), quiet_config(distill=distill))
            trainer.pretrain_top(1)
            runs.append((h.named_tensors(), trainer.metrics.rows))
        (plain, _), (distilled, rows) = runs
        assert rows and all(r["kd_loss"] == r["hint_loss"] == 0.0
                            and r["loss"] == r["task_loss"] for r in rows)
        assert plain.keys() == distilled.keys()
        for k in plain:
            assert np.array_equal(plain[k], distilled[k]), k

    def test_joint_without_teacher_rejected_when_distilling(self):
        h = toy_hierarchy()
        trainer = Trainer(h, toy_data(n=8), quiet_config())
        with pytest.raises(TrainingError, match="frozen teacher"):
            trainer.joint_epoch()


class TestPersistence:
    def _fresh(self, out_dir=None, seed=5):
        h = toy_hierarchy(seed=seed)
        data = toy_data(seed=6, n=16)
        trainer = Trainer(h, data, quiet_config(), out_dir=out_dir)
        return trainer

    def test_roundtrip_bitwise(self, tmp_path):
        a = self._fresh()
        a.pretrain_top(1)
        a.joint_epoch()
        path = str(tmp_path / "state.ckpt")
        a.save(path)

        b = self._fresh()
        b.load_state(*read_training_checkpoint(path))
        at, bt = a.h.named_tensors(), b.h.named_tensors()
        assert set(at) == set(bt)
        for k in at:
            assert np.array_equal(at[k], bt[k]), k
        assert b.state == a.state
        for p_a, p_b in zip(a.weight_opt.params, b.weight_opt.params):
            assert np.array_equal(a.weight_opt.buffers[id(p_a)],
                                  b.weight_opt.buffers[id(p_b)]), p_a.name

    def test_resume_matches_continuous_bitwise(self, tmp_path):
        full = self._fresh()
        full.pretrain_top(1)
        for _ in range(3):
            full.joint_epoch()

        part = self._fresh()
        part.pretrain_top(1)
        part.joint_epoch()
        path = str(tmp_path / "mid.ckpt")
        part.save(path)

        resumed = self._fresh()
        resumed.load_state(*read_training_checkpoint(path))
        for _ in range(2):
            resumed.joint_epoch()

        tail = [r for r in full.metrics.rows if r["epoch"] >= 2]
        assert len(tail) == len(resumed.metrics.rows) > 0
        for ra, rb in zip(tail, resumed.metrics.rows):
            assert ra == rb

    def test_resume_into_the_same_dir_drops_rows_past_the_checkpoint(
            self, tmp_path):
        """A run killed partway through the epoch after its last
        checkpoint leaves that epoch's first rows in metrics.csv; resuming
        from the checkpoint into the same dir must not repeat them."""
        whole = self._fresh(out_dir=str(tmp_path / "whole"))
        whole.pretrain_top(1)
        for _ in range(2):
            whole.joint_epoch()
        whole.close()

        run_dir = tmp_path / "run"
        part = self._fresh(out_dir=str(run_dir))
        part.pretrain_top(1)
        part.joint_epoch()
        path = str(run_dir / "mid.ckpt")
        part.save(path)
        saved_rows = len(part.metrics.rows)

        def one_batch_then_killed():
            it = Trainer._epoch_batches(part)
            yield next(it)
            raise KeyboardInterrupt

        part._epoch_batches = one_batch_then_killed
        with pytest.raises(KeyboardInterrupt):
            part.joint_epoch()
        part.close()
        killed = (run_dir / "metrics.csv").read_bytes()
        assert len(killed.splitlines()) > 1 + saved_rows  # header, rows

        resumed = self._fresh(out_dir=str(run_dir))
        resumed.load_state(*read_training_checkpoint(path))
        resumed.joint_epoch()
        resumed.close()
        want = (tmp_path / "whole" / "metrics.csv").read_bytes()
        assert len(killed) < len(want)
        assert (run_dir / "metrics.csv").read_bytes() == want

    @staticmethod
    def _named_by_place(h: ModelHierarchy) -> dict[str, np.ndarray]:
        """Every model tensor under the name a checkpoint has always
        given it, spelled from its place in the hierarchy rather than
        read from the parameter: shared.{label}.w; per slot, and for
        the frozen teacher, stem.w, dense{j}.w and bn{j}.gamma, .beta,
        .rmean and .rvar; then slot{i}.mask.{id} and slot{i}.scores.{id}."""
        out = {f"shared.{label}.w": p.data for label, p in h.shared.items()}
        places = [(f"slot{s.index}", s.state) for s in h.slots]
        if h.frozen is not None:
            weights, state = h.frozen
            out.update({f"frozen.{label}.w": p.data
                        for label, p in weights.items()})
            places.append(("frozen", state))
        for pre, st in places:
            out[f"{pre}.stem.w"] = st.stem.data
            for j, p in enumerate(st.dense):
                out[f"{pre}.dense{j}.w"] = p.data
            for j, bn in enumerate(st.bns):
                out[f"{pre}.bn{j}.gamma"] = bn.gamma.data
                out[f"{pre}.bn{j}.beta"] = bn.beta.data
                out[f"{pre}.bn{j}.rmean"] = bn.running_mean
                out[f"{pre}.bn{j}.rvar"] = bn.running_var
        for s in h.slots:
            for lid, m in s.state.mask.layers.items():
                out[f"slot{s.index}.mask.{lid}"] = m.astype(np.uint8)
            if s.scores is not None:
                for lid, v in s.scores.layers.items():
                    out[f"slot{s.index}.scores.{lid}"] = v
        return out

    def test_a_checkpoint_named_by_place_loads_and_resumes_bitwise(
            self, tmp_path):
        """A file whose tensors are named by their place in the
        hierarchy, as checkpoints written before parameters named
        themselves were, is byte for byte the file save writes, and a
        run resumed from it continues bitwise."""
        full = self._fresh()
        full.pretrain_top(1)
        full.joint_epoch()
        saved, by_place = tmp_path / "saved.ckpt", tmp_path / "by_place.ckpt"
        full.save(str(saved))
        tensors, meta = load_checkpoint(str(saved))
        save_checkpoint(str(by_place), {
            **self._named_by_place(full.h),
            **{k: v for k, v in tensors.items()
               if k.startswith(("opt.", "scoreopt."))}}, meta)
        assert by_place.read_bytes() == saved.read_bytes()

        resumed = self._fresh()
        resumed.load_state(*read_training_checkpoint(str(by_place)))
        full.joint_epoch()
        resumed.joint_epoch()
        want, got = full.h.named_tensors(), resumed.h.named_tensors()
        assert set(want) == set(got)
        for k in want:
            assert want[k].tobytes() == got[k].tobytes(), k
        assert resumed.metrics.rows == full.metrics.rows[-len(resumed.metrics.rows):]

    @staticmethod
    def _trained(seed: int, **cfg) -> Trainer:
        """A trainer after one pretrain and one joint epoch, so that its
        frozen teacher, momentum and score state are all in use."""
        t = Trainer(toy_hierarchy(seed=seed), toy_data(seed=6, n=16),
                    quiet_config(**cfg))
        t.pretrain_top(1)
        t.joint_epoch()
        return t

    @staticmethod
    def _everything(t: Trainer) -> dict:
        """Copies of all that a load replaces: every hierarchy tensor,
        whether there is a frozen teacher, every momentum buffer, the
        score optimizer's state and the train state."""
        out = {"has a frozen teacher": t.h.frozen is not None,
               "train state": repr(t.state)}
        for table in (t.h.named_tensors(), t.weight_opt.state_tensors(),
                      t.score_opt.state_tensors()):
            out.update({k: v.copy() for k, v in table.items()})
        return out

    def _assert_holds(self, t: Trainer, want: dict) -> None:
        got = self._everything(t)
        assert set(got) == set(want)
        for k in want:
            assert np.array_equal(want[k], got[k]), k

    @pytest.mark.parametrize("name", [
        "slot0.mask.0",
        "slot0.scores.0",
        "slot0.bn0.rmean",
        "slot0.bn0.rvar",
        "frozen.bn0.rmean",
        "frozen.bn0.rvar",
        "shared.conv1.w",
        "opt.slot0.bn0.gamma.momentum",
    ])
    def test_a_tensor_of_the_wrong_shape_is_rejected_by_name(
            self, tmp_path, name):
        """A checkpoint tensor one entry short along its first axis is
        rejected with its name, and leaves the trainer as it was."""
        a = self._fresh()
        a.pretrain_top(1)
        path = str(tmp_path / "state.ckpt")
        a.save(path)
        tensors, meta = load_checkpoint(path)
        tensors[name] = tensors[name][:-1]

        b = self._trained(seed=9)
        before = self._everything(b)
        with pytest.raises(HierarchyError, match=re.escape(repr(name))):
            b.load_state(tensors, meta)
        self._assert_holds(b, before)

    @pytest.mark.parametrize("case, kind, name", [
        ("missing", "sgd", "opt.shared.conv1.w.momentum"),
        ("unknown", "sgd", "opt.nothing.momentum"),
        ("unknown", "sgd", "scoreopt.slot7.layer9.sq"),
        ("short", "rmsprop", "scoreopt.slot0.layer0.sq"),
        ("short, from a run without a teacher", "sgd", "slot0.mask.0"),
    ])
    def test_a_rejected_load_changes_nothing(self, tmp_path, case, kind,
                                             name):
        """A missing, unknown or short tensor of any part of the table,
        optimizer state included, is rejected with its name before
        anything is assigned: the model, the frozen teacher (also when
        the table has none), the momentum and the score state stay."""
        a = Trainer(toy_hierarchy(seed=5), toy_data(seed=6, n=16),
                    quiet_config(score_optimizer=kind))
        if "without a teacher" not in case:
            a.pretrain_top(1)
            a.joint_epoch()
        path = str(tmp_path / "state.ckpt")
        a.save(path)
        tensors, meta = load_checkpoint(path)
        if case == "missing":
            del tensors[name]
        elif case == "unknown":
            tensors[name] = np.zeros(3)
        else:
            tensors[name] = tensors[name][:-1]

        b = self._trained(seed=9, score_optimizer=kind)
        assert b.h.frozen is not None
        before = self._everything(b)
        with pytest.raises(HierarchyError, match=re.escape(repr(name))):
            b.load_state(tensors, meta)
        self._assert_holds(b, before)

    def test_an_rmsprop_checkpoint_holds_score_state_from_the_start(
            self, tmp_path):
        """Under rmsprop every scored slot's layers have a running square,
        zero until routed, so a checkpoint saved before any joint step
        resumes; an sgd trainer rejects it by name."""
        a = Trainer(toy_hierarchy(seed=5), toy_data(seed=6, n=16),
                    quiet_config(score_optimizer="rmsprop"))
        path = str(tmp_path / "state.ckpt")
        a.save(path)
        tensors, _ = load_checkpoint(path)
        sq = {k: v for k, v in tensors.items() if k.startswith("scoreopt.")}
        assert set(sq) == {"scoreopt.slot0.layer0.sq",
                           "scoreopt.slot0.layer1.sq"}
        assert all(not v.any() for v in sq.values())
        b = Trainer(toy_hierarchy(seed=9), toy_data(seed=6, n=16),
                    quiet_config(score_optimizer="rmsprop"))
        b.load_state(*read_training_checkpoint(path))
        self._assert_holds(b, self._everything(a))
        with pytest.raises(HierarchyError, match="scoreopt.slot0.layer0.sq"):
            self._fresh().load_state(*read_training_checkpoint(path))

    def test_wrong_ratios_rejected(self, tmp_path):
        a = self._fresh()
        path = str(tmp_path / "s.ckpt")
        a.save(path)
        other = Trainer(toy_hierarchy(ratios=(0.75, 1.0)), toy_data(n=16),
                        quiet_config())
        with pytest.raises(TrainingError, match="keep ratios"):
            other.load_state(*read_training_checkpoint(path))

    def test_non_training_checkpoint_rejected(self, tmp_path):
        from cascadeprune.checkpoint import save_checkpoint
        path = str(tmp_path / "raw.ckpt")
        save_checkpoint(path, {}, {"kind": "other"})
        with pytest.raises(TrainingError, match="not a training checkpoint"):
            self._fresh().load_state(*read_training_checkpoint(path))

    def test_csv_file_matches_rows(self, tmp_path):
        out = str(tmp_path / "run")
        t = self._fresh(out_dir=out)
        t.pretrain_top(1)
        t.close()
        lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(t.metrics.rows)
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "pretrain"

    def test_two_identical_runs_identical_csv_bytes(self, tmp_path):
        for name in ("a", "b"):
            t = self._fresh(out_dir=str(tmp_path / name))
            t.pretrain_top(1)
            t.joint_epoch()
            t.close()
        assert (tmp_path / "a" / "metrics.csv").read_bytes() \
            == (tmp_path / "b" / "metrics.csv").read_bytes()


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="promotion_patience"):
            TrainConfig(promotion_patience=0)
        with pytest.raises(ValueError, match="score_lr"):
            TrainConfig(score_lr=-0.1)

    def test_metrics_writer_without_path(self):
        w = MetricsWriter(None)
        w.write({k: 0 for k in CSV_HEADER.split(",")})
        assert len(w.rows) == 1
        w.close()
