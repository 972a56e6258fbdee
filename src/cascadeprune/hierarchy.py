"""The weight-shared model hierarchy.

One set of conv kernels serves every model in the cascade. Each model
(slot) differs only in its keep ratio, binary filter mask, importance
scores, batch-norm state, stem conv, and dense head. Slot 0 is the
smallest (the student); the last slot runs unmasked at ratio 1.0; a
frozen copy of the unmasked model acts as the last slot's teacher.

Score gradients are routed one step down the cascade: slot i's scores
are updated from slot i+1's saved forward context (its loss gradient at
each masked conv output, its input activations, and the shared kernel),
never from slot i's own pass. That is what lets a filter that slot i has
pruned keep receiving meaningful updates, since slot i+1 still runs it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Collection, Optional, Union

import numpy as np

from . import autodiff as ad
from .arch import ArchSpec, BlockL, BNL, ClassifierL, ConvL, DenseL, DWConvL, PoolL, ReLUL
from .autodiff import BatchNormState, Parameter, Tensor
from .masking import (FilterMask, ImportanceScores, PruneConfig, build_mask,
                      kept_filter_conv2d, masked_conv2d, surrogate_gamma_grad)


class HierarchyError(RuntimeError):
    """Raised on inconsistent hierarchy construction or use."""


def derive_ta_keep_ratios(r0: float, divisors) -> list[float]:
    """Keep ratios for student, assistants, and the full model.

    The assistants interpolate between the student ratio and 1.0 as
    1 + (r0 - 1)/d for each divisor d; the result must come out strictly
    increasing and always ends at exactly 1.0.
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"student keep ratio must be in (0, 1), got {r0}")
    ratios = [r0] + [1.0 + (r0 - 1.0) / d for d in divisors] + [1.0]
    for a, b in zip(ratios, ratios[1:]):
        if a >= b:
            raise ValueError(f"divisors {list(divisors)} do not give strictly "
                             f"increasing ratios: {ratios}")
    return ratios


@dataclass
class SlotState:
    """Everything one model owns privately (conv kernels are not here)."""
    stem: Parameter
    dense: list[Parameter]
    bns: list[BatchNormState]
    mask: FilterMask


@dataclass
class ModelSlot:
    index: int
    keep_ratio: float
    state: SlotState
    scores: Optional[ImportanceScores]  # None for the top (unmasked) slot


@dataclass
class LayerContext:
    """Saved forward quantities of one masked conv in one slot's pass."""
    layer_id: int
    x: Tensor           # layer input
    pre: Tensor         # raw conv output, before the mask
    out: Tensor         # masked output; retains its loss gradient
    weight: Parameter
    stride: int
    padding: str


@dataclass
class SlotForward:
    logits: Tensor
    hint_maps: dict[str, Tensor]
    contexts: dict[int, LayerContext]


class ModelHierarchy:
    """Shared conv weights plus an ordered list of masked model slots."""

    def __init__(self, arch: ArchSpec, keep_ratios, seed: int = 0,
                 min_filters: int = 1, dtype: str = "f32"):
        ratios = [float(r) for r in keep_ratios]
        if len(ratios) < 2:
            raise HierarchyError("a hierarchy needs at least two models")
        for a, b in zip(ratios, ratios[1:]):
            if a > b:
                raise HierarchyError(f"keep ratios must be non-decreasing, got {ratios}")
        if ratios[-1] != 1.0:
            raise HierarchyError(f"the top model must keep everything, got {ratios[-1]}")
        if not all(0.0 < r <= 1.0 for r in ratios):
            raise HierarchyError(f"keep ratios must lie in (0, 1]: {ratios}")

        first = next((it for it in arch.items if isinstance(it, (ConvL, DWConvL))), None)
        if not isinstance(first, ConvL) or first.maskable:
            raise HierarchyError("the architecture must start with a conv marked "
                                 "maskable=false; the stem is per-model and unmasked")

        self.arch = arch
        self.keep_ratios = ratios
        self.min_filters = min_filters
        self.dtype = dtype
        self._rng = np.random.default_rng(seed)

        # shared conv kernels, everything except the stem
        self.shared: dict[str, Parameter] = {}
        for it in _iter_convs(arch.items):
            if it is first:
                continue
            if isinstance(it, ConvL):
                self.shared[it.label] = self._he_param(
                    f"shared.{it.label}.w", (it.k, it.k, it.cin, it.cout),
                    fan_in=it.k * it.k * it.cin)
            else:
                self.shared[it.label] = self._he_param(
                    f"shared.{it.label}.w", (it.k, it.k, it.c),
                    fan_in=it.k * it.k)

        self._stem_spec = first
        self._bn_channel_plan = _bn_plan(arch)
        self._dense_plan = [(it.din, it.dout) for it in arch.items
                            if isinstance(it, (DenseL, ClassifierL))]

        self.slots: list[ModelSlot] = []
        base_scores = ImportanceScores.from_weights(
            {lid: self.shared[_label_of(arch, lid)].data
             for lid in arch.maskable_sizes})
        for i, r in enumerate(ratios):
            state = self._fresh_state(i)
            top = i == len(ratios) - 1
            if top:
                state.mask = arch.full_mask()
                scores = None
            else:
                scores = base_scores.copy()
                state.mask = build_mask(scores, PruneConfig(r, min_filters))
            self.slots.append(ModelSlot(i, r, state, scores))

        self.frozen: Optional[tuple[dict[str, np.ndarray], SlotState]] = None

    # -- construction helpers ------------------------------------------------

    def _he_param(self, name: str, shape, fan_in: int) -> Parameter:
        std = np.sqrt(2.0 / fan_in)
        vals = (self._rng.standard_normal(shape) * std).astype(ad.DTYPES[self.dtype])
        return Parameter(name, vals, dtype=self.dtype)

    def _fresh_state(self, slot_idx: int) -> SlotState:
        s = self._stem_spec
        stem = self._he_param(f"slot{slot_idx}.stem.w", (s.k, s.k, s.cin, s.cout),
                              fan_in=s.k * s.k * s.cin)
        dense = [self._he_param(f"slot{slot_idx}.dense{j}.w", (din, dout), fan_in=din)
                 for j, (din, dout) in enumerate(self._dense_plan)]
        bns = [BatchNormState(f"slot{slot_idx}.bn{j}", c, dtype=self.dtype)
               for j, c in enumerate(self._bn_channel_plan)]
        return SlotState(stem, dense, bns, self.arch.full_mask())

    @property
    def student(self) -> ModelSlot:
        return self.slots[0]

    @property
    def top(self) -> ModelSlot:
        return self.slots[-1]

    def freeze_teacher(self) -> None:
        """Capture the current top slot as the permanent frozen teacher:
        private copies of the shared kernels and of the top slot's stem,
        heads, and BN running statistics."""
        weights = {label: p.data.copy() for label, p in self.shared.items()}
        top = self.top.state
        state = SlotState(
            stem=Parameter("frozen.stem.w", top.stem.data.copy(),
                           dtype=self.dtype, trainable=False),
            dense=[Parameter(f"frozen.dense{j}.w", p.data.copy(),
                             dtype=self.dtype, trainable=False)
                   for j, p in enumerate(top.dense)],
            bns=copy.deepcopy(top.bns),
            mask=self.arch.full_mask(),
        )
        for bn in state.bns:
            bn.gamma.trainable = False
            bn.gamma.value.requires_grad = False
            bn.beta.trainable = False
            bn.beta.value.requires_grad = False
        self.frozen = (weights, state)

    # -- forward -------------------------------------------------------------

    def forward_all(self, images: np.ndarray, mode: str = "train",
                    hint_ids=(), want_context: Union[bool, Collection[int]] = True
                    ) -> list[SlotForward]:
        """Run every slot on the same batch.

        Each slot applies its own mask, BN state, stem, and head on top of
        the shared kernels. For every masked conv a slot that wants
        contexts saves one (input, raw output, masked output with a
        retained gradient) so the cascade can form score gradients after
        one backward pass. want_context is True (every slot), False (no
        slot) or the indices of the slots that save contexts; score
        routing reads slots 1 and up, and slot 0 only with include_own. A
        slot that saves none computes only its kept filters.
        """
        if isinstance(want_context, bool):
            want_context = range(len(self.slots)) if want_context else ()
        x = Tensor(images, dtype=self.dtype)
        taps = _hint_tap_items(self.arch, hint_ids)
        return [self._forward_one(x, self.shared, slot.state, mode, taps,
                                  slot.index in want_context)
                for slot in self.slots]

    def forward_slot(self, index: int, images: np.ndarray, mode: str = "eval",
                     hint_ids=(), want_context: bool = False) -> SlotForward:
        """Run a single slot; other slots' state is untouched."""
        taps = _hint_tap_items(self.arch, hint_ids)
        return self._forward_one(Tensor(images, dtype=self.dtype), self.shared,
                                 self.slots[index].state, mode, taps,
                                 want_context)

    def forward_frozen(self, images: np.ndarray, hint_ids=()) -> SlotForward:
        """Evaluation-mode forward of the frozen teacher, no graph."""
        if self.frozen is None:
            raise HierarchyError("no frozen teacher; call freeze_teacher() "
                                 "or load a checkpoint that has one")
        weights, state = self.frozen
        params = {label: Parameter(f"frozen.{label}.w", v, dtype=self.dtype,
                                   trainable=False)
                  for label, v in weights.items()}
        taps = _hint_tap_items(self.arch, hint_ids)
        with ad.no_grad():
            return self._forward_one(Tensor(images, dtype=self.dtype), params,
                                     state, "eval", taps, want_context=False)

    def _forward_one(self, x: Tensor, weights: dict[str, Parameter],
                     state: SlotState, mode: str, taps: dict[int, str],
                     want_context: bool) -> SlotForward:
        t = x
        contexts: dict[int, LayerContext] = {}
        hints: dict[str, Tensor] = {}
        bn_idx = 0
        dense_idx = 0
        flat = False

        def run_conv(it: ConvL, t: Tensor) -> Tensor:
            nonlocal bn_idx
            if it is self._stem_spec:
                return ad.conv2d(t, state.stem.value, it.stride, it.padding)
            w = weights[it.label]
            if it.maskable:
                mask = state.mask.layers[it.layer_id]
                if not want_context:
                    return kept_filter_conv2d(t, w.value, mask, it.stride,
                                              it.padding)
                pre, out = masked_conv2d(t, w.value, mask, it.stride, it.padding)
                out.retain_grad()
                contexts[it.layer_id] = LayerContext(
                    it.layer_id, t, pre, out, w, it.stride, it.padding)
                return out
            return ad.conv2d(t, w.value, it.stride, it.padding)

        for idx, it in enumerate(self.arch.items):
            if isinstance(it, ConvL):
                t = run_conv(it, t)
            elif isinstance(it, DWConvL):
                t = ad.depthwise_conv2d(t, weights[it.label].value, it.stride,
                                        it.padding)
            elif isinstance(it, BNL):
                t = ad.batch_norm(t, state.bns[bn_idx], mode=mode)
                bn_idx += 1
            elif isinstance(it, ReLUL):
                t = ad.relu(t)
            elif isinstance(it, PoolL):
                if it.kind == "max":
                    t = ad.max_pool(t, it.k, it.stride, it.padding)
                else:
                    t = ad.global_avg_pool(t)
                    flat = True
            elif isinstance(it, (DenseL, ClassifierL)):
                if not flat:
                    t = ad.flatten(t)
                    flat = True
                t = ad.dense(t, state.dense[dense_idx].value)
                dense_idx += 1
            elif isinstance(it, BlockL):
                entry = t
                for b in it.body:
                    if isinstance(b, ConvL):
                        t = run_conv(b, t)
                    elif isinstance(b, BNL):
                        t = ad.batch_norm(t, state.bns[bn_idx], mode=mode)
                        bn_idx += 1
                    else:
                        t = ad.relu(t)
                if it.proj is not None:
                    short = run_conv(it.proj, entry)
                    short = ad.batch_norm(short, state.bns[bn_idx], mode=mode)
                    bn_idx += 1
                else:
                    short = entry
                t = ad.relu(ad.add(t, short))
            if idx in taps:
                hints[taps[idx]] = t

        return SlotForward(logits=t, hint_maps=hints, contexts=contexts)

    # -- cascade plumbing ----------------------------------------------------

    def route_gamma_gradients(self, forwards: list[SlotForward],
                              include_own: bool = False) -> dict[int, dict[int, np.ndarray]]:
        """Assemble each slot's score gradients from the next slot up.

        Slot i's gradient for layer l is the straight-through reduction
        over slot i+1's saved context at layer l. The top slot has no
        scores and receives nothing. With include_own, the slot's own
        context contributes an additive second term (an ablation knob,
        off by default).
        """
        if len(forwards) != len(self.slots):
            raise HierarchyError(f"expected {len(self.slots)} forward results, "
                                 f"got {len(forwards)}")
        grads: dict[int, dict[int, np.ndarray]] = {}
        for i in range(len(self.slots) - 1):
            grads[i] = {}
            for lid, ctx in forwards[i + 1].contexts.items():
                grads[i][lid] = self._context_grad(ctx)
                if include_own:
                    own = forwards[i].contexts.get(lid)
                    if own is None:
                        raise HierarchyError(
                            f"slot {i} layer {lid}: no saved context for "
                            "include_own; run the forward with contexts "
                            "for this slot")
                    grads[i][lid] = grads[i][lid] + self._context_grad(own)
        return grads

    @staticmethod
    def _context_grad(ctx: LayerContext) -> np.ndarray:
        if ctx.out.grad is None:
            raise HierarchyError(f"layer {ctx.layer_id}: no saved loss gradient; "
                                 "run backward over the slot losses first")
        return surrogate_gamma_grad(ctx.out.grad, ctx.x.data, ctx.weight.data,
                                    ctx.stride, ctx.padding)

    def refresh_masks(self) -> None:
        """Rebuild every scored slot's mask from its current scores.
        The top slot keeps its all-ones mask."""
        for slot in self.slots[:-1]:
            slot.state.mask = build_mask(slot.scores,
                                         PruneConfig(slot.keep_ratio,
                                                     self.min_filters))

    # -- parameter enumeration ----------------------------------------------

    def shared_parameters(self) -> list[Parameter]:
        return list(self.shared.values())

    def slot_parameters(self, index: int) -> list[Parameter]:
        """The private trainable parameters of one slot (no conv kernels)."""
        st = self.slots[index].state
        params = [st.stem] + list(st.dense)
        for bn in st.bns:
            params += [bn.gamma, bn.beta]
        return params

    def all_parameters(self) -> list[Parameter]:
        params = self.shared_parameters()
        for i in range(len(self.slots)):
            params += self.slot_parameters(i)
        return params

    # -- persistence view ----------------------------------------------------

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of all state, for checkpointing."""
        out: dict[str, np.ndarray] = {}
        for label, p in self.shared.items():
            out[f"shared.{label}.w"] = p.data
        for slot in self.slots:
            pre = f"slot{slot.index}"
            st = slot.state
            out[f"{pre}.stem.w"] = st.stem.data
            for j, p in enumerate(st.dense):
                out[f"{pre}.dense{j}.w"] = p.data
            for j, bn in enumerate(st.bns):
                out[f"{pre}.bn{j}.gamma"] = bn.gamma.data
                out[f"{pre}.bn{j}.beta"] = bn.beta.data
                out[f"{pre}.bn{j}.rmean"] = bn.running_mean
                out[f"{pre}.bn{j}.rvar"] = bn.running_var
            for lid, m in sorted(st.mask.layers.items()):
                out[f"{pre}.mask.{lid}"] = m.astype(np.uint8)
            if slot.scores is not None:
                for lid, s in sorted(slot.scores.layers.items()):
                    out[f"{pre}.scores.{lid}"] = s
        if self.frozen is not None:
            weights, state = self.frozen
            for label, v in weights.items():
                out[f"frozen.{label}.w"] = v
            out["frozen.stem.w"] = state.stem.data
            for j, p in enumerate(state.dense):
                out[f"frozen.dense{j}.w"] = p.data
            for j, bn in enumerate(state.bns):
                out[f"frozen.bn{j}.gamma"] = bn.gamma.data
                out[f"frozen.bn{j}.beta"] = bn.beta.data
                out[f"frozen.bn{j}.rmean"] = bn.running_mean
                out[f"frozen.bn{j}.rvar"] = bn.running_var
        return out

    def load_named_tensors(self, table: dict[str, np.ndarray]) -> None:
        """Restore state saved by named_tensors. Unknown names error;
        missing names error, except that a hierarchy saved without a
        frozen teacher loads into one without."""
        has_frozen = any(k.startswith("frozen.") for k in table)
        if has_frozen and self.frozen is None:
            self.freeze_teacher()  # allocate the structures, then overwrite
        if not has_frozen:
            self.frozen = None
        want = self.named_tensors()
        unknown = set(table) - set(want)
        missing = set(want) - set(table)
        if unknown:
            raise HierarchyError(f"checkpoint has unknown tensor {sorted(unknown)[0]!r}")
        if missing:
            raise HierarchyError(f"checkpoint is missing tensor {sorted(missing)[0]!r}")

        for label, p in self.shared.items():
            p.assign(table[f"shared.{label}.w"])
        for slot in self.slots:
            pre = f"slot{slot.index}"
            st = slot.state
            st.stem.assign(table[f"{pre}.stem.w"])
            for j, p in enumerate(st.dense):
                p.assign(table[f"{pre}.dense{j}.w"])
            for j, bn in enumerate(st.bns):
                bn.gamma.assign(table[f"{pre}.bn{j}.gamma"])
                bn.beta.assign(table[f"{pre}.bn{j}.beta"])
                bn.running_mean = table[f"{pre}.bn{j}.rmean"].copy()
                bn.running_var = table[f"{pre}.bn{j}.rvar"].copy()
            st.mask = FilterMask({lid: table[f"{pre}.mask.{lid}"].astype(bool)
                                  for lid in self.arch.maskable_sizes})
            if slot.scores is not None:
                slot.scores = ImportanceScores(
                    {lid: table[f"{pre}.scores.{lid}"]
                     for lid in self.arch.maskable_sizes})
        if has_frozen:
            weights, state = self.frozen
            for label in weights:
                weights[label] = table[f"frozen.{label}.w"].copy()
            state.stem.assign(table["frozen.stem.w"])
            for j, p in enumerate(state.dense):
                p.assign(table[f"frozen.dense{j}.w"])
            for j, bn in enumerate(state.bns):
                bn.gamma.assign(table[f"frozen.bn{j}.gamma"])
                bn.beta.assign(table[f"frozen.bn{j}.beta"])
                bn.running_mean = table[f"frozen.bn{j}.rmean"].copy()
                bn.running_var = table[f"frozen.bn{j}.rvar"].copy()


# ---------------------------------------------------------------------------
# arch walking helpers
# ---------------------------------------------------------------------------

def _iter_convs(items):
    for it in items:
        if isinstance(it, (ConvL, DWConvL)):
            yield it
        elif isinstance(it, BlockL):
            for b in it.body:
                if isinstance(b, ConvL):
                    yield b
            if it.proj is not None:
                yield it.proj


def _label_of(arch: ArchSpec, layer_id: int) -> str:
    for it in _iter_convs(arch.items):
        if isinstance(it, ConvL) and it.layer_id == layer_id:
            return it.label
    raise HierarchyError(f"no maskable conv with id {layer_id}")


def _bn_plan(arch: ArchSpec) -> list[int]:
    """Channel widths of every BN in forward order; a projection
    shortcut's BN comes after its block's body BNs."""
    chans: list[int] = []
    for it in arch.items:
        if isinstance(it, BNL):
            chans.append(it.c)
        elif isinstance(it, BlockL):
            for b in it.body:
                if isinstance(b, BNL):
                    chans.append(b.c)
            if it.proj is not None:
                chans.append(it.proj.cout)
    return chans


def _hint_tap_items(arch: ArchSpec, hint_ids) -> dict[int, str]:
    """Map top-level item indexes to hint labels.

    A hint id names a maskable conv. For a top-level conv the tap point
    is the activation after its trailing bn/relu run; for a conv inside
    a residual block the tap is the block's output. Ids mapping to the
    same tap collapse into one map.
    """
    wanted = set(hint_ids)
    if not wanted:
        return {}
    taps: dict[int, str] = {}
    seen = set()
    for idx, it in enumerate(arch.items):
        if isinstance(it, ConvL) and it.maskable and it.layer_id in wanted:
            j = idx
            while j + 1 < len(arch.items) and isinstance(arch.items[j + 1], (BNL, ReLUL)):
                j += 1
            taps[j] = f"tap{it.layer_id}"
            seen.add(it.layer_id)
        elif isinstance(it, BlockL):
            ids = {b.layer_id for b in it.body
                   if isinstance(b, ConvL) and b.maskable}
            if it.proj is not None:
                ids.add(it.proj.layer_id)
            hit = sorted(ids & wanted)
            if hit:
                taps[idx] = f"tap{hit[0]}"
                seen.update(hit)
    unknown = wanted - seen
    if unknown:
        raise HierarchyError(f"hint layer id {sorted(unknown)[0]} does not name "
                             "a maskable conv")
    return taps
