"""The weight-shared model hierarchy.

One set of conv kernels serves every model in the cascade. Each model
(slot) differs only in its keep ratio, binary filter mask, importance
scores, batch-norm state, stem conv, and dense head. Slot 0 is the
smallest (the student); the last slot runs unmasked at ratio 1.0; a
frozen copy of the unmasked model acts as the last slot's teacher.

Score gradients are routed one step down the cascade: slot i's scores
are updated from slot i+1's saved forward context, never from slot i's
own pass. That is what lets a filter that slot i has pruned keep
receiving meaningful updates, since slot i+1 still runs it. Each masked
conv of slot i+1 is one op (autodiff.masked_conv2d) whose backward keeps
the kernel gradient G of its unmasked output gradient; routing contracts
G with the shared kernel, which is the straight-through reduction over
the saved input and output gradient without rerunning the conv.

One loop over the arch's compiled plan runs every pass of a slot, train
or eval, on the tape or not, with one op set (_KeptWidth): activations
at their live channels only. A pruned filter's output is exactly zero
for every input, so what batch norm and the layers after it make of it
up to the next conv or dense layer is one input-independent map; it is
computed on one image and added into that layer's output. The logits and
every gradient equal the full-width ones up to float summation order,
and the cost follows the kept widths that count_stats prices.

A pass that saves routing contexts (slots 1 and up in a joint step that
steps the scores) differs only at its masked convs: each computes all
its filters from its full-width input and masks them in one op
(autodiff.masked_conv2d), whose backward keeps what score routing reads.
Its output then carries every channel, so the rest of that pass runs at
full width.

An eval pass with the tape off keeps what it computed that does not
depend on the images and is costly to recompute (the gathered kernels
and dense rows, and the one-image map after every step) in its slot's
memo. The next such pass of the slot reuses it while the slot's kernels,
weights, batch-norm state and mask are the same objects, so the
one-image map is computed once per version of them, not once per
forward. A train-mode pass of any slot drops every slot's memo, since
its step replaces the shared kernels they were built from.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from typing import Collection, Optional, Union

import numpy as np

from . import autodiff as ad
from .arch import ArchSpec, ConvL, DWConvL, PoolL
from .autodiff import BatchNormState, Parameter, Tensor
from .masking import (FilterMask, ImportanceScores, PruneConfig, build_mask,
                      contract_kernel_grad)
# not called here: bench/tracing.py wraps this name (ROADMAP item 1 drops it)
from .masking import surrogate_gamma_grad  # noqa: F401


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
    """Everything one model owns privately (conv kernels are not here),
    plus the memo of its last no-tape eval pass at kept width (_Memo).

    The memo relies on one contract: a kernel, stem, dense or batch-norm
    tensor, a running statistic or a mask array is replaced, never edited
    in place. Parameter.assign, refresh_masks, train-mode batch norm and
    load_named_tensors all install new objects, and a memo is used only
    while every object it was built from is still the one in place. A
    train-mode pass of any slot drops the memo of every slot in the
    hierarchy: the step it belongs to replaces the shared kernels, so
    those memos could not hit again, and dropped they do not hold memory
    through that step's backward. The frozen teacher's memo stays."""
    stem: Parameter
    dense: list[Parameter]
    bns: list[BatchNormState]
    mask: FilterMask
    memo: Optional[_Memo] = field(default=None, repr=False, compare=False)

    def parameters(self) -> list[Parameter]:
        """The stem, dense and batch-norm parameters."""
        return [self.stem, *self.dense] + [p for bn in self.bns
                                           for p in (bn.gamma, bn.beta)]


@dataclass
class ModelSlot:
    index: int
    keep_ratio: float
    state: SlotState
    scores: Optional[ImportanceScores]  # None for the top (unmasked) slot


@dataclass
class LayerContext:
    """Saved forward quantities of one masked conv in one slot's pass.
    Routing reads kernel_grad and weight; x and out's gradient are the
    operands of the straight-through reduction that kernel_grad
    contracts, kept so that it can be checked independently."""
    layer_id: int
    x: Tensor           # layer input
    out: Tensor         # masked output; retains its loss gradient
    weight: Parameter
    stride: int
    padding: str
    kernel_grad: ad.KernelGrad  # the backward's G of the unmasked gradient


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

        convs = [st for st in arch.plan if st.op in ("conv", "dwconv")]
        if not convs or convs[0].op != "conv" or convs[0].layer.maskable:
            raise HierarchyError("the architecture must start with a conv marked "
                                 "maskable=false; the stem is per-model and unmasked")

        self.arch = arch
        self.keep_ratios = ratios
        self.min_filters = min_filters
        self.dtype = dtype
        self._rng = np.random.default_rng(seed)

        # shared conv kernels, everything except the stem
        self._stem_spec = convs[0].layer
        self.shared: dict[str, Parameter] = {}
        for st in convs[1:]:
            it = st.layer
            if st.op == "conv":
                self.shared[it.label] = self._he_param(
                    f"shared.{it.label}.w", (it.k, it.k, it.cin, it.cout),
                    fan_in=it.k * it.k * it.cin)
            else:
                self.shared[it.label] = self._he_param(
                    f"shared.{it.label}.w", (it.k, it.k, it.c),
                    fan_in=it.k * it.k)

        self.slots: list[ModelSlot] = []
        base_scores = ImportanceScores.from_weights(
            {st.layer.layer_id: self.shared[st.layer.label].data
             for st in convs if st.op == "conv" and st.layer.maskable})
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

        self.frozen: Optional[tuple[dict[str, Parameter], SlotState]] = None

    # -- construction helpers ------------------------------------------------

    def _he_param(self, name: str, shape, fan_in: int) -> Parameter:
        std = np.sqrt(2.0 / fan_in)
        vals = (self._rng.standard_normal(shape) * std).astype(ad.DTYPES[self.dtype])
        return Parameter(name, vals, dtype=self.dtype)

    def _fresh_state(self, slot_idx: int) -> SlotState:
        s = self._stem_spec
        stem = self._he_param(f"slot{slot_idx}.stem.w", (s.k, s.k, s.cin, s.cout),
                              fan_in=s.k * s.k * s.cin)
        plan = self.arch.plan
        dense = [self._he_param(f"slot{slot_idx}.dense{st.index}.w",
                                (st.layer.din, st.layer.dout), fan_in=st.layer.din)
                 for st in plan if st.op == "dense"]
        bns = [BatchNormState(f"slot{slot_idx}.bn{st.index}", st.layer.c,
                              dtype=self.dtype)
               for st in plan if st.op == "bn"]
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
        heads, and BN state, none of them trainable, each named
        frozen.* like the parameter it copies."""
        def frozen(name: str, p: Parameter) -> Parameter:
            return Parameter(name, p.data.copy(), dtype=self.dtype,
                             trainable=False)

        top = self.top.state
        bns = [copy.copy(bn) for bn in top.bns]
        for j, bn in enumerate(bns):
            bn.name = f"frozen.bn{j}"
            bn.gamma = frozen(f"{bn.name}.gamma", bn.gamma)
            bn.beta = frozen(f"{bn.name}.beta", bn.beta)
            bn.running_mean = bn.running_mean.copy()
            bn.running_var = bn.running_var.copy()
        state = SlotState(
            stem=frozen("frozen.stem.w", top.stem),
            dense=[frozen(f"frozen.dense{j}.w", p)
                   for j, p in enumerate(top.dense)],
            bns=bns, mask=self.arch.full_mask())
        self.frozen = ({label: frozen(f"frozen.{label}.w", p)
                        for label, p in self.shared.items()}, state)

    # -- forward -------------------------------------------------------------

    def forward_all(self, images: np.ndarray, mode: str = "train",
                    hint_ids=(), want_context: Union[bool, Collection[int]] = True
                    ) -> list[SlotForward]:
        """Run every slot on the same batch.

        Each slot applies its own mask, BN state, stem, and head on top of
        the shared kernels. For every masked conv a slot that wants
        contexts saves one (input, masked output with a retained
        gradient, and the kernel gradient its backward keeps) so the
        cascade can form score gradients after one backward pass.
        want_context is True (every slot), False (no slot) or the
        indices of the slots that save contexts; score routing reads
        slots 1 and up. A slot runs at its kept width up to its first
        masked conv that saves a context, and at full width from there.
        """
        if isinstance(want_context, bool):
            want_context = range(len(self.slots)) if want_context else ()
        x = Tensor(images, dtype=self.dtype)
        hints = self._hint_set(hint_ids)
        return [self._forward_one(x, self.shared, slot.state, mode, hints,
                                  slot.index in want_context)
                for slot in self.slots]

    def forward_slot(self, index: int, images: np.ndarray, mode: str = "eval",
                     hint_ids=(), want_context: bool = False) -> SlotForward:
        """Run a single slot; other slots' state is untouched."""
        return self._forward_one(Tensor(images, dtype=self.dtype), self.shared,
                                 self.slots[index].state, mode,
                                 self._hint_set(hint_ids), want_context)

    def forward_frozen(self, images: np.ndarray, hint_ids=()) -> SlotForward:
        """Evaluation-mode forward of the frozen teacher, no graph."""
        if self.frozen is None:
            raise HierarchyError("no frozen teacher; call freeze_teacher() "
                                 "or load a checkpoint that has one")
        weights, state = self.frozen
        hints = self._hint_set(hint_ids)
        with ad.no_grad():
            return self._forward_one(Tensor(images, dtype=self.dtype), weights,
                                     state, "eval", hints, want_context=False)

    def _hint_set(self, hint_ids) -> set[int]:
        """The requested hint ids; each must name a maskable conv."""
        wanted = set(hint_ids)
        unknown = wanted - self.arch.maskable_sizes.keys()
        if unknown:
            raise HierarchyError(f"hint layer id {sorted(unknown)[0]} does not "
                                 "name a maskable conv")
        return wanted

    def _forward_one(self, x: Tensor, weights: dict[str, Parameter],
                     state: SlotState, mode: str, hint_ids: set[int],
                     want_context: bool) -> SlotForward:
        """The one loop over the arch's plan, with one op set
        (_KeptWidth); an eval pass that saves no context and has the tape
        off goes through the slot's memo. Ids whose taps share a step
        collapse into one map, named after the smallest."""
        memo = None
        if mode == "train":
            # this pass replaces its running statistics, and its step the
            # shared kernels that every slot's memo was built from
            for slot in self.slots:
                slot.state.memo = None
        elif not want_context and not ad.grad_enabled():
            sources = _memo_sources(weights, state)
            memo = state.memo
            if memo is None or not memo.built_from(sources, x.shape[1:]):
                state.memo = None
                memo = _Memo(sources, x.shape[1:])
        ops = _KeptWidth(mode, memo, want_context)
        reg = {"x": ops.start(x)}
        hints: dict[str, Tensor] = {}
        for st in self.arch.plan:
            op, it = st.op, st.layer
            t = reg["x"] if op == "fork" else reg[st.reg]
            if op == "conv":
                if it is self._stem_spec:
                    t = ops.conv(t, state.stem, None, it)
                else:
                    mask = state.mask.layers[it.layer_id] if it.maskable else None
                    t = ops.conv(t, weights[it.label], mask, it)
            elif op == "dwconv":
                t = ops.dwconv(t, weights[it.label], it)
            elif op == "bn":
                t = ops.bn(t, state.bns[st.index])
            elif op == "relu":
                t = ops.relu(t)
            elif op == "maxpool":
                t = ops.max_pool(t, it)
            elif op == "gap":
                t = ops.gap(t)
            elif op == "dense":
                t = ops.dense(t, state.dense[st.index])
            elif op == "add":
                t = ops.add(t, reg.pop("s"))
            reg[st.reg] = t
            hit = [i for i in st.taps if i in hint_ids]
            if hit:
                hints[f"tap{min(hit)}"] = ops.full(t)

        logits = ops.full(reg["x"])
        if memo is not None:
            state.memo = memo  # installed once the pass that fills it is done
        return SlotForward(logits=logits, hint_maps=hints, contexts=ops.contexts)

    # -- cascade plumbing ----------------------------------------------------

    def route_gamma_gradients(self, forwards: list[SlotForward]
                              ) -> dict[int, dict[int, np.ndarray]]:
        """Assemble each slot's score gradients from the next slot up.

        Slot i's gradient for layer l is the straight-through reduction
        over slot i+1's saved context at layer l: the kernel gradient
        that slot i+1's backward kept, contracted with the shared kernel
        as it is now. The top slot has no scores and receives nothing.
        """
        if len(forwards) != len(self.slots):
            raise HierarchyError(f"expected {len(self.slots)} forward results, "
                                 f"got {len(forwards)}")
        grads: dict[int, dict[int, np.ndarray]] = {}
        for i in range(len(self.slots) - 1):
            grads[i] = {}
            for lid, ctx in forwards[i + 1].contexts.items():
                grads[i][lid] = self._context_grad(ctx)
        return grads

    @staticmethod
    def _context_grad(ctx: LayerContext) -> np.ndarray:
        if ctx.kernel_grad.value is None:
            raise HierarchyError(f"layer {ctx.layer_id}: no saved loss gradient; "
                                 "run backward over the slot losses first")
        return contract_kernel_grad(ctx.weight.data, ctx.kernel_grad.value)

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
        return self.slots[index].state.parameters()

    def all_parameters(self) -> list[Parameter]:
        return self.shared_parameters() + [p for slot in self.slots
                                           for p in slot.state.parameters()]

    # -- persistence view ----------------------------------------------------

    def _saved_state(self) -> tuple[list[Parameter], list[BatchNormState]]:
        """Every parameter and BN state a checkpoint holds, the frozen teacher's too."""
        params, states = self.all_parameters(), [s.state for s in self.slots]
        if self.frozen is not None:
            weights, state = self.frozen
            params += list(weights.values()) + state.parameters()
            states.append(state)
        return params, [bn for st in states for bn in st.bns]

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of all state, for checkpointing: each
        parameter under its own name, a BN state's running statistics as
        {name}.rmean and .rvar, and slot{i}.mask.{id} and .scores.{id}."""
        params, bns = self._saved_state()
        out = {p.name: p.data for p in params}
        for bn in bns:
            out[f"{bn.name}.rmean"] = bn.running_mean
            out[f"{bn.name}.rvar"] = bn.running_var
        for slot in self.slots:
            for lid, name in _layer_names("mask", slot.index, self.arch):
                out[name] = slot.state.mask.layers[lid].astype(np.uint8)
            if slot.scores is not None:
                for lid, name in _layer_names("scores", slot.index, self.arch):
                    out[name] = slot.scores.layers[lid]
        return out

    def load_named_tensors(self, table: dict[str, np.ndarray]) -> None:
        """Restore state saved by named_tensors, replacing every object.
        An unknown or missing name or a wrong shape raises HierarchyError
        naming the tensor before anything is assigned, the frozen teacher
        included: a table without one drops it, one with it restores it."""
        probe = copy.copy(self)  # this hierarchy but for its frozen teacher
        if not any(k.startswith("frozen.") for k in table):
            probe.frozen = None
        elif probe.frozen is None:
            probe.freeze_teacher()  # allocate the structures, then overwrite
        check_tensors(table, {k: v.shape for k, v in probe.named_tensors().items()})

        self.frozen = probe.frozen
        params, bns = self._saved_state()
        for p in params:
            p.assign(table[p.name])
        for bn in bns:
            bn.running_mean = table[f"{bn.name}.rmean"].copy()
            bn.running_var = table[f"{bn.name}.rvar"].copy()
        for slot in self.slots:
            slot.state.mask = checkpoint_mask(table, self.arch, slot.index)
            if slot.scores is not None:
                names = _layer_names("scores", slot.index, self.arch)
                slot.scores = ImportanceScores({lid: table[n] for lid, n in names})


def _layer_names(kind: str, slot: int, arch: ArchSpec) -> list[tuple[int, str]]:
    """(layer id, checkpoint name) of one slot's per-layer masks or scores."""
    return [(lid, f"slot{slot}.{kind}.{lid}") for lid in sorted(arch.maskable_sizes)]


def check_tensors(table: dict[str, np.ndarray], want: dict[str, tuple]) -> None:
    """Raise HierarchyError naming the first tensor of table not in want
    (name -> shape), of want not in table, or of a shape want differs on."""
    for problem, names in (("has unknown", table.keys() - want.keys()),
                           ("is missing", want.keys() - table.keys())):
        if names:
            raise HierarchyError(f"checkpoint {problem} tensor {min(names)!r}")
    for name, shape in sorted(want.items()):
        if table[name].shape != shape:
            raise HierarchyError(f"checkpoint tensor {name!r} has shape "
                                 f"{table[name].shape}, expected {shape}")


def checkpoint_mask(table: dict[str, np.ndarray], arch: ArchSpec,
                    slot: int) -> FilterMask:
    """One slot's mask from a checkpoint's tensor table, checked against
    arch: every maskable conv's entry at its filter count, and no other
    mask of that slot."""
    names = _layer_names("mask", slot, arch)
    ours = {k: v for k, v in table.items() if k.startswith(f"slot{slot}.mask.")}
    check_tensors(ours, {n: (arch.maskable_sizes[lid],) for lid, n in names})
    return FilterMask({lid: table[name].astype(bool) for lid, name in names})


# ---------------------------------------------------------------------------
# the op set of the forward walk
# ---------------------------------------------------------------------------

@dataclass
class _Live:
    """An activation carried at its live channels.

    data holds the channels listed in live (all `width` channels when
    live is None). Every other channel is the same for every image: zero
    when fold is None, else the matching channel of fold, a one-image map
    of those dead channels only, in order. That is what a pruned filter's
    exact-zero output becomes through batch norm, relu, pooling and
    depthwise convs up to the next conv or dense layer.
    """
    data: Tensor
    width: int
    live: Optional[np.ndarray] = None
    fold: Optional[Tensor] = None

    @property
    def dead(self) -> np.ndarray:
        return _dead(self.live, self.width)


def _dead(live: np.ndarray, width: int) -> np.ndarray:
    keep = np.ones(width, dtype=bool)
    keep[live] = False
    return np.flatnonzero(keep)


def _widen(v: _Live, index: np.ndarray) -> Tensor:
    """Channels `index` (sorted, holding every live channel) of v's
    full-width activation, on the tape."""
    if v.live is None or np.array_equal(v.live, index):
        return v.data
    out = ad.place(v.data, np.searchsorted(index, v.live), len(index), axis=1)
    if v.fold is None:
        return out
    rest = np.setdiff1d(index, v.live, assume_unique=True)
    fold = ad.take(v.fold, np.searchsorted(v.dead, rest), axis=1)
    return ad.add(out, ad.place(fold, np.searchsorted(index, rest), len(index),
                                axis=1))


class _Memo:
    """The values of one slot's no-tape eval pass that do not depend on
    the images and are costly to recompute, in the order the pass
    computed them: the gathered kernels and dense rows, and the fold after
    each step with its contribution to the next conv or dense output. The
    folds' sizes follow the image shape (a net that ends in global
    pooling runs at any input size). It refers to the objects
    it was built from only weakly, so it keeps no replaced kernel,
    weight, statistic or mask alive. It lives from the no-tape eval pass
    that builds it to the next train-mode pass of any slot of the
    hierarchy (SlotState), so a teacher slot's memo is gone before the
    student's backward runs."""

    def __init__(self, sources: list, image_shape: tuple):
        self._sources = [weakref.ref(o) for o in sources]
        self._image_shape = image_shape
        self.values: list = []

    def built_from(self, sources: list, image_shape: tuple) -> bool:
        return image_shape == self._image_shape \
            and len(sources) == len(self._sources) \
            and all(ref() is o for ref, o in zip(self._sources, sources))


def _memo_sources(weights: dict[str, Parameter], state: SlotState) -> list:
    """Every object a kept-width pass of the slot reads besides the images."""
    objs = [p.value for p in list(weights.values()) + state.parameters()]
    for bn in state.bns:
        objs += [bn.running_mean, bn.running_var]
    return objs + list(state.mask.layers.values())


class _KeptWidth:
    """The ops of every pass, train or eval: activations at their live
    channels (_Live), so a pruned slot pays only for what it keeps. They
    record on the tape when grad is enabled.

    A conv gathers the kernel rows of its live inputs and the columns of
    its kept filters in one op (ad.gather_kernel, whose gradient is
    written once into a zeroed kernel), and adds what the dead inputs
    contribute: one image's conv of the fold with their kernel rows,
    added to every image. A depthwise conv gathers its live and its dead channels
    with the same op. Batch norm, relu, pooling and depthwise convs
    run on the live channels with gathered per-channel parameters, and on
    the fold. A residual join keeps the union of its sides' live
    channels. The result equals the full-width pass up to float summation
    order, including what pruned channels leak through batch norm. In
    train mode the fold goes through batch norm with its own one-image
    statistics: every image's dead channel is the same, so they equal the
    batch's, and the one-image backward of the fold's gradient (the batch
    sum) is the batch sum of the per-image input gradients.

    Given a memo (an eval pass with the tape off), every value that does
    not depend on the images and is costly to recompute goes through
    _once: the kernel and dense-row gathers, and the fold after each step
    with its contribution to the next conv or dense output. Batch norm
    gathers its per-channel vectors again on every pass. The pass that builds the memo computes them; a later pass of
    the same slot, kernels, weights, batch-norm state and mask takes the
    same arrays back and runs only the live channels on the images, so
    its outputs are bitwise those of the pass that built the memo.

    With save_contexts, each masked conv instead computes all its filters
    and masks them in one op (ad.masked_conv2d), saving its input, its
    output and the kernel gradient its backward keeps, so that routing
    reads the filters this slot prunes too. Its output carries every
    channel, so from there every op of the pass runs at full width.
    """

    def __init__(self, mode: str, memo: Optional[_Memo], save_contexts: bool):
        self.mode = mode
        self.save_contexts = save_contexts
        self.contexts: dict[int, LayerContext] = {}
        self.memo = memo
        self._next = 0

    def _once(self, make):
        """make(), or with a memo the value this call returned in the
        pass that built it. The same masks give the same calls in the
        same order, so the calls are matched by position."""
        if self.memo is None:
            return make()
        values = self.memo.values
        if self._next == len(values):
            values.append(make())
        self._next += 1
        return values[self._next - 1]

    def start(self, x: Tensor) -> _Live:
        return _Live(x, x.shape[1])

    def full(self, v: _Live) -> Tensor:
        return _widen(v, np.arange(v.width))

    def conv(self, v: _Live, w: Parameter, mask, it: ConvL) -> _Live:
        if self.save_contexts and mask is not None:
            # full width in: every conv before it in this pass returned all
            # its channels (the stem, unmasked convs and this branch)
            out, kernel_grad = ad.masked_conv2d(v.data, w.value, mask,
                                                it.stride, it.padding)
            self.contexts[it.layer_id] = LayerContext(
                it.layer_id, v.data, out.retain_grad(), w, it.stride,
                it.padding, kernel_grad)
            return _Live(out, w.shape[3])
        kept = None if mask is None or mask.all() else np.flatnonzero(mask)

        def fold_term():
            f = ad.conv2d(v.fold, ad.gather_kernel(w.value, v.dead),
                          it.stride, it.padding)
            return f if kept is None else ad.take(f, kept, axis=1)

        kernel = w.value  # never memoised: the memo must not keep it alive
        if v.live is not None or kept is not None:
            kernel = self._once(lambda: ad.gather_kernel(w.value, v.live, kept))
        y = ad.conv2d(v.data, kernel, it.stride, it.padding)
        if v.fold is not None:
            y = ad.add(y, self._once(fold_term))
        return _Live(y, w.shape[3], kept)

    def dwconv(self, v: _Live, w: Parameter, it: DWConvL) -> _Live:
        if v.live is None:
            return _Live(ad.depthwise_conv2d(v.data, w.value, it.stride,
                                             it.padding), v.width)
        kernel = self._once(lambda: ad.gather_kernel(w.value, v.live))
        y = ad.depthwise_conv2d(v.data, kernel, it.stride, it.padding)
        fold = None
        if v.fold is not None:
            fold = self._once(lambda: ad.depthwise_conv2d(
                v.fold, ad.gather_kernel(w.value, v.dead), it.stride, it.padding))
        return _Live(y, v.width, v.live, fold)

    def bn(self, v: _Live, bn: BatchNormState) -> _Live:
        y = ad.batch_norm(v.data, bn, mode=self.mode, index=v.live)
        if v.live is None:
            return _Live(y, v.width)

        def fold_after():
            dead = v.dead
            fold = v.fold
            if fold is None:
                fold = Tensor(np.zeros((1, dead.size) + v.data.shape[2:],
                                       dtype=v.data.dtype))
            return ad.batch_norm(fold, bn, mode=self.mode, index=dead)

        return _Live(y, v.width, v.live, self._once(fold_after))

    def _pointwise(self, v: _Live, op) -> _Live:
        fold = None if v.fold is None else self._once(lambda: op(v.fold))
        return _Live(op(v.data), v.width, v.live, fold)

    def relu(self, v: _Live) -> _Live:
        return self._pointwise(v, ad.relu)

    def max_pool(self, v: _Live, it: PoolL) -> _Live:
        return self._pointwise(v, lambda t: ad.max_pool(t, it.k, it.stride,
                                                        it.padding))

    def gap(self, v: _Live) -> _Live:
        return self._pointwise(v, ad.global_avg_pool)

    def dense(self, v: _Live, w: Parameter) -> _Live:
        x = v.data if v.data.data.ndim == 2 else ad.flatten(v.data)
        if v.live is None:
            return _Live(ad.dense(x, w.value), w.shape[1])
        per = int(np.prod(v.data.shape[2:], dtype=np.int64))  # 1 after gap

        def rows(channels):
            return (channels[:, None] * per + np.arange(per)).reshape(-1)

        y = ad.dense(x, self._once(lambda: ad.take(w.value, rows(v.live), axis=0)))
        if v.fold is not None:
            y = ad.add(y, self._once(lambda: ad.dense(
                ad.reshape(v.fold, (1, -1)), ad.take(w.value, rows(v.dead), axis=0))))
        return _Live(y, w.shape[1])

    def add(self, a: _Live, b: _Live) -> _Live:
        if a.live is None and b.live is None:
            return _Live(ad.add(a.data, b.data), a.width)
        if a.live is None or b.live is None:
            index = np.arange(a.width)
        else:
            index = np.union1d(a.live, b.live)
        y = ad.add(_widen(a, index), _widen(b, index))
        if index.size == a.width:
            return _Live(y, a.width)

        def fold_after():
            # the join's dead channels are dead on both sides
            dead = _dead(index, a.width)
            fold = None
            for side in (a, b):
                if side.fold is not None:
                    part = ad.take(side.fold, np.searchsorted(side.dead, dead),
                                   axis=1)
                    fold = part if fold is None else ad.add(fold, part)
            return fold

        return _Live(y, a.width, index, self._once(fold_after))
