"""Architecture descriptions and exact cost accounting.

An architecture is a small text file, one layer per line, key=value
tokens, residual blocks as indented groups::

    input c=3 h=32 w=32
    conv k=3 in=3 out=64            # stride=1 pad=same maskable=true
    bn
    relu
    pool kind=max k=2 stride=2
    block proj=true
      conv k=1 in=64 out=64
      bn
      relu
      ...
    pool kind=gap
    classifier in=512 out=10

Residual blocks add their input to the body output and apply relu; a
projection shortcut (1x1 conv at the block's overall stride, followed
by bn) is implied when proj=true. A block body holds conv, bn and relu
lines only. Maskable convs are numbered in document order, body convs
before a block's projection.

One handler parses a layer line wherever it sits, at the top level or
in a block body: it checks the line against the current shape, advances
the shape and emits the line's step. So each check, such as a valid
window fitting its input, is written once and holds in both places.

The parser compiles the file into ArchSpec.plan, a flat list of steps,
one per op: conv, dwconv, bn, relu, maxpool, gap, dense (a dense or
the classifier line), fork and add. Each step transforms one register:
x, the main path, or s, a residual block's shortcut. A block compiles
to fork (copy x into s), its body on x, the projection's conv and bn on
s, add (join s back into x) and the closing relu. A step also carries
its resolved BN or dense index, its output size, the input values per
channel of a dense step, and the hint ids whose tap is its output: a
top-level conv's tap is the end of its trailing bn/relu run, and a
block's convs tap the block's closing relu. The hierarchy, the forward
pass and the cost counter all run from the plan; inside the package
only the parser reads ArchSpec.items, the nested layer list kept for
callers that want the document's structure.

Cost accounting is pure integer arithmetic. One multiply-accumulate
counts as one FLOP; only conv and dense layers carry cost, batch norm
and pooling and residual additions are free, and nothing has a bias.
With a mask, channel counts shrink to the kept filters, chained so a
layer's input width is the previous maskable layer's kept width. At a
residual join the surviving width is the larger of the two branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .masking import FilterMask


class ArchError(ValueError):
    """Malformed or inconsistent architecture description."""


@dataclass
class ConvL:
    k: int
    cin: int
    cout: int
    stride: int = 1
    padding: str = "same"
    maskable: bool = True
    layer_id: Optional[int] = None
    label: str = ""


@dataclass
class DWConvL:
    k: int
    c: int
    stride: int = 1
    padding: str = "same"
    label: str = ""


@dataclass
class BNL:
    c: int


@dataclass
class ReLUL:
    pass


@dataclass
class PoolL:
    kind: str  # "max" or "gap"
    k: int = 0
    stride: int = 0
    padding: str = "valid"


@dataclass
class DenseL:
    din: int
    dout: int
    label: str = ""


@dataclass
class ClassifierL:
    din: int
    dout: int
    label: str = "classifier"


@dataclass
class BlockL:
    body: list
    proj: Optional[ConvL]
    label: str = ""


@dataclass
class Step:
    """One op of the compiled plan."""
    op: str                      # conv dwconv bn relu maxpool gap dense fork add
    layer: object = None         # the parsed layer; a block's BlockL for fork and add
    index: Optional[int] = None  # the slot's BN index (bn) or dense index (dense)
    out: tuple = ()              # output size: (c, h, w), or (d,) once flat
    per: int = 1                 # dense: input values per channel (h*w before gap)
    reg: str = "x"               # register transformed: x main path, s shortcut
    taps: tuple = ()             # hint ids whose tap is this step's output


@dataclass
class ArchSpec:
    name: str
    in_c: int
    in_h: int
    in_w: int
    items: list
    classes: int
    maskable_sizes: dict[int, int] = field(default_factory=dict)
    plan: list[Step] = field(default_factory=list)

    def full_mask(self) -> FilterMask:
        import numpy as np
        return FilterMask({lid: np.ones(sz, dtype=bool)
                           for lid, sz in self.maskable_sizes.items()})


@dataclass
class LayerStats:
    label: str
    group: str
    layer_id: Optional[int]
    params: int
    flops: int
    out_shape: tuple


@dataclass
class StatsReport:
    layers: list[LayerStats]
    total_flops: int
    total_params: int

    def by_group(self) -> list[tuple[str, int, int]]:
        """(group, flops, params) subtotals in first-appearance order."""
        order, sums = [], {}
        for row in self.layers:
            if row.group not in sums:
                order.append(row.group)
                sums[row.group] = [0, 0]
            sums[row.group][0] += row.flops
            sums[row.group][1] += row.params
        return [(g, sums[g][0], sums[g][1]) for g in order]


@dataclass
class CompressionReport:
    flops_ratio: float
    param_ratio: float
    flops_reduction_pct: float
    param_reduction_pct: float

    def __str__(self) -> str:
        return (f"{self.param_ratio:.1f}x fewer parameters "
                f"({self.param_reduction_pct:.1f}% removed), "
                f"{self.flops_ratio:.1f}x fewer FLOPs "
                f"({self.flops_reduction_pct:.1f}% removed)")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _out_hw(h: int, w: int, k: int, stride: int, padding: str,
            where: str) -> tuple[int, int]:
    """The output size of a k x k window; a valid one must fit the input."""
    if padding == "same":
        return -(-h // stride), -(-w // stride)
    if k > h or k > w:
        raise ArchError(f"{where}: {k}x{k} window does not fit {h}x{w} input")
    return (h - k) // stride + 1, (w - k) // stride + 1


def _kv(kind: str, tokens: list[str], where: str) -> dict[str, str]:
    """A layer line's key=value tokens; a relu line takes none."""
    if kind == "relu" and tokens:
        raise ArchError(f"{where}: relu takes no arguments")
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ArchError(f"{where}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key in out:
            raise ArchError(f"{where}: duplicate key {key!r}")
        out[key] = val
    return out


def _take_int(kv: dict, key: str, where: str, default=None, minimum=1) -> int:
    if key not in kv:
        if default is not None:
            return default
        raise ArchError(f"{where}: missing required key {key!r}")
    try:
        v = int(kv.pop(key))
    except ValueError:
        raise ArchError(f"{where}: {key} must be an integer") from None
    if v < minimum:
        raise ArchError(f"{where}: {key} must be >= {minimum}, got {v}")
    return v


def _take_bool(kv: dict, key: str, where: str, default: bool) -> bool:
    if key not in kv:
        return default
    v = kv.pop(key)
    if v not in ("true", "false"):
        raise ArchError(f"{where}: {key} must be true or false, got {v!r}")
    return v == "true"


def _take_pad(kv: dict, where: str) -> str:
    v = kv.pop("pad", "same")
    if v not in ("same", "valid"):
        raise ArchError(f"{where}: pad must be same or valid, got {v!r}")
    return v


def _no_extras(kv: dict, where: str) -> None:
    if kv:
        raise ArchError(f"{where}: unknown key {sorted(kv)[0]!r}")


def parse_arch(text: str, name: str = "<arch>") -> ArchSpec:
    """Parse an architecture description, validating shape chaining.

    Errors carry the source name and 1-based line number.
    """
    lines = text.splitlines()
    entries = []  # (lineno, indented, kind, kv-tokens)
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0] in (" ", "\t")
        tokens = line.split()
        entries.append((i, indented, tokens[0], tokens[1:]))

    if not entries:
        raise ArchError(f"{name}: empty architecture")

    lineno, indented, kind, toks = entries[0]
    if indented or kind != "input":
        raise ArchError(f"{name}:{lineno}: first line must be 'input c=.. h=.. w=..'")
    kv = _kv(kind, toks, f"{name}:{lineno}")
    c = _take_int(kv, "c", f"{name}:{lineno}")
    h = _take_int(kv, "h", f"{name}:{lineno}")
    w = _take_int(kv, "w", f"{name}:{lineno}")
    _no_extras(kv, f"{name}:{lineno}")
    in_c, in_h, in_w = c, h, w

    items: list = []
    plan: list[Step] = []
    sizes: dict[int, int] = {}
    next_layer_id = 0
    conv_count = 0
    dw_count = 0
    block_count = 0
    dense_count = 0
    flat: Optional[int] = None  # set once spatial structure collapses
    closed = False
    tapped: Optional[Step] = None  # holds a top-level conv's tap while bn/relu follow

    def emit(op: str, layer=None, reg: str = "x", per: int = 1,
             taps: tuple = ()) -> Step:
        index = sum(st.op == op for st in plan) if op in ("bn", "dense") else None
        out = (c, h, w) if flat is None else (flat,)
        plan.append(Step(op, layer, index, out, per, reg, taps))
        return plan[-1]

    def layer(kind: str, kv: dict, where: str) -> Step:
        """Parse one layer line against the current shape, advance the
        shape and emit the line's step."""
        nonlocal c, h, w, flat, closed, next_layer_id
        nonlocal conv_count, dw_count, dense_count
        op, per = kind, 1
        if kind == "conv":
            k = _take_int(kv, "k", where)
            cin = _take_int(kv, "in", where)
            cout = _take_int(kv, "out", where)
            stride = _take_int(kv, "stride", where, default=1)
            pad = _take_pad(kv, where)
            maskable = _take_bool(kv, "maskable", where, True)
            _no_extras(kv, where)
            if cin != c:
                raise ArchError(f"{where}: conv expects in={c} "
                                f"(previous layer width), got in={cin}")
            new = ConvL(k, cin, cout, stride, pad, maskable,
                        layer_id=None, label=f"conv{conv_count}")
            conv_count += 1
            if maskable:
                new.layer_id = next_layer_id
                sizes[next_layer_id] = cout
                next_layer_id += 1
            h, w = _out_hw(h, w, k, stride, pad, where)
            c = cout
        elif kind == "dwconv":
            k = _take_int(kv, "k", where)
            cc = _take_int(kv, "c", where, default=c)
            stride = _take_int(kv, "stride", where, default=1)
            pad = _take_pad(kv, where)
            _no_extras(kv, where)
            if cc != c:
                raise ArchError(f"{where}: dwconv expects c={c}, got c={cc}")
            h, w = _out_hw(h, w, k, stride, pad, where)
            new = DWConvL(k, c, stride, pad, label=f"dwconv{dw_count}")
            dw_count += 1
        elif kind == "bn":
            cc = _take_int(kv, "c", where, default=c)
            _no_extras(kv, where)
            if cc != c:
                raise ArchError(f"{where}: bn expects c={c}, got c={cc}")
            new = BNL(c)
        elif kind == "relu":
            new = ReLUL()
        elif kind == "pool":
            pk = kv.pop("kind", None)
            if pk == "max":
                k = _take_int(kv, "k", where)
                stride = _take_int(kv, "stride", where)
                pad = _take_pad(kv, where) if "pad" in kv else "valid"
                _no_extras(kv, where)
                h, w = _out_hw(h, w, k, stride, pad, where)
                new, op = PoolL("max", k, stride, pad), "maxpool"
            elif pk == "gap":
                _no_extras(kv, where)
                new, op, flat = PoolL("gap"), "gap", c
            else:
                raise ArchError(f"{where}: pool kind must be max or gap")
        elif kind in ("dense", "classifier"):
            din = _take_int(kv, "in", where)
            dout = _take_int(kv, "out", where)
            _no_extras(kv, where)
            want = flat if flat is not None else c * h * w
            if din != want:
                raise ArchError(f"{where}: {kind} expects in={want}, got in={din}")
            if kind == "dense":
                new = DenseL(want, dout, label=f"dense{dense_count}")
                dense_count += 1
            else:
                new, closed = ClassifierL(want, dout), True
            per = 1 if flat is not None else h * w
            op, flat = "dense", dout
        else:
            raise ArchError(f"{where}: unknown layer kind {kind!r}")
        return emit(op, new, per=per)

    idx = 1
    while idx < len(entries):
        lineno, indented, kind, toks = entries[idx]
        idx += 1
        where = f"{name}:{lineno}"
        if closed:
            raise ArchError(f"{where}: nothing may follow the classifier")
        if indented:
            raise ArchError(f"{where}: indented line outside a block")
        kv = _kv(kind, toks, where)
        run, tapped = tapped, None
        if flat is not None and kind in ("conv", "dwconv", "bn", "pool", "block"):
            raise ArchError(f"{where}: {kind} after the features were flattened")

        if kind != "block":
            step = layer(kind, kv, where)
            items.append(step.layer)
            if kind == "conv":
                step.taps = (step.layer.layer_id,) if step.layer.maskable else ()
                tapped = step
            elif kind in ("bn", "relu") and run is not None:
                # the tap moves to the end of the run
                step.taps, run.taps = run.taps, ()
                tapped = step
            continue

        has_proj = _take_bool(kv, "proj", where, False)
        _no_extras(kv, where)
        block = BlockL([], None, label=f"block{block_count}")
        entry_c, entry_h, entry_w = c, h, w
        overall_stride = 1
        emit("fork", block, reg="s")
        while idx < len(entries) and entries[idx][1]:
            blineno, _, bkind, btoks = entries[idx]
            idx += 1
            bwhere = f"{name}:{blineno}"
            bkv = _kv(bkind, btoks, bwhere)
            if bkind not in ("conv", "bn", "relu"):
                raise ArchError(f"{bwhere}: {bkind!r} not allowed inside a block")
            block.body.append(layer(bkind, bkv, bwhere).layer)
            if bkind == "conv":
                overall_stride *= block.body[-1].stride
        convs = [b for b in block.body if isinstance(b, ConvL)]
        if not convs:
            raise ArchError(f"{where}: block body needs at least one conv")
        for j, b in enumerate(convs):
            b.label = f"block{block_count}.conv{j}"
        if has_proj:
            block.proj = ConvL(1, entry_c, c, overall_stride, "same", True,
                               layer_id=next_layer_id,
                               label=f"block{block_count}.proj")
            sizes[next_layer_id] = c
            next_layer_id += 1
            convs.append(block.proj)
        elif entry_c != c or overall_stride != 1:
            raise ArchError(f"{where}: identity shortcut needs matching "
                            f"width and stride 1 (in={entry_c} out={c} "
                            f"stride={overall_stride}); set proj=true")
        if (h, w) != _out_hw(entry_h, entry_w, 1, overall_stride, "same", where):
            raise ArchError(f"{where}: body spatial reduction is not a "
                            f"clean stride; shortcut cannot align")
        if has_proj:
            emit("conv", block.proj, reg="s")
            emit("bn", BNL(c), reg="s")
        emit("add", block)
        emit("relu", ReLUL(),
             taps=tuple(b.layer_id for b in convs if b.maskable))
        items.append(block)
        block_count += 1

    if not closed:
        raise ArchError(f"{name}: architecture must end with a classifier line")

    return ArchSpec(name=name, in_c=in_c, in_h=in_h, in_w=in_w, items=items,
                    classes=flat, maskable_sizes=sizes, plan=plan)


def load_arch(path) -> ArchSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_arch(fh.read(), name=str(path))


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

def count_stats(arch: ArchSpec, mask: Optional[FilterMask] = None) -> StatsReport:
    """Per-layer FLOPs and parameter counts, full-width or masked.

    Only cost-bearing layers (convs, depthwise convs, dense, classifier)
    appear in the row list. All arithmetic is on Python ints.
    """
    if mask is not None:
        for lid, sz in arch.maskable_sizes.items():
            if lid not in mask.layers:
                raise ArchError(f"mask is missing layer {lid}")
            if mask.layers[lid].size != sz:
                raise ArchError(f"mask for layer {lid} has "
                                f"{mask.layers[lid].size} entries, expected {sz}")

    def kept(layer: ConvL) -> int:
        if layer.maskable and mask is not None:
            return int(mask.layers[layer.layer_id].sum())
        return layer.cout

    rows: list[LayerStats] = []
    width = {"x": arch.in_c}  # live channels per register
    group = None  # the enclosing block's label
    for st in arch.plan:
        it = st.layer
        if st.op == "conv":
            cout = kept(it)
            _, ho, wo = st.out
            p = it.k * it.k * width[st.reg] * cout
            rows.append(LayerStats(it.label, group or it.label, it.layer_id,
                                   p, p * ho * wo, (cout, ho, wo)))
            width[st.reg] = cout
        elif st.op == "dwconv":
            c, ho, wo = width["x"], st.out[1], st.out[2]
            p = it.k * it.k * c
            rows.append(LayerStats(it.label, it.label, None, p, p * ho * wo,
                                   (c, ho, wo)))
        elif st.op == "dense":
            p = width["x"] * st.per * it.dout
            rows.append(LayerStats(it.label, it.label, None, p, p, (it.dout,)))
            width["x"] = it.dout
        elif st.op == "fork":
            width["s"], group = width["x"], it.label
        elif st.op == "add":
            width["x"], group = max(width["x"], width["s"]), None
        # bn, relu and pooling carry no cost and keep the width

    total_f = sum(r.flops for r in rows)
    total_p = sum(r.params for r in rows)
    return StatsReport(rows, total_f, total_p)


def compression_report(baseline, pruned) -> CompressionReport:
    """Reduction ratios between two (flops, params) totals.

    Accepts StatsReport objects or plain (flops, params) pairs, so paper
    tables can be compared against computed counts directly.
    """
    bf, bp = _totals(baseline)
    pf, pp = _totals(pruned)
    if pf <= 0 or pp <= 0:
        raise ValueError("pruned totals must be positive")
    return CompressionReport(
        flops_ratio=bf / pf,
        param_ratio=bp / pp,
        flops_reduction_pct=100.0 * (1.0 - pf / bf),
        param_reduction_pct=100.0 * (1.0 - pp / bp),
    )


def _totals(x) -> tuple[int, int]:
    if isinstance(x, StatsReport):
        return x.total_flops, x.total_params
    f, p = x
    return int(f), int(p)
