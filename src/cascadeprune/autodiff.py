"""Minimal dense-tensor reverse-mode autodiff engine.

Tensors wrap a numpy array and record the operation that produced them.
``backward`` replays the tape in reverse creation order (creation order is
a topological order, since an op can only consume already-built tensors)
and accumulates gradients into leaves.

The tape is made of nodes, not tensors. A tensor that requires grad
owns a Node: its op, its backward closure and its parents' nodes, plus a
weak reference back to the tensor for leaves and tensors that retain
their grad. A child therefore keeps its parents' nodes alive but not
their data: an activation's data lives only while a backward closure or
a caller holds it (a batch-norm output that feeds a relu is freed once
the relu has run, because relu's backward reads its own output). A
closure keeps only the arrays its backward reads, and the shape where
that is all it needs.

A graph is swept once. As the sweep passes a node, it drops the node's
backward closure and parents, so what the closure saved for the backward
is freed as soon as nothing below needs it. Leaves and retained tensors
that are still alive get their grad; a later backward that reaches a
swept interior node raises AutodiffError.

A conv is an im2col GEMM: a patch matrix of K*K shifted copies of the
input times the kernel. Built for the whole batch, that matrix is K*K
times the input (75 MB for a 64-channel 32x32 layer at batch 32). The
forward and the input gradient therefore run over chunks of whole
images (_conv_chunks) whose patch matrix holds at least the 2 MB of L2
cache and at least four times the kernel, which the GEMM packs once per
chunk; where a chunk would be half the batch or more, the layer is one
GEMM. The GEMM packs its operands itself, so unlike the depthwise
kernels' these chunk buffers gain nothing from starting on a cache
line. Where the patch matrix would be large, the kernel gradient is one
GEMM per tap (tap^T @ rows), each reducing over the whole batch. A GEMM
split this way keeps every bit only if no part's M*K*N is at or below
100^3 (_BLAS_SMALL_MNK): OpenBLAS sends such products to small-matrix
kernels that sum in another order. Its float64 kernel also sums the last
columns of a wide product in an order that depends on the rows around
them, so only float32 GEMMs are split, and every part stays above the
bound: the results are those of one GEMM over the whole batch. That was
checked with OpenBLAS 0.3.31 at one, two and four threads; another
BLAS, version or thread count may sum the parts in another order, and
tests/test_tensor_ops.py checks the installed one's row splits.

Depthwise convolution is bound by memory traffic, not arithmetic: each
of its K*K taps reads and writes an output-sized buffer. Its forward and
both gradients therefore run over chunks of images whose padded input,
output and scratch (about 1 MB, _DW_CHUNK_BYTES) stay in a 2 MB L2 cache,
and every chunk adds its terms in the order one pass over the whole batch
would, so the results do not depend on the chunk size. The chunk's
buffers start on a cache line (_line_aligned): where malloc puts them
otherwise varies from one process to the next, and the kernels' speed
with it.

Layout conventions, fixed across the whole package:
  activations  (N, C, H, W)
  conv weights (K_h, K_w, C_in, C_out)
  dense weights (D_in, D_out)

No layer carries a bias term.
"""

from __future__ import annotations

import contextlib
import math
import weakref
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}


class ShapeError(ValueError):
    """Raised when operand shapes (or dtypes) are inconsistent."""


class AutodiffError(RuntimeError):
    """Raised on invalid use of the tape, e.g. backward on a non-scalar."""


_grad_enabled = True
_node_counter = 0


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether ops record on the tape here (False inside no_grad)."""
    return _grad_enabled


def _next_node_id() -> int:
    global _node_counter
    _node_counter += 1
    return _node_counter


def _as_dtype(dtype) -> np.dtype:
    if isinstance(dtype, str):
        if dtype not in DTYPES:
            raise ShapeError(f"unsupported dtype {dtype!r}; expected one of {sorted(DTYPES)}")
        return np.dtype(DTYPES[dtype])
    d = np.dtype(dtype)
    if d not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ShapeError(f"unsupported dtype {d}; only f32/f64 tensors are supported")
    return d


Backward = Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]


class Node:
    """One tensor's place in the graph: its op, the backward closure that
    maps its output gradient to per-parent gradients, and its parents'
    nodes (None for a parent that needs no gradient). Leaves have no
    parents and no closure. tensor is a weak reference to the tensor
    whose grad a backward fills in: set for leaves and for tensors that
    call retain_grad, None otherwise."""

    __slots__ = ("node_id", "op", "parents", "backward", "tensor")

    def __init__(self, op: str, parents: tuple[Optional["Node"], ...] = (),
                 backward: Optional[Backward] = None, tensor=None):
        self.node_id = _next_node_id()
        self.op = op
        self.parents = parents
        self.backward = backward
        self.tensor = tensor


class Tensor:
    """A dense n-dimensional array plus, if it requires grad, its node in
    the autodiff graph. Data arrays are treated as immutable once the
    tensor participates in a graph.
    """

    __slots__ = ("data", "grad", "node", "__weakref__")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(_as_dtype(dtype), copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[Node] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled

    @property
    def requires_grad(self) -> bool:
        """Whether the tensor has a node in the graph. Setting it True
        makes the tensor a leaf, which keeps its grad; setting it False
        cuts the tensor from the graph."""
        return self.node is not None

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        if not value:
            self.node = None
        elif self.node is None:
            self.node = Node("leaf", tensor=weakref.ref(self))

    @property
    def op(self) -> str:
        return "leaf" if self.node is None else self.node.op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def retain_grad(self) -> "Tensor":
        """Keep the gradient a backward computes for this interior tensor."""
        if self.node is not None:
            self.node.tensor = weakref.ref(self)
        return self

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self.op!r})"


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
          backward: Backward) -> Tensor:
    """The output tensor of an op. It gets a node when grad is enabled and
    some parent requires grad; the closure must not hold the parents
    themselves, only the arrays and shapes its backward reads."""
    out = Tensor(data)
    if _grad_enabled and any(p.node is not None for p in parents):
        out.node = Node(op, tuple(p.node for p in parents), backward)
    return out


def _check_same_dtype(*tensors: Tensor) -> None:
    dts = {t.dtype for t in tensors}
    if len(dts) > 1:
        raise ShapeError(f"mixed dtypes in one op: {sorted(d.name for d in dts)}")


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Gradients are accumulated (+=) into ``grad`` of every reachable leaf
    and of interior tensors that called ``retain_grad``, while they are
    alive. Contributions from multiple paths are summed. Every reachable
    interior node is swept, whether or not a gradient reached it: its
    closure and parents are dropped once it has passed its gradient on.
    """
    if loss.size != 1:
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        return

    # Collect the reachable subgraph; reverse creation order is a valid
    # reverse topological order because parents predate their children.
    nodes: dict[int, Node] = {}
    stack = [loss.node]
    while stack:
        n = stack.pop()
        if n.node_id in nodes:
            continue
        if n.op != "leaf" and n.backward is None:
            raise AutodiffError(f"the {n.op} node was swept by an earlier "
                                "backward; a graph can be swept only once")
        nodes[n.node_id] = n
        stack.extend(p for p in n.parents if p is not None)

    grads: dict[int, np.ndarray] = {loss.node.node_id: np.ones_like(loss.data)}
    for nid in sorted(nodes, reverse=True):
        n = nodes.pop(nid)
        bwd, parents = n.backward, n.parents
        n.backward, n.parents = None, ()
        g = grads.pop(nid, None)
        if g is None:
            continue
        t = n.tensor() if n.tensor is not None else None
        if t is not None:
            t.grad = g.copy() if t.grad is None else t.grad + g
        if bwd is None:
            continue
        for p, pg in zip(parents, bwd(g)):
            if pg is None or p is None:
                continue
            if p.node_id in grads:
                grads[p.node_id] = grads[p.node_id] + pg
            else:
                grads[p.node_id] = pg


class Parameter:
    """A named trainable tensor with an accumulated gradient buffer."""

    def __init__(self, name: str, value, dtype=None, trainable: bool = True,
                 decay_exempt: bool = False):
        self.name = name
        self.value = Tensor(value, dtype=dtype, requires_grad=trainable)
        self.trainable = trainable
        self.decay_exempt = decay_exempt

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def grad(self) -> np.ndarray:
        if self.value.grad is None:
            return np.zeros_like(self.value.data)
        return self.value.grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.data.shape

    def zero_grad(self) -> None:
        self.value.grad = None

    def assign(self, new_values: np.ndarray) -> None:
        """Replace the stored values ahead of the next forward pass."""
        if new_values.shape != self.value.data.shape:
            raise ShapeError(f"assign to {self.name}: shape {new_values.shape} "
                             f"!= {self.value.data.shape}")
        fresh = Tensor(new_values.astype(self.value.data.dtype, copy=False))
        fresh.requires_grad = self.trainable  # independent of any no_grad scope
        self.value = fresh

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class BatchNormState:
    """Per-channel batch-norm state: learnable scale/offset + running stats."""

    def __init__(self, name: str, channels: int, dtype="f32"):
        dt = _as_dtype(dtype)
        self.name = name
        self.channels = channels
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels, dtype=dt),
                               decay_exempt=True)
        self.beta = Parameter(f"{name}.beta", np.zeros(channels, dtype=dt),
                              decay_exempt=True)
        self.running_mean = np.zeros(channels, dtype=dt)
        self.running_var = np.ones(channels, dtype=dt)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _conv_geometry(h: int, w: int, k: int, stride: int, padding: str):
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding == "valid":
        if k > h or k > w:
            raise ShapeError(f"{k}x{k} window does not fit {h}x{w} input in valid mode")
        return (0, 0, 0, 0), (h - k) // stride + 1, (w - k) // stride + 1
    if padding == "same":
        ho = -(-h // stride)
        wo = -(-w // stride)
        ph = max((ho - 1) * stride + k - h, 0)
        pw = max((wo - 1) * stride + k - w, 0)
        # odd padding puts the extra pixel on the bottom/right
        return (ph // 2, ph - ph // 2, pw // 2, pw - pw // 2), ho, wo
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


def _channels_last_padded(x: np.ndarray, pads: tuple, dtype) -> np.ndarray:
    """x (N,C,H,W) as a zero-padded (N,H',W',C) array, in one copy."""
    n, c, h, w = x.shape
    pt, pb, pl, pr = pads
    xp = np.zeros((n, h + pt + pb, w + pl + pr, c), dtype=dtype)
    xp[:, pt:pt + h, pl:pl + w] = x.transpose(0, 2, 3, 1)
    return xp


def _tap(xp: np.ndarray, i: int, j: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """The strided slice of a padded channels-last input that kernel tap
    (i, j) multiplies: output pixel (a, b) reads input (a*s + i, b*s + j)."""
    return xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride]


def _windows(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """The (N, Ho, Wo, K, K, C) view of a padded channels-last input in
    which [b, a, c] is the window that output pixel (a, c) of image b
    reads; each window row is a run of K*C contiguous input values."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    return windows[:, :stride * ho:stride, :stride * wo:stride].transpose(0, 1, 2, 4, 5, 3)


def _patches(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """The (N*Ho*Wo, K*K*C) patch matrix of a padded channels-last input.

    Row (b, a, c) holds what output pixel (a, c) of image b reads, tap by
    tap, so its column order (i, j, channel) matches a (K,K,Cin,Cout)
    kernel reshaped to (K*K*Cin, Cout). It is one copy of _windows. A 1x1
    stride-1 conv reads every pixel once: the input itself is the patch
    matrix, and no copy is made.
    """
    n, _, _, c = xp.shape
    if k == 1 and stride == 1:
        return xp.reshape(n * ho * wo, c)
    cols = np.ascontiguousarray(_windows(xp, k, stride, ho, wo))
    return cols.reshape(n * ho * wo, k * k * c)


def _scatter_patches(gcols: np.ndarray, gxp: np.ndarray, k: int, stride: int,
                     ho: int, wo: int) -> None:
    """The inverse of _patches for gradients: adds each tap's columns of
    gcols (N*Ho*Wo, K*K*C) onto the pixels of the padded channels-last
    gradient gxp (N,H',W',C) that the tap read, tap by tap in (i, j)
    order. Each image's pixels see the same additions in the same order
    whichever images share the call."""
    n, _, _, c = gxp.shape
    gcols = gcols.reshape(n, ho, wo, k, k, c)
    for i in range(k):
        for j in range(k):
            window = _tap(gxp, i, j, stride, ho, wo)
            window += gcols[:, :, :, i, j]


# The im2col kernels run over chunks of whole images whose patch matrix
# holds at least _CONV_CHUNK_BYTES, the size of a 2 MB L2 cache, and at
# least _CONV_KERNEL_REUSE times the kernel's bytes: the GEMM packs the
# kernel once per chunk, so a chunk four times its size keeps that cost
# small.
_CONV_CHUNK_BYTES = 2 << 20
_CONV_KERNEL_REUSE = 4

# OpenBLAS computes a GEMM whose M*K*N is at most this with small-matrix
# kernels, which sum in another order than its blocked ones. A GEMM split
# into parts by rows keeps every bit of the whole only if each part's
# M*K*N is above it.
_BLAS_SMALL_MNK = 100 ** 3

# The kernel gradient runs one GEMM per tap where the whole patch matrix
# would take at least this many bytes. Below it, a stem's few input
# channels make the K*K tap GEMMs slower than one GEMM.
_TAP_GRAD_BYTES = 16 << 20


def _conv_chunks(n: int, pixels: int, kkc: int, cout: int, dtype) -> list:
    """The (lo, hi) image ranges that conv2d_raw and _conv_input_grad run
    over, for a batch of n images of `pixels` output pixels each, a patch
    matrix of kkc columns, cout filters and values of dtype.

    A chunk is at least the fewest images whose patch matrix holds
    max(_CONV_CHUNK_BYTES, _CONV_KERNEL_REUSE * the kernel's bytes) and
    whose GEMMs have M*K*N above _BLAS_SMALL_MNK; the batch is split
    into as many such chunks as it holds, of near-equal size. It is one
    chunk where that chunk would be half the batch or more, where a GEMM
    would have a single column (numpy computes a matrix-vector product
    with gemv, whose sums a split by rows may reorder), and for any dtype
    but float32: OpenBLAS's float64 kernel sums the last N % 8 columns of
    a product wider than 192 in an order that depends on the rows around
    them, so a float64 GEMM split by rows is not bitwise the whole."""
    per_image = pixels * kkc * cout
    if dtype != np.float32 or min(kkc, cout) < 2:
        return [(0, n)]
    itemsize = np.dtype(dtype).itemsize
    target = max(_CONV_CHUNK_BYTES, _CONV_KERNEL_REUSE * kkc * cout * itemsize)
    images = max(-(-target // (pixels * kkc * itemsize)),
                 _BLAS_SMALL_MNK // per_image + 1)
    if 2 * images >= n:
        return [(0, n)]
    count = n // images
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


def _tap_grad(rows: int, cin: int, cout: int, k: int, dtype) -> bool:
    """Whether _kernel_grad runs one GEMM per tap: for float32 (see
    _conv_chunks), where the patch matrix of rows output pixels would
    take _TAP_GRAD_BYTES or more, and each tap's GEMM has two or more
    rows and columns and M*K*N above _BLAS_SMALL_MNK, so that it keeps
    the bits of the one GEMM."""
    return (dtype == np.float32 and k > 1 and min(cin, cout) >= 2
            and rows * k * k * cin * np.dtype(dtype).itemsize >= _TAP_GRAD_BYTES
            and rows * cin * cout > _BLAS_SMALL_MNK)


def _kernel_grad(x: np.ndarray, rows: np.ndarray, k: int, stride: int,
                 pads: tuple, ho: int, wo: int) -> np.ndarray:
    """The kernel gradient of a conv, (K,K,Cin,Cout), from its input x
    (N,C,H,W) and its output gradient as rows (N*Ho*Wo, Cout):
    patches^T @ rows, with the patch matrix rebuilt from x.

    Where _tap_grad holds, tap (i, j) of the result is its own GEMM,
    tap^T @ rows, on one reused (N*Ho*Wo, Cin) copy of the tap's slice,
    instead of one GEMM on the K*K times larger patch matrix. Each is a
    block of rows of the one GEMM's result, summed over the same whole
    batch, so the two give the same bits."""
    n, cin = x.shape[:2]
    cout = rows.shape[1]
    dtype = np.result_type(x.dtype, rows.dtype)
    xp = _channels_last_padded(x, pads, x.dtype)
    if not _tap_grad(rows.shape[0], cin, cout, k, dtype):
        cols = _patches(xp, k, stride, ho, wo)
        del xp  # a copy unless the conv is 1x1, stride 1
        return (cols.T @ rows).reshape(k, k, cin, cout)
    gw = np.empty((k, k, cin, cout), dtype=dtype)
    tap = np.empty((n, ho, wo, cin), dtype=x.dtype)
    taps = tap.reshape(n * ho * wo, cin).T
    for i in range(k):
        for j in range(k):
            tap[:] = _tap(xp, i, j, stride, ho, wo)
            np.matmul(taps, rows, out=gw[i, j])
    return gw


def _grad_rows(g: np.ndarray) -> np.ndarray:
    """An (N,C,Ho,Wo) output gradient as contiguous (N*Ho*Wo, C) rows."""
    n, c, ho, wo = g.shape
    return np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, c)


def conv2d_kernel_grad(x: np.ndarray, g: np.ndarray, w_shape: tuple,
                       stride: int = 1, padding: str = "same") -> np.ndarray:
    """dL/dw of conv2d(x, w) for the output gradient g: the same GEMMs as
    the conv backward and the masked conv's kept kernel gradient, so all
    three agree bitwise on identical inputs."""
    n, _, h, wd = x.shape
    k = w_shape[0]
    pads, ho, wo = _conv_geometry(h, wd, k, stride, padding)
    if g.shape != (n, w_shape[3], ho, wo):
        raise ShapeError(f"upstream gradient shape {g.shape} does not match "
                         f"conv output {(n, w_shape[3], ho, wo)}")
    return _kernel_grad(x, _grad_rows(g), k, stride, pads, ho, wo)


def conv2d_raw(x: np.ndarray, w: np.ndarray, stride: int = 1,
               padding: str = "same") -> np.ndarray:
    """Plain-array cross-correlation; the single kernel behind every conv
    forward. x (N,C,H,W), w (K,K,Cin,Cout) -> (N,Cout,Ho,Wo).

    An im2col GEMM: x is copied into a zero-padded channels-last array,
    its K*K tap slices fill a (rows, K*K*Cin) patch matrix (a 1x1
    stride-1 conv uses the padded copy as is), and that matrix is
    multiplied by the kernel reshaped to (K*K*Cin, Cout). Where
    _conv_chunks splits the batch, these steps run chunk by chunk: each
    chunk fills the interior of one padded buffer, whose zero border every
    chunk reuses, and one chunk-sized patch matrix, and its product is
    written to the output in NCHW; the buffers are allocated once per
    call. A batch that is one chunk runs these steps once. The result is
    C-contiguous, in the operands' common dtype, and bitwise that of one
    GEMM over the whole batch.

    Every conv op calls this function once, with the whole batch, by its
    module-level name.
    """
    n, c, h, wd = x.shape
    kh, kw, cin, cout = w.shape
    if kh != kw:
        raise ShapeError(f"only square kernels are supported, got {kh}x{kw}")
    if cin != c:
        raise ShapeError(f"conv input has {c} channels but kernel expects {cin}")
    pads, ho, wo = _conv_geometry(h, wd, kh, stride, padding)
    pt, pb, pl, pr = pads
    dtype = np.result_type(x.dtype, w.dtype)
    kernel = w.reshape(kh * kh * cin, cout).astype(dtype, copy=False)
    chunks = _conv_chunks(n, ho * wo, kh * kh * cin, cout, dtype)
    nb = max(hi - lo for lo, hi in chunks)
    xp = (np.zeros if any(pads) else np.empty)((nb, h + pt + pb, wd + pl + pr, c), dtype)
    direct = kh == 1 and stride == 1
    cols = None if direct else np.empty((nb * ho * wo, kh * kh * cin), dtype=dtype)
    out = np.empty((nb * ho * wo, cout), dtype=dtype)
    y = np.empty((n, cout, ho, wo), dtype=dtype)
    for lo, hi in chunks:
        m = hi - lo
        rows = m * ho * wo
        xp[:m, pt:pt + h, pl:pl + wd] = x[lo:hi].transpose(0, 2, 3, 1)
        if direct:
            patches = xp[:m].reshape(rows, c)
        else:
            patches = cols[:rows]
            patches.reshape(m, ho, wo, kh, kh, c)[:] = _windows(xp[:m], kh, stride, ho, wo)
        np.matmul(patches, kernel, out=out[:rows])
        y[lo:hi] = out[:rows].reshape(m, ho, wo, cout).transpose(0, 3, 1, 2)
    return y


def _conv_input_grad(rows: np.ndarray, w: np.ndarray, x_shape: tuple,
                     stride: int, pads: tuple, ho: int, wo: int) -> np.ndarray:
    """The input gradient of a conv, (N,C,H,W): gcols = rows @ W^T,
    scattered back tap by tap onto a zeroed padded channels-last array
    whose interior is the result in NCHW (a 1x1 stride-1 conv's gcols is
    that array). Where _conv_chunks splits the batch, this runs over the
    forward's chunks of images, in one chunk-sized gcols buffer and one
    padded buffer, zeroed for each chunk, allocated once per call. The
    result is bitwise that of one GEMM over the whole batch (see the
    module docstring for the BLAS this holds on)."""
    n, c, h, wd = x_shape
    k, _, cin, cout = w.shape
    pt, pb, pl, pr = pads
    dtype = np.result_type(rows.dtype, w.dtype)
    kernel_t = w.reshape(k * k * cin, cout).astype(dtype, copy=False).T
    chunks = _conv_chunks(n, ho * wo, k * k * cin, cout, dtype)
    direct = k == 1 and stride == 1
    nb = max(hi - lo for lo, hi in chunks)
    gcols = np.empty((nb * ho * wo, k * k * cin), dtype=dtype)
    gxp = None if direct else np.zeros((nb, h + pt + pb, wd + pl + pr, c), dtype=dtype)
    gx = np.empty(x_shape, dtype=dtype)
    for lo, hi in chunks:
        m = hi - lo
        part = gcols[:m * ho * wo]
        np.matmul(rows[lo * ho * wo:hi * ho * wo], kernel_t, out=part)
        if direct:
            gx[lo:hi] = part.reshape(m, h, wd, c).transpose(0, 3, 1, 2)
        else:
            if lo:  # the first chunk adds onto the buffer's zeros
                gxp[:m] = 0
            _scatter_patches(part, gxp[:m], k, stride, ho, wo)
            gx[lo:hi] = gxp[:m, pt:pt + h, pl:pl + wd].transpose(0, 3, 1, 2)
    return gx


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: str = "same") -> Tensor:
    """2-D cross-correlation, no bias. x: (N,C,H,W), w: (K,K,C_in,C_out).

    The backward works on the output gradient as rows (N*Ho*Wo, Cout):
    gw = patches^T @ rows, with the patch matrix rebuilt rather than kept
    from the forward, or tap by tap where it would be large (_kernel_grad),
    and gx = rows @ W^T scattered back tap by tap, over the forward's
    chunks of images (_conv_input_grad). The closure keeps x's data only
    if w needs a gradient, and w's only if x does.
    """
    _check_same_dtype(x, w)
    _, _, h, wd = x.shape
    k = w.shape[0]
    y = conv2d_raw(x.data, w.data, stride, padding)
    pads, ho, wo = _conv_geometry(h, wd, k, stride, padding)
    x_shape = x.shape
    x_data = x.data if w.requires_grad else None
    w_data = w.data if x.requires_grad else None

    def bwd(g: np.ndarray):
        gx = gw = None
        rows = _grad_rows(g)
        if x_data is not None:
            gw = _kernel_grad(x_data, rows, k, stride, pads, ho, wo)
        if w_data is not None:
            gx = _conv_input_grad(rows, w_data, x_shape, stride, pads, ho, wo)
        return gx, gw

    return _make(y, "conv2d", (x, w), bwd)


class KernelGrad:
    """Where masked_conv2d's backward leaves the kernel gradient of its
    unmasked output gradient; value is None until a backward reaches it."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Optional[np.ndarray] = None


def masked_conv2d(x: Tensor, w: Tensor, mask: np.ndarray, stride: int = 1,
                  padding: str = "same") -> tuple[Tensor, KernelGrad]:
    """conv2d(x, w) with the output channels that mask disables multiplied
    by zero, as one op. Returns the output and the KernelGrad its
    backward fills in.

    The backward runs conv2d's kernel gradient (_kernel_grad) on the
    *unmasked* output gradient g and keeps the result G (K,K,Cin,Cout) in the
    KernelGrad. sum over (kh, kw, cin) of w * G is then, for any kernel w,
    the straight-through gradient of a per-channel multiplier on
    conv2d(x, w) (see masking.surrogate_gamma_grad). The weight gradient
    is G with the pruned columns set to +0.0, the input gradient is that
    of the masked output gradient: both are those of conv2d followed by a
    channelwise multiply by the 0/1 mask. Under an all-ones mask the
    output is the conv's own and G is the weight gradient itself.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1 or mask.shape[0] != w.shape[3]:
        raise ShapeError(f"mask length {mask.shape} does not match "
                         f"{w.shape[3]} output filters")
    _check_same_dtype(x, w)
    _, _, h, wd = x.shape
    k = w.shape[0]
    y = conv2d_raw(x.data, w.data, stride, padding)
    pads, ho, wo = _conv_geometry(h, wd, k, stride, padding)
    pruned = not mask.all()
    scale = mask.astype(x.dtype)
    if pruned:
        y *= scale.reshape(1, -1, 1, 1)
    x_shape, x_data = x.shape, x.data
    w_data = w.data if x.requires_grad else None
    need_w = w.requires_grad
    kernel_grad = KernelGrad()

    def bwd(g: np.ndarray):
        gx = gw = None
        rows = _grad_rows(g)
        kg = kernel_grad.value = _kernel_grad(x_data, rows, k, stride, pads, ho, wo)
        if need_w:
            gw = np.where(mask, kg, kg.dtype.type(0)) if pruned else kg
        if w_data is not None:
            if pruned:
                rows = rows * scale  # rows may be a view of g
            gx = _conv_input_grad(rows, w_data, x_shape, stride, pads, ho, wo)
        return gx, gw

    return _make(y, "masked_conv2d", (x, w), bwd), kernel_grad


# Bytes of scratch one chunk of images may take in the depthwise kernels:
# a padded input or input gradient, the output gradient or output, and
# the tap products. Each tap reads the whole chunk twice, so the chunk is
# sized to stay in a 2 MB L2 cache.
_DW_CHUNK_BYTES = 1 << 20

# A cache line. A buffer that malloc places off a line boundary makes
# every SIMD load of it straddle two lines, which slows an L2-resident
# loop by up to 2x, and where malloc places it varies from run to run.
_LINE_BYTES = 64


def _line_aligned(shape: tuple, dtype, zero: bool = False) -> np.ndarray:
    """A C-contiguous array of shape and dtype whose data starts on a
    cache-line boundary; zero-filled if zero, else uninitialised."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = (np.zeros if zero else np.empty)(nbytes + _LINE_BYTES, dtype=np.uint8)
    start = -raw.ctypes.data % _LINE_BYTES
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _dw_images(n: int, image_values: int, dtype) -> int:
    """How many images make one depthwise chunk, whose scratch holds
    image_values values of dtype per image: as many as fit in
    _DW_CHUNK_BYTES, at least one, at most n."""
    image_bytes = max(1, image_values * np.dtype(dtype).itemsize)
    return max(1, min(n, _DW_CHUNK_BYTES // image_bytes))


def _dw_taps(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> list:
    """The K*K tap slices of a padded channels-last chunk (N,H',W',C), in
    (i, j) order. At stride 1 each is an (N, Ho, Wo*C) view, so an
    elementwise op over it runs Wo*C values per inner loop rather than C;
    at other strides it is _tap's (N, Ho, Wo, C) view."""
    if stride != 1:
        return [_tap(xp, i, j, stride, ho, wo) for i in range(k) for j in range(k)]
    n, hp, wp, c = xp.shape
    rows = xp.reshape(n, hp, wp * c)
    return [rows[:, i:i + ho, j * c:(j + wo) * c] for i in range(k) for j in range(k)]


def _dw_weights(w: np.ndarray, stride: int, wo: int) -> np.ndarray:
    """Row t of the result multiplies tap t of _dw_taps: w[i, j] itself,
    or at stride 1 w[i, j] repeated along the output row."""
    k, _, c = w.shape
    w = w.reshape(k * k, c)
    reps = wo if stride == 1 else 1
    rows = _line_aligned((k * k, reps, c), w.dtype)
    rows[:] = w[:, None]
    return rows.reshape(k * k, reps * c)


def _dw_forward(x: np.ndarray, w: np.ndarray, stride: int, pads: tuple,
                ho: int, wo: int, dtype) -> np.ndarray:
    """The sum over taps (i, j) of _tap(x padded, i, j) * w[i, j], in NCHW,
    one chunk of images at a time: each chunk is written into the interior
    of one padded channels-last buffer, whose zero border every chunk
    reuses, then summed tap by tap into an output-sized buffer through a
    scratch of the same size."""
    n, c, h, wd = x.shape
    k = w.shape[0]
    pt, pb, pl, pr = pads
    hp, wp = h + pt + pb, wd + pl + pr
    nb = _dw_images(n, (hp * wp + 2 * ho * wo) * c, dtype)
    xp = _line_aligned((nb, hp, wp, c), dtype, zero=True)
    acc = _line_aligned((nb, ho, wo, c), dtype)
    tmp = _line_aligned((nb, ho, wo, c), dtype)
    weights = _dw_weights(w, stride, wo)
    y = np.empty((n, c, ho, wo), dtype=dtype)
    for lo in range(0, n, nb):
        m = min(nb, n - lo)
        xp[:m, pt:pt + h, pl:pl + wd] = x[lo:lo + m].transpose(0, 2, 3, 1)
        taps = _dw_taps(xp[:m], k, stride, ho, wo)
        out, scratch = (a[:m].reshape(taps[0].shape) for a in (acc, tmp))
        np.multiply(taps[0], weights[0], out=out)
        for tap, wt in zip(taps[1:], weights[1:]):
            np.multiply(tap, wt, out=scratch)
            out += scratch
        y[lo:lo + m] = acc[:m].transpose(0, 3, 1, 2)
    return y


def _dw_kernel_grad(x: np.ndarray, g: np.ndarray, k: int, stride: int,
                    pads: tuple) -> np.ndarray:
    """gw[i, j] = the sum of _tap(x padded, i, j) * g over the batch and
    the output pixels, (K,K,C), one chunk of images at a time.

    For kernel row i, the K products of taps (i, 0..K-1) sit side by side
    in one (1 + rows, K*C) buffer, rows = images * Ho * Wo: the taps of a
    row read K*C contiguous values of the padded input per output pixel,
    against g repeated K times. The buffer is reduced over its rows in one
    call, and numpy sums that axis row by row, in order. Row 0 carries the
    previous chunks' sums into the next chunk's sum, so every sum adds its
    terms in the same order as one sum over the whole batch. A single
    channel is the exception: one pass sums each tap's products as one
    contiguous run, pairwise, so with C == 1 the batch is one chunk and
    each tap's products are summed as such a run."""
    n, c, h, wd = x.shape
    _, _, ho, wo = g.shape
    if n == 0:
        return np.zeros((k, k, c), dtype=g.dtype)
    pt, pb, pl, pr = pads
    hp, wp = h + pt + pb, wd + pl + pr
    nb = n if c == 1 else _dw_images(n, (hp * wp + 2 * k * ho * wo) * c, g.dtype)
    xp = _line_aligned((nb, hp, wp, c), x.dtype, zero=True)
    gk = _line_aligned((nb, ho, wo, k, c), g.dtype)
    prods = _line_aligned((1 + nb * ho * wo, k * c), g.dtype)
    s0, s1, s2, s3 = xp.strides
    sums = [None] * k
    for lo in range(0, n, nb):
        m = min(nb, n - lo)
        rows = m * ho * wo
        xp[:m, pt:pt + h, pl:pl + wd] = x[lo:lo + m].transpose(0, 2, 3, 1)
        gk[:m] = g[lo:lo + m].transpose(0, 2, 3, 1)[:, :, :, None, :]
        out = prods[1:1 + rows].reshape(m, ho, wo, k * c)
        for i in range(k):
            # the K*C input values that taps (i, 0..K-1) read per output pixel
            window = np.lib.stride_tricks.as_strided(
                xp[:m, i:], shape=(m, ho, wo, k * c),
                strides=(s0, stride * s1, stride * s2, s3), writeable=False)
            np.multiply(window, gk[:m].reshape(m, ho, wo, k * c), out=out)
            if c == 1:
                sums[i] = np.ascontiguousarray(prods[1:].T).sum(axis=1)
            elif sums[i] is None:
                sums[i] = prods[1:1 + rows].sum(axis=0)
            else:
                prods[0] = sums[i]
                sums[i] = prods[:1 + rows].sum(axis=0)
    return np.stack(sums).reshape(k, k, c)


def _dw_input_grad(g: np.ndarray, w: np.ndarray, x_shape: tuple, stride: int,
                   pads: tuple) -> np.ndarray:
    """The (N,C,H,W) input gradient, one chunk of images at a time: each
    tap adds g * w[i, j] onto the slice of a zeroed padded channels-last
    buffer that it read, and the buffer's interior goes back to NCHW."""
    n, c, h, wd = x_shape
    _, _, ho, wo = g.shape
    k = w.shape[0]
    pt, pb, pl, pr = pads
    hp, wp = h + pt + pb, wd + pl + pr
    nb = _dw_images(n, (hp * wp + 2 * ho * wo) * c, g.dtype)
    gxp = _line_aligned((nb, hp, wp, c), g.dtype)
    gt = _line_aligned((nb, ho, wo, c), g.dtype)
    tmp = _line_aligned((nb, ho, wo, c), g.dtype)
    weights = _dw_weights(w, stride, wo)
    gx = np.empty(x_shape, dtype=g.dtype)
    for lo in range(0, n, nb):
        m = min(nb, n - lo)
        gxp[:m] = 0
        gt[:m] = g[lo:lo + m].transpose(0, 2, 3, 1)
        windows = _dw_taps(gxp[:m], k, stride, ho, wo)
        src, scratch = (a[:m].reshape(windows[0].shape) for a in (gt, tmp))
        for window, wt in zip(windows, weights):
            np.multiply(src, wt, out=scratch)
            window += scratch
        gx[lo:lo + m] = gxp[:m, pt:pt + h, pl:pl + wd].transpose(0, 3, 1, 2)
    return gx


def depthwise_conv2d_raw(x: np.ndarray, w: np.ndarray, stride: int = 1,
                         padding: str = "same") -> np.ndarray:
    """Per-channel cross-correlation. x (N,C,H,W), w (K,K,C); channel c of
    the output only sees channel c of the input.

    Computed as a sum over the K*K kernel taps of shifted slices,
    y += x[:, :, i::s, j::s] * w[i, j], on a padded channels-last copy of
    x, so that each tap's slice is a run of Wo*C values per row. Each tap
    reads and writes the whole output, so the batch is run in chunks of
    images whose padded input, output and scratch fit in L2 cache
    (_DW_CHUNK_BYTES): one chunk's buffers are allocated once, on a cache
    line, and reused by every chunk. The result is C-contiguous, in the
    operands' common dtype, and does not depend on the chunk size.
    """
    n, c, h, wd = x.shape
    kh, kw, cw = w.shape
    if kh != kw:
        raise ShapeError(f"only square kernels are supported, got {kh}x{kw}")
    if cw != c:
        raise ShapeError(f"input has {c} channels but kernel expects {cw}")
    pads, ho, wo = _conv_geometry(h, wd, kh, stride, padding)
    return _dw_forward(x, w, stride, pads, ho, wo, np.result_type(x.dtype, w.dtype))


def depthwise_conv2d(x: Tensor, w: Tensor, stride: int = 1,
                     padding: str = "same") -> Tensor:
    """Depthwise conv, no bias. x: (N,C,H,W), w: (K,K,C). The backward
    runs in chunks of images as the forward does (_dw_kernel_grad,
    _dw_input_grad), and its gradients do not depend on the chunk size."""
    _check_same_dtype(x, w)
    _, _, h, wd = x.shape
    kh = w.shape[0]
    y = depthwise_conv2d_raw(x.data, w.data, stride, padding)
    pads, _, _ = _conv_geometry(h, wd, kh, stride, padding)
    x_shape = x.shape
    x_data = x.data if w.requires_grad else None
    w_data = w.data if x.requires_grad else None

    def bwd(g: np.ndarray):
        gx = gw = None
        if x_data is not None:
            gw = _dw_kernel_grad(x_data, g, kh, stride, pads)
        if w_data is not None:
            gx = _dw_input_grad(g, w_data, x_shape, stride, pads)
        return gx, gw

    return _make(y, "depthwise_conv2d", (x, w), bwd)


def take(x: Tensor, index: np.ndarray, axis: int) -> Tensor:
    """The slices of x at the given unique positions along one axis
    (np.take). The gradient is g written at those positions into zeros.
    A conv kernel's rows and columns go through gather_kernel instead:
    numpy writes one index on the last axis of a large array value by
    value, several times slower than on any other axis."""
    index = np.asarray(index, dtype=np.intp)
    axis = range(x.data.ndim)[axis]  # a negative axis counts from the end
    y = np.take(x.data, index, axis=axis)
    shape = x.shape

    def bwd(g: np.ndarray):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[(slice(None),) * axis + (index,)] = g
        return (gx,)

    return _make(y, "take", (x,), bwd)


def gather_kernel(w: Tensor, rows: Optional[np.ndarray],
                  cols: Optional[np.ndarray] = None) -> Tensor:
    """A kernel's input rows (axis 2) and then its output columns (axis
    3) at the given unique positions, None keeping the whole axis: a
    conv kernel's kept part, or with cols None a depthwise kernel's
    channels. The values are those of np.take along each axis in turn.

    The backward writes g once into a zeroed kernel-sized array, so its
    peak is one kernel plus g, where a take per axis would build an
    intermediate copy and scatter twice. Columns are written through a
    (rows, cols) index pair even when every row is kept: numpy writes
    that several times faster than one index on the last axis."""
    y = w.data
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        y = np.take(y, rows, axis=2)
    if cols is not None:
        cols = np.asarray(cols, dtype=np.intp)
        y = np.take(y, cols, axis=3)
    shape, dtype = w.shape, w.dtype

    def bwd(g: np.ndarray):
        gw = np.zeros(shape, dtype=dtype)
        r = np.arange(shape[2]) if rows is None else rows
        if cols is None:
            gw[:, :, r] = g
        else:
            gw[:, :, r[:, None], cols] = g
        return (gw,)

    return _make(y, "gather_kernel", (w,), bwd)


def place(x: Tensor, index: np.ndarray, size: int, axis: int) -> Tensor:
    """x's slices placed at the given positions along one axis of a zero
    tensor with size entries there; the inverse of take. The gradient
    gathers those positions back."""
    index = np.asarray(index, dtype=np.intp)
    axis = range(x.data.ndim)[axis]  # a negative axis counts from the end
    shape = x.shape[:axis] + (size,) + x.shape[axis + 1:]
    y = np.zeros(shape, dtype=x.dtype)
    y[(slice(None),) * axis + (index,)] = x.data

    def bwd(g: np.ndarray):
        return (np.take(g, index, axis=axis),)

    return _make(y, "place", (x,), bwd)


# ---------------------------------------------------------------------------
# dense / normalization / activations / pooling
# ---------------------------------------------------------------------------

def dense(x: Tensor, w: Tensor) -> Tensor:
    """Matrix product (N,D) @ (D,M), no bias."""
    _check_same_dtype(x, w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense shapes do not chain: {x.shape} @ {w.shape}")
    y = x.data @ w.data
    x_data = x.data if w.requires_grad else None
    w_data = w.data if x.requires_grad else None

    def bwd(g: np.ndarray):
        gx = g @ w_data.T if w_data is not None else None
        gw = x_data.T @ g if x_data is not None else None
        return gx, gw

    return _make(y, "dense", (x, w), bwd)


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of an (N,C,H,W) array: the batch axis first (N-1
    whole-array adds), then each channel's H*W run. Summing over axes
    (0, 2, 3) in one call is several times slower on small maps. H*W is
    spelled out so that an input with no channels reshapes too."""
    return a.sum(axis=0).reshape(a.shape[1], a.shape[2] * a.shape[3]).sum(axis=1)


def _spread(v: np.ndarray, shape: tuple) -> np.ndarray:
    """A per-channel vector repeated over H*W, as a (1,C,H,W) array. An
    elementwise op against it broadcasts over the batch axis only, in runs
    of C*H*W values; against v.reshape(1,C,1,1) the runs are H*W long,
    which on a 2x2 map costs more than the arithmetic."""
    _, c, h, w = shape
    return np.repeat(v, h * w).reshape(1, c, h, w)


def _put(a: np.ndarray, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A copy of a with values written at index."""
    out = a.copy()
    out[index] = values
    return out


def batch_norm(x: Tensor, state: BatchNormState, mode: str = "train",
               momentum: float = 0.9, epsilon: float = 1e-5,
               index: Optional[np.ndarray] = None) -> Tensor:
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes by batch statistics and moves the running stats
    by an exponential average (running = momentum*running + (1-m)*batch);
    eval mode normalizes by the running stats. Affine transform applied in
    both modes.

    With index, x holds only the state's channels at those positions:
    gamma and beta are gathered on the tape (their gradients scatter back
    into zeros), and train mode writes the running statistics of those
    channels alone.

    Every per-channel reduction sums the batch axis first and then each
    channel's H*W values. The variance is the biased mean of the squared
    centred input xc = x - mean, and y = xc * (gamma * inv_std) + beta
    with inv_std = 1/sqrt(var + epsilon). Neither mode keeps anything
    beyond x and per-channel vectors for the backward. The train backward
    needs only the two reductions gbeta = sum(g) and ggamma = sum(g *
    xhat), xhat = xc * inv_std:
    gx = gamma * inv_std * (g - gbeta/m - xhat * ggamma/m), m = N*H*W.
    It recentres x into its one full-size buffer twice, once for ggamma
    and once for gx, rather than keep a centred copy of x alive until the
    sweep reaches it.
    """
    channels = state.channels if index is None else len(index)
    if x.data.ndim != 4 or x.shape[1] != channels:
        raise ShapeError(f"batch_norm expects (N,{channels},H,W), got {x.shape}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    gamma, beta = state.gamma.value, state.beta.value
    running_mean, running_var = state.running_mean, state.running_var
    if index is not None:
        gamma, beta = take(gamma, index, axis=0), take(beta, index, axis=0)
        running_mean, running_var = running_mean[index], running_var[index]
    _check_same_dtype(x, gamma, beta)
    shape = x.shape
    m = shape[0] * shape[2] * shape[3]

    if mode == "train":
        mu = _channel_sum(x.data) / m
        y = x.data - _spread(mu, shape)
        var = _channel_sum(np.multiply(y, y)) / m
        new_mean = (momentum * running_mean + (1.0 - momentum) * mu).astype(x.dtype)
        new_var = (momentum * running_var + (1.0 - momentum) * var).astype(x.dtype)
        if index is None:
            state.running_mean, state.running_var = new_mean, new_var
        else:
            state.running_mean = _put(state.running_mean, index, new_mean)
            state.running_var = _put(state.running_var, index, new_var)
    else:
        mu, var = running_mean, running_var
        y = np.subtract(x.data, _spread(mu, shape))
    inv_std = 1.0 / np.sqrt(var + epsilon)
    k = gamma.data * inv_std
    y *= _spread(k, shape)
    y += _spread(beta.data, shape)
    x_data = x.data
    need_x, need_gamma, need_beta = (x.requires_grad, gamma.requires_grad,
                                     beta.requires_grad)

    def bwd_train(g: np.ndarray):
        buf = np.subtract(x_data, _spread(mu, shape))
        buf *= g
        ggamma = _channel_sum(buf) * inv_std
        gbeta = _channel_sum(g)
        gx = None
        if need_x:
            # g - gbeta/m - xhat * ggamma/m, then times gamma * inv_std
            np.subtract(x_data, _spread(mu, shape), out=buf)
            buf *= _spread(-inv_std * ggamma / m, shape)
            buf -= _spread(gbeta / m, shape)
            buf += g
            buf *= _spread(k, shape)
            gx = buf
        return (gx, ggamma if need_gamma else None,
                gbeta if need_beta else None)

    def bwd_eval(g: np.ndarray):
        ggamma = gbeta = gx = None
        if need_gamma:
            buf = np.subtract(x_data, _spread(mu, shape))
            buf *= g
            ggamma = _channel_sum(buf) * inv_std
        if need_beta:
            gbeta = _channel_sum(g)
        if need_x:
            gx = np.multiply(g, _spread(k, shape))
        return gx, ggamma, gbeta

    return _make(y, "batch_norm", (x, gamma, beta),
                 bwd_train if mode == "train" else bwd_eval)


def relu(x: Tensor) -> Tensor:
    """max(x, 0) as np.fmax(x, 0): NaN and -0.0 both give +0.0. The
    gradient passes where the output is positive (g * (y > 0))."""
    y = np.fmax(x.data, x.dtype.type(0))

    def bwd(g: np.ndarray):
        return (g * (y > 0),)

    return _make(y, "relu", (x,), bwd)


def _pool_taps(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> list:
    """The K*K strided slices of an NCHW array that the pooling taps read,
    in scan order: tap i*k + j of output pixel (a, b) is xp[a*s + i, b*s + j]."""
    return [xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
            for i in range(k) for j in range(k)]


def _first_max_tap(taps: list, y: np.ndarray) -> np.ndarray:
    """For each output pixel, the first tap in scan order that holds the
    window maximum y (or, where y is NaN, the first NaN), in the smallest
    unsigned type that holds every tap index (uint8 up to 16x16 windows).

    Taps are matched in reverse scan order, each match overwriting the
    index by unsigned arithmetic (idx -= match * (idx - t), modulo the
    type's range), so the first match is the one that stays; masked
    writes are far slower."""
    dtype = np.min_scalar_type(len(taps) - 1)
    idx = np.zeros(y.shape, dtype=dtype)
    match = np.empty(y.shape, dtype=bool)
    step = np.empty(y.shape, dtype=dtype)
    y_nan = np.isnan(y)
    if not y_nan.any():
        y_nan = None
    for t in range(len(taps) - 1, -1, -1):
        np.equal(taps[t], y, out=match)
        if y_nan is not None:
            match |= np.isnan(taps[t]) & y_nan
        np.subtract(idx, dtype.type(t), out=step)
        step *= match
        idx -= step
    return idx


def _has_negative_zero(a: np.ndarray) -> bool:
    """Whether a holds a -0.0: its bit pattern is the smallest signed
    integer of the same width, which no other float value has."""
    ints = a.view(np.dtype(f"i{a.itemsize}"))
    return a.size > 0 and ints.min() == np.iinfo(ints.dtype).min


def max_pool(x: Tensor, k: int, stride: int, padding: str = "valid") -> Tensor:
    """Max pooling; the gradient goes to the first maximum in scan order.

    'valid' drops ragged edges; 'same' pads with -inf so padded cells can
    never win a window.

    The forward is a loop over the K*K taps, y = maximum(y, tap): a window
    holding a NaN gives NaN. Ties between -0.0 and +0.0 keep the first in
    scan order (np.maximum leaves that choice open, so an input holding a
    -0.0 takes its values from the first-maximum index instead). Only when
    x requires grad is that index, one byte per output, kept for the
    backward, which adds g tap by tap onto the input pixels that won
    (in reverse scan order, so overlapping windows sum in the order of the
    windows). A non-finite output gradient reaches every pixel of its
    window, as in relu's g * mask.
    """
    n, c, h, w = x.shape
    if padding == "valid" and (k > h or k > w):
        raise ShapeError(f"{k}x{k} pooling window does not fit {h}x{w} input")
    (pt, pb, pl, pr), ho, wo = _conv_geometry(h, w, k, stride, padding)
    xp = x.data
    if pt or pb or pl or pr:
        xp = np.full((n, c, h + pt + pb, w + pl + pr), -np.inf, dtype=x.dtype)
        xp[:, :, pt:pt + h, pl:pl + w] = x.data
    padded_shape = xp.shape
    taps = _pool_taps(xp, k, stride, ho, wo)
    y = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(y, tap, out=y)
    negative_zero = _has_negative_zero(x.data)
    idx = None
    if negative_zero or (_grad_enabled and x.requires_grad):
        idx = _first_max_tap(taps, y)
    if negative_zero:
        for t, tap in enumerate(taps):
            np.copyto(y, tap, where=idx == t)

    def bwd(g: np.ndarray):
        gxp = np.zeros(padded_shape, dtype=g.dtype)
        windows = _pool_taps(gxp, k, stride, ho, wo)
        picked = np.empty(g.shape, dtype=g.dtype)
        for t in range(k * k - 1, -1, -1):
            np.multiply(g, idx == t, out=picked)
            windows[t] += picked
        # no copy unless there is padding to cut off
        return (np.ascontiguousarray(gxp[:, :, pt:pt + h, pl:pl + w]),)

    return _make(y, "max_pool", (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: (N,C,H,W) -> (N,C)."""
    shape = x.shape
    hw = shape[2] * shape[3]
    y = x.data.mean(axis=(2, 3))

    def bwd(g: np.ndarray):
        return (np.broadcast_to(g[:, :, None, None] / hw, shape).copy(),)

    return _make(y, "global_avg_pool", (x,), bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    y = x.data.reshape(shape)
    x_shape = x.shape

    def bwd(g: np.ndarray):
        return (g.reshape(x_shape),)

    return _make(y, "reshape", (x,), bwd)


def flatten(x: Tensor) -> Tensor:
    return reshape(x, (x.shape[0], -1))


# ---------------------------------------------------------------------------
# arithmetic used by loss composition
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b. Either operand may have batch axis 1 where the other has N:
    it is added to every row, and its gradient is summed over axis 0."""
    _check_same_dtype(a, b)
    rows = a.data.ndim == b.data.ndim > 0 and a.shape[1:] == b.shape[1:] \
        and 1 in (a.shape[0], b.shape[0])
    if a.shape != b.shape and not rows:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    y = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def grad_for(shape: tuple, g: np.ndarray) -> np.ndarray:
        return g if shape == g.shape else g.sum(axis=0, keepdims=True)

    def bwd(g: np.ndarray):
        return grad_for(a_shape, g), grad_for(b_shape, g)

    return _make(y, "add", (a, b), bwd)


def add_const(x: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=x.dtype)
    y = x.data + c
    if y.shape != x.shape:
        raise ShapeError(f"constant of shape {c.shape} broadcasts {x.shape} upward")

    def bwd(g: np.ndarray):
        return (g,)

    return _make(y, "add_const", (x,), bwd)


def mul_const(x: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=x.dtype)
    y = x.data * c
    if y.shape != x.shape:
        raise ShapeError(f"constant of shape {c.shape} broadcasts {x.shape} upward")

    def bwd(g: np.ndarray):
        return (g * c,)

    return _make(y, "mul_const", (x,), bwd)


def scale(x: Tensor, s: float) -> Tensor:
    return mul_const(x, x.data.dtype.type(s))


def square(x: Tensor) -> Tensor:
    x_data = x.data
    y = x_data * x_data

    def bwd(g: np.ndarray):
        return (2.0 * x_data * g,)

    return _make(y, "square", (x,), bwd)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    y = np.asarray(x.data.sum(), dtype=x.dtype)
    shape, dtype = x.shape, x.dtype

    def bwd(g: np.ndarray):
        return (np.full(shape, g, dtype=dtype),)

    return _make(y, "sum", (x,), bwd)


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of an (N,K) array, max-shifted; the one
    expression of every log-softmax here and of distill's teacher side."""
    z = x - x.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax of a (N,K) tensor, max-shifted for stability."""
    if x.data.ndim != 2:
        raise ShapeError(f"log_softmax expects (N,K), got {x.shape}")
    y = _log_softmax_rows(x.data)

    def bwd(g: np.ndarray):
        p = np.exp(y)
        return (g - p * g.sum(axis=1, keepdims=True),)

    return _make(y, "log_softmax", (x,), bwd)


def softmax_cross_entropy(logits: Tensor, labels: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean cross-entropy between softmax(logits) and one-hot label rows.

    Labels are constants; each row must sum to 1.
    """
    lab = labels.data if isinstance(labels, Tensor) else np.asarray(labels)
    if lab.shape != logits.shape:
        raise ShapeError(f"labels {lab.shape} do not match logits {logits.shape}")
    row_sums = lab.sum(axis=1)
    bad = np.nonzero(np.abs(row_sums - 1.0) > 1e-5)[0]
    if bad.size:
        raise ValueError(f"label row {bad[0]} sums to {row_sums[bad[0]]!r}, expected 1")
    n = logits.shape[0]
    logp = _log_softmax_rows(logits.data)
    y = np.asarray(-(lab * logp).sum() / n, dtype=logits.dtype)

    def bwd(g: np.ndarray):
        p = np.exp(logp)
        return ((p - lab) * (g / n),)

    return _make(y, "softmax_cross_entropy", (logits,), bwd)
