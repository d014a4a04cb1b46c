"""Reverse-mode automatic differentiation on numpy arrays.

A ``Tape`` records every operation executed while it is active; ``Tape.backward``
replays the records in reverse and accumulates vector-Jacobian products into the
``grad`` buffers of the participating leaf tensors.  All arithmetic is float64.
Outside an active tape the same operations run as plain numpy forward passes.

Non-finite values end as ``NumericError``.  ``Tensor(...)`` and every op that
is not recorded on a tape scan their data, so outside a tape an op raises as
soon as it produces a NaN or inf.  On a tape, a step fails when a non-finite
value reaches the loss or a leaf gradient: ``Tape.backward`` scans those
before it writes any ``grad``, then names the op at fault with the same
message a scan of every op would give, "non-finite values in output of
<kind>" for the first recorded output that is not finite, otherwise
"non-finite values in gradient of <kind>" for the first such vjp result.

``branches`` runs terms that do not depend on each other, such as the outcome
model's nets, concurrently, one per CPU the process may use.  Each branch is
recorded on a tape of its own, and ``Tape.backward`` walks the branches'
records concurrently too, with every output and gradient byte unchanged.
numpy's OpenBLAS, and scipy's once ``scipy_linalg`` loads it, are held at
one thread, so concurrent branches do not share cores and the bytes do not
depend on the CPU count; a thread count the user sets is left alone.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError, check


class _ThreadState(threading.local):
    """Each thread's stack of active tapes, and whether it is running a branch."""

    def __init__(self):
        self.tapes: list["Tape"] = []
        self.in_branch = False


_STATE = _ThreadState()


def _keep_freed_arrays_in_heap() -> None:
    """Stop glibc from handing each training step's arrays back to the OS.

    Op outputs and vjp temporaries are fresh ~1 MB arrays.  Under glibc's
    dynamic thresholds the heap top freed with a step's tape is trimmed, and
    the next step faults it in again: in every other line-graph training run,
    about 5,200 minor faults (~20 MB) per step, a quarter of its wall time.
    Arrays under 8 MiB now come from the heap and up to 64 MiB of free heap
    top stays mapped.  Both are needed: setting either one switches off the
    dynamic rule, so the trim threshold alone leaves every array over 128 KiB
    mmapped (~9,500 faults per step).  At a 4 MiB mmap threshold a ~4 MB line
    estimation buffer is still mapped afresh on every call.  Arithmetic is
    unchanged.  On a libc without ``mallopt`` this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, 8 << 20)   # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


_keep_freed_arrays_in_heap()

# OpenBLAS libraries whose thread count _pin_blas_threads has set
_PINNED: set = set()
_SCIPY_LINALG = None


def _pin_blas_threads() -> None:
    """Hold every OpenBLAS this process has loaded at one thread.

    With two threads, OpenBLAS runs the line MLP's 500 x 256 x 256 GEMMs at
    half speed and rounds some sums differently, so bytes would depend on
    the CPU count; one thread per call also leaves the other CPUs to
    ``branches``.  numpy and scipy each load their own copy of the
    scipy-openblas build, found here in this process's ``/proc/self/maps``.
    When the user sets ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``, or
    on another BLAS or platform, this does nothing.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"):
        return
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in fh)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5])}
    except OSError:
        return
    for path in sorted(paths - _PINNED):
        _PINNED.add(path)
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = (ctypes.c_int,)
                setter.restype = None
                setter(1)
                break


_pin_blas_threads()


def scipy_linalg():
    """``scipy.linalg``, imported on first use, with its OpenBLAS pinned as numpy's is."""
    global _SCIPY_LINALG
    if _SCIPY_LINALG is None:
        import scipy.linalg

        _pin_blas_threads()
        _SCIPY_LINALG = scipy.linalg
    return _SCIPY_LINALG


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {where}")


class Tensor:
    """A float64 array with an optional gradient buffer.

    Leaves are built directly; op outputs are built by the op functions below.
    ``grad`` accumulates additively across backward passes until cleared.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor data")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    """Wrap arrays and scalars as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


class _Node:
    __slots__ = ("kind", "inputs", "output", "vjp")

    def __init__(self, kind: str, inputs: tuple, output: Tensor, vjp: Callable):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


class Tape:
    """Ordered record of operations, used as a context manager.

    Only the innermost active tape of a thread records.  ``backward`` seeds the
    scalar loss with gradient 1 and walks the records last to first.  The
    records of each ``branches`` call sit in ``nodes`` branch after branch, and
    ``groups`` keeps each call's (start, stop) node range per branch.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.groups: list[list[tuple[int, int]]] = []

    def __enter__(self) -> "Tape":
        _STATE.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _STATE.tapes.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted by unbalanced enter/exit")

    def backward(self, loss: Tensor) -> None:
        """Add d(loss)/d(leaf) to ``grad``, after scanning the loss and every leaf gradient."""
        if loss.data.shape != ():
            raise ContractError("backward requires a scalar loss")
        try:
            _check_finite(loss.data, "loss")
            grads = self._propagate(loss)
            for g in grads.values():
                _check_finite(g, "leaf gradient")
        except NumericError:
            self._raise_culprit(loss)
            raise
        # Flush whatever remains: these are leaves (never produced by a node).
        for node in self.nodes:
            for tensor in node.inputs:
                self._flush(tensor, grads)
        self._flush(loss, grads)

    def _propagate(self, loss: Tensor) -> dict:
        """Run every vjp last to first, each group's branches concurrently;
        return the leaf gradients by tensor id."""
        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        stop = len(self.nodes)
        for ranges in reversed(self.groups):
            _walk(self.nodes[ranges[-1][1]:stop], grads)
            self._walk_group(ranges, grads)
            stop = ranges[0][0]
        _walk(self.nodes[:stop], grads)
        return grads

    def _walk_group(self, ranges: list, grads: dict) -> None:
        """Walk each branch's nodes on its own gradient dict, all concurrently.

        A branch starts from the gradients its nodes' outputs have received.
        What is left in its dict afterwards, the gradients of tensors from
        outside the branch, is added into ``grads`` last branch first, the
        order in which a walk of the flat node list would add them.
        """
        parts = []
        for start, stop in ranges:
            part = {}
            for node in self.nodes[start:stop]:
                g = grads.pop(id(node.output), None)
                if g is not None:
                    part[id(node.output)] = g
            parts.append(part)
        _concurrently([functools.partial(_walk, self.nodes[start:stop], part)
                       for (start, stop), part in zip(ranges, parts)])
        for part in reversed(parts):
            for key, g in part.items():
                grads[key] = grads[key] + g if key in grads else g

    def _raise_culprit(self, loss: Tensor) -> None:
        """Raise what a scan after every op would have raised.

        That is the first non-finite recorded output, else the first non-finite
        vjp result; vjps are pure, so running them again gives the same values.
        The scan is one walk of the flat node list, groups and all.
        """
        for node in self.nodes:
            _check_finite(node.output.data, f"output of {node.kind}")
        _walk(self.nodes, {id(loss): np.ones((), dtype=np.float64)}, scan=True)

    @staticmethod
    def _flush(tensor: Tensor, grads: dict) -> None:
        g = grads.pop(id(tensor), None)
        if g is None:
            return
        if tensor.grad is None:
            # a new array (add hands one g to two leaves) with the bits of
            # zeros + g, so -0.0 becomes +0.0
            tensor.grad = g + 0.0
        else:
            tensor.grad += g


def _walk(nodes: list, grads: dict, scan: bool = False) -> None:
    """Run the vjps of ``nodes`` last to first, accumulating into ``grads``.

    A node whose output has no gradient is skipped.  With ``scan``, each vjp
    result is checked to be finite.
    """
    for node in reversed(nodes):
        out_grad = grads.pop(id(node.output), None)
        if out_grad is None:
            continue
        in_grads = node.vjp(out_grad)
        for tensor, g in zip(node.inputs, in_grads):
            if g is None or not tensor.requires_grad:
                continue
            if scan:
                _check_finite(g, f"gradient of {node.kind}")
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g


def _record(kind: str, inputs: tuple, out_data: np.ndarray, vjp: Callable) -> Tensor:
    """Wrap an op output: taped when a tape is active and an input needs a gradient,
    scanned otherwise."""
    needs = any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs
    out.grad = None
    tapes = _STATE.tapes
    if tapes and needs:
        tapes[-1].nodes.append(_Node(kind, inputs, out, vjp))
    else:
        _check_finite(out_data, f"output of {kind}")
    return out


# how many branches run at once: one per CPU this process may use
if hasattr(os, "sched_getaffinity"):
    _WIDTH = len(os.sched_getaffinity(0))
else:
    _WIDTH = os.cpu_count() or 1
# The _WIDTH - 1 worker threads, started on first use and kept for the
# process.  A thread started per call faults its stack and heap pages in
# anew: in place of the pool, it read 31 to about 1,200 minor faults over the
# four steps of TestAllocatorPolicy's test, over its bound of 1,000 in 3 of 7
# runs; the pool reads 1 (2-CPU x86_64, glibc).
_POOL = None
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of its parent's worker threads, and the lock
    may have been held by one of them: the child starts a pool of its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def branches(fns: Sequence[Callable[[], Tensor]]) -> list:
    """The Tensors that the zero-argument callables ``fns`` return, in order.

    The callables must not depend on each other.  The first runs on this
    thread and the rest on a pool of ``_WIDTH - 1`` threads; at width 1, for
    one callable, or inside a branch they run here one after another.  Under
    an active tape each branch records on a tape of its own; once all have
    finished, their nodes go onto the active tape branch after branch, the
    order in which the callables run one after another record them, and the
    tape keeps the group for ``backward``.  Every branch finishes before this
    returns or raises; an error is the first failing branch's, in order.
    """
    fns = list(fns)
    if _WIDTH < 2 or len(fns) < 2 or _STATE.in_branch:
        return [fn() for fn in fns]
    taped = bool(_STATE.tapes)
    results = _concurrently([functools.partial(_branch, fn, taped) for fn in fns])
    if taped:
        outer = _STATE.tapes[-1]
        ranges = []
        for _, tape in results:
            start = len(outer.nodes)
            outer.nodes.extend(tape.nodes)
            ranges.append((start, len(outer.nodes)))
        outer.groups.append(ranges)
    return [out for out, _ in results]


def _branch(fn: Callable[[], Tensor], taped: bool) -> tuple:
    """(fn(), the tape it recorded on, or None when ``taped`` is false)."""
    _STATE.in_branch = True
    try:
        if not taped:
            return fn(), None
        with Tape() as tape:
            out = fn()
        return out, tape
    finally:
        _STATE.in_branch = False


def _concurrently(calls: list) -> list:
    """Each call's result, in order: the first call runs on this thread, the
    rest on the pool.  Every call finishes before this returns or raises, and
    the error raised is the first failing call's."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(_WIDTH - 1, thread_name_prefix="spatialcausal")
    futures = [_POOL.submit(call) for call in calls[1:]]
    try:
        first = calls[0]()
    finally:
        for future in futures:
            future.exception()      # waits; its error, if any, is raised below
    return [first] + [future.result() for future in futures]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul expects (n,k)@(k,m), got {a.data.shape} and {b.data.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        # a constant operand's gradient would be discarded by Tape.backward
        ga = g @ bd.T if a.requires_grad else None
        gb = ad.T @ g if b.requires_grad else None
        return ga, gb

    return _record("matmul", (a, b), ad @ bd, vjp)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add expects equal shapes, got {a.data.shape} and {b.data.shape}")

    def vjp(g):
        return g, g

    return _record("add", (a, b), a.data + b.data, vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"sub expects equal shapes, got {a.data.shape} and {b.data.shape}")

    def vjp(g):
        return g, -g

    return _record("sub", (a, b), a.data - b.data, vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul expects equal shapes, got {a.data.shape} and {b.data.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return g * bd, g * ad

    return _record("mul", (a, b), ad * bd, vjp)


def scale(x, s) -> Tensor:
    """Multiply an array by a scalar; the scalar may itself carry a gradient."""
    x, s = as_tensor(x), as_tensor(s)
    if s.data.shape not in ((), (1,)):
        raise DimensionError(f"scale factor must be scalar, got shape {s.data.shape}")
    xd = x.data
    sval = float(s.data.reshape(()))
    sshape = s.data.shape

    def vjp(g):
        gs = np.sum(g * xd)
        return g * sval, np.full(sshape, gs) if sshape else np.asarray(gs)

    return _record("scale", (x, s), xd * sval, vjp)


def bias_add(x, b) -> Tensor:
    """Add a per-feature bias: (n,d)+(d,).  conv2d adds its own bias."""
    x, b = as_tensor(x), as_tensor(b)
    xd, bd = x.data, b.data
    if bd.ndim != 1 or xd.ndim != 2 or xd.shape[1] != bd.shape[0]:
        raise DimensionError(f"bias_add expects (n,d)+(d,), got {xd.shape} and {bd.shape}")

    def vjp(g):
        return g, g.sum(axis=0)

    return _record("bias_add", (x, b), xd + bd[None, :], vjp)


def relu(x) -> Tensor:
    x = as_tensor(x)
    # one pass over x, which may be a strided view (conv2d's output); as in
    # dense, the vjp reads the mask back from the contiguous result, and it is
    # False for NaN and -0.0 alike
    out = np.maximum(x.data, 0.0)

    def vjp(g):
        return (g * (out > 0.0),)

    return _record("relu", (x,), out, vjp)


def dense(x, w, b, relu: bool = False) -> Tensor:
    """One fully connected layer: (n,k)@(k,m)+(m,), then a ReLU if ``relu``.

    The arithmetic and its order are those of ``relu(bias_add(matmul(x, w),
    b))``, so the bytes out and the gradients are the same, but one node is
    recorded and it keeps one (n, m) array: ``x @ w`` with the bias added and
    the ReLU applied in place.  The ReLU's mask is read back from that array
    in the vjp.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd, bd = x.data, w.data, b.data
    if (xd.ndim != 2 or wd.ndim != 2 or bd.ndim != 1
            or xd.shape[1] != wd.shape[0] or wd.shape[1] != bd.shape[0]):
        raise DimensionError(
            f"dense expects (n,k)@(k,m)+(m,), got {xd.shape}, {wd.shape} and {bd.shape}")
    out = xd @ wd
    out += bd
    if relu:
        if not (_STATE.tapes and (x.requires_grad or w.requires_grad or b.requires_grad)):
            # outside a tape, a -inf that the ReLU would clamp still raises
            _check_finite(out, "output of dense")
        np.maximum(out, 0.0, out=out)

    def vjp(g):
        if relu:
            g = g * (out > 0.0)  # never in place: add's vjp hands g to two branches
        gx = g @ wd.T if x.requires_grad else None
        gw = xd.T @ g if w.requires_grad else None
        return gx, gw, g.sum(axis=0)

    return _record("dense", (x, w, b), out, vjp)


def elu(x) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise (alpha 1)."""
    x = as_tensor(x)
    xd = x.data
    neg = np.expm1(np.minimum(xd, 0.0))
    out = np.where(xd > 0.0, xd, neg)

    def vjp(g):
        return (np.where(xd > 0.0, g, g * (neg + 1.0)),)

    return _record("elu", (x,), out, vjp)


# Bytes of one conv2d column tile: small enough to stay in a core's L2 cache
# while its GEMM reads it.
_TILE_BYTES = 512 << 10


def _column_tiles(src: np.ndarray, kh: int, kw: int, wp: int, span: int):
    """Yield ``(j, tile)`` over blocks of ``span`` output columns.

    ``tile[(c, di, dj), t]`` is ``src[c, j + di * wp + dj + t]``: the kh * kw
    shifted copies of ``src`` for columns j .. j + b - 1, gathered through one
    strided view into a buffer reused by every block.
    """
    c = src.shape[0]
    rows = c * kh * kw
    block = min(span, max(1, _TILE_BYTES // (8 * rows)))
    buf = np.empty(rows * block, dtype=np.float64)
    strides = (src.strides[0], 8 * wp, 8, 8)
    for j in range(0, span, block):
        b = min(block, span - j)
        tile = buf[:rows * b].reshape(rows, b)
        tile.reshape(c, kh, kw, b)[...] = np.ndarray(
            (c, kh, kw, b), np.float64, buffer=src, offset=8 * j, strides=strides)
        yield j, tile


def conv2d(x, w, bias=None, padding: int | tuple = 0) -> Tensor:
    """2-d convolution, stride 1, square kernel, optional bias and zero padding.

    ``x`` is (n, c_in, h, w); ``w`` is (c_out, c_in, kh, kw); ``bias`` is
    (c_out,); ``padding`` is one width for every side or (top, bottom, left,
    right), each checked as ``padding``.  The padded input is laid out
    channel-major, flattened over
    (n, hp, wp) and followed by ``reach`` zeros, so what kernel offset
    (di, dj) sees at output column j is ``xf[:, j + di * wp + dj]``.  The
    output columns are cut into tiles whose kh * kw shifted copies of the
    input take at most ``_TILE_BYTES``.  Each tile gathers its
    (c_in * kh * kw, block) im2col columns into one reused buffer and runs
    one (c_out, c_in * kh * kw) GEMM on them, and the bias is added into the
    channel-major result.  The whole im2col matrix never exists.  The
    backward pass runs the same tile loop over the output gradient, laid out
    like ``xf`` with ``reach`` leading zeros: each gradient tile serves one
    GEMM with the flipped kernel for the input gradient and one with the
    input's columns for the weight gradient.  Outputs whose window wraps past
    a row or image edge are computed and dropped.  One ``conv2d`` node is
    recorded, with inputs (x, w) or (x, w, bias).
    """
    x, w = as_tensor(x), as_tensor(w)
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4 or xd.shape[1] != wd.shape[1]:
        raise DimensionError(f"conv2d got input {xd.shape} and kernel {wd.shape}")
    n, cin, h, wdt = xd.shape
    cout, _, kh, kw = wd.shape
    inputs, bd = (x, w), None
    if bias is not None:
        b = as_tensor(bias)
        inputs, bd = (x, w, b), b.data
        if bd.shape != (cout,):
            raise DimensionError(f"conv2d bias must have shape ({cout},), got {bd.shape}")
    sides = padding if isinstance(padding, tuple) else (padding,) * 4
    if len(sides) != 4:
        raise ContractError(f"padding: must be one width or 4 sides, got {padding}")
    top, bottom, left, right = (int(check("padding", side, ContractError)) for side in sides)
    hp, wp = h + top + bottom, wdt + left + right
    ho, wo = hp - kh + 1, wp - kw + 1
    if ho <= 0 or wo <= 0:
        raise DimensionError(f"kernel {kh}x{kw} too large for input {h}x{wdt} pad {padding}")
    inner = np.s_[:, :, top:top + h, left:left + wdt]   # the input within the padded map
    span = n * hp * wp
    reach = (kh - 1) * wp + kw - 1
    xf = np.zeros((cin, span + reach), dtype=np.float64)
    xf[:, :span].reshape(cin, n, hp, wp)[inner] = xd.transpose(1, 0, 2, 3)
    wmat = wd.reshape(cout, -1)
    acc = np.empty((cout, span), dtype=np.float64)
    for j, tile in _column_tiles(xf, kh, kw, wp, span):
        blk = acc[:, j:j + tile.shape[1]]
        np.matmul(wmat, tile, out=blk)
        if bd is not None:
            blk += bd[:, None]
    out = acc.reshape(cout, n, hp, wp)[:, :, :ho, :wo].transpose(1, 0, 2, 3)

    def vjp(g):
        # g sits at gext[:, reach:]; the leading zeros give every offset a full-length slice
        gext = np.zeros((cout, reach + span), dtype=np.float64)
        gl = gext[:, reach:]
        gl.reshape(cout, n, hp, wp)[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
        # gradient tile rows are (c_out, di', dj') with di' = kh - 1 - di: the
        # flipped kernel's layout, in which the weight gradient is gathered too
        wflip = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
        gwf = np.zeros_like(wflip)
        gxf = np.empty((cin, span), dtype=np.float64) if x.requires_grad else None
        for j, tile in _column_tiles(gext, kh, kw, wp, span):
            cols = slice(j, j + tile.shape[1])
            gwf += xf[:, cols] @ tile.T
            if gxf is not None:
                np.matmul(wflip, tile, out=gxf[:, cols])
        gw = gwf.reshape(cin, cout, kh, kw)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        gx = None if gxf is None else (
            gxf.reshape(cin, n, hp, wp)[inner].transpose(1, 0, 2, 3))
        return (gx, gw) if bd is None else (gx, gw, gl.sum(axis=1))

    return _record("conv2d", inputs, out, vjp)


def _lead_order(a: np.ndarray) -> tuple:
    """The axis order that puts a 4-d array's two leading axes in memory order.

    conv2d's outputs, and the ops applied to them, are laid out (c, n, h, w).
    """
    return (1, 0, 2, 3) if a.strides[1] > a.strides[0] else (0, 1, 2, 3)


def _later_wins(first: np.ndarray, later: np.ndarray, nan: bool) -> np.ndarray:
    """Where ``later`` takes a window's max from ``first`` as ``argmax`` would:
    it is greater, or it is NaN and ``first`` is not."""
    wins = later > first
    if nan:
        wins |= np.isnan(later) & ~np.isnan(first)
    return wins


def maxpool2(x) -> Tensor:
    """2x2 max pooling with stride 2.

    Each window's output is the value ``argmax`` picks in the scan order
    (0,0), (0,1), (1,0), (1,1): the first maximum, so ties of equal values,
    -0.0 and +0.0 among them, go to the first position scanned, and the first
    NaN beats every number.  The input is read in memory order, (n, c) or
    (c, n) then (h, w) (another layout is copied first), as one flat array
    whose stride-2 views of even and odd elements are the left and right
    columns of every window.  One comparison of those views picks each
    window row's winner.  The two rows are then compared by ``np.maximum`` of
    their pairs; its sign of a zero may be either operand's, which no
    comparison sees, and it keeps NaN.  The output bytes are taken from each
    window's winning position, and the vjp writes ``g`` to those positions of
    a zeroed gradient, +0.0 everywhere else.
    """
    x = as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"maxpool2 expects 4-d input, got {xd.shape}")
    h, w = xd.shape[2:]
    if h % 2 or w % 2:
        raise DimensionError(f"maxpool2 requires even spatial sides, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    order = _lead_order(xd)
    xm = np.ascontiguousarray(xd.transpose(order))  # a view, not a copy, for both layouts
    flat = xm.reshape(-1)
    rows = xm.shape[0] * xm.shape[1] * h2
    left, right = flat[0::2], flat[1::2]
    row_max = np.maximum(left, right).reshape(rows, 2, w2)
    nan = bool(np.isnan(row_max).any())
    right_wins = _later_wins(left, right, nan)
    bottom_wins = _later_wins(row_max[:, 0], row_max[:, 1], nan)
    # index into left/right of each window's winning row, then into flat
    pair = np.arange(left.size).reshape(rows, 2, w2)[:, 0] + w2 * bottom_wins
    pos = pair + pair
    pos += right_wins.take(pair)
    out = flat.take(pos).reshape(xm.shape[:2] + (h2, w2)).transpose(order)

    def vjp(g):
        gx = np.zeros(xm.shape, dtype=np.float64)
        gx.reshape(-1)[pos] = g.transpose(order).reshape(pos.shape)
        return (gx.transpose(order),)

    return _record("maxpool2", (x,), out, vjp)


def upsample2(x) -> Tensor:
    """Nearest-neighbor upsampling by a factor of 2 in both spatial dimensions.

    The vjp sums each 2x2 window of ``g`` with the bytes of
    ``g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))``.  With gij the stride-2
    view ``g[:, :, i::2, j::2]``, that sum adds (g00 + g01) + (g10 + g11),
    and ((g00 + g01) + g10) + g11 for a one-column input (the U-Net's lowest
    level at d_s = 3).  It starts from
    +0.0, so a window of four -0.0 sums to +0.0; here 0.0 is added last.
    The column pairs g00 + g01 and g10 + g11 are the even plus the odd
    elements of ``g`` read flat in memory order.  Of two NaNs in a window,
    the one kept may differ: numpy's choice varies with the layout of ``g``.
    """
    x = as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"upsample2 expects 4-d input, got {xd.shape}")
    h, w = xd.shape[2:]
    out = np.repeat(np.repeat(xd, 2, axis=2), 2, axis=3)

    def vjp(g):
        if w == 1:
            g00, g01, g10, g11 = (g[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1))
            gx = g00 + g01
            gx += g10
            gx += g11
        else:
            order = _lead_order(g)
            gm = np.ascontiguousarray(g.transpose(order))
            flat = gm.reshape(-1)
            cols = (flat[0::2] + flat[1::2]).reshape(gm.shape[0] * gm.shape[1] * h, 2, w)
            gx = (cols[:, 0] + cols[:, 1]).reshape(gm.shape[:2] + (h, w)).transpose(order)
        gx += 0.0
        return (gx,)

    return _record("upsample2", (x,), out, vjp)


def concat_channels(xs: Sequence) -> Tensor:
    xs = tuple(as_tensor(x) for x in xs)
    if not xs:
        raise DimensionError("concat_channels needs at least one input")
    if any(x.data.ndim != 4 for x in xs):
        raise DimensionError("concat_channels expects 4-d inputs")
    splits = np.cumsum([x.data.shape[1] for x in xs])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=1))

    return _record("concat", xs, np.concatenate([x.data for x in xs], axis=1), vjp)


def pad2d(x, top: int, bottom: int, left: int, right: int) -> Tensor:
    """Zero-pad the last two axes by the given widths."""
    for name, width in (("top", top), ("bottom", bottom), ("left", left), ("right", right)):
        check("padding", width, ContractError, name)
    x = as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"pad2d expects 4-d input, got {xd.shape}")
    n, c, h, w = xd.shape
    out = np.pad(xd, ((0, 0), (0, 0), (top, bottom), (left, right)))

    def vjp(g):
        return (g[:, :, top:top + h, left:left + w],)

    return _record("pad2d", (x,), out, vjp)


def crop2d(x, r0: int, r1: int, c0: int, c1: int) -> Tensor:
    """Keep rows [r0, r1) and columns [c0, c1)."""
    for name, bound in (("r0", r0), ("r1", r1), ("c0", c0), ("c1", c1)):
        check("crop_bound", bound, ContractError, name)
    x = as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"crop2d expects 4-d input, got {xd.shape}")
    n, c, h, w = xd.shape
    if not (0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w):
        raise DimensionError(f"crop [{r0}:{r1},{c0}:{c1}] outside {h}x{w}")

    def vjp(g):
        gx = np.zeros_like(xd)
        gx[:, :, r0:r1, c0:c1] = g
        return (gx,)

    return _record("crop2d", (x,), xd[:, :, r0:r1, c0:c1].copy(), vjp)


def center_pixel(x) -> Tensor:
    """Extract the center pixel of an odd-sided map: (n,c,h,w) -> (n,c)."""
    x = as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"center_pixel expects 4-d input, got {xd.shape}")
    n, c, h, w = xd.shape
    if h % 2 == 0 or w % 2 == 0:
        raise ContractError(f"center_pixel requires odd spatial sides, got {h}x{w}")
    ci, cj = h // 2, w // 2

    def vjp(g):
        gx = np.zeros_like(xd)
        gx[:, :, ci, cj] = g
        return (gx,)

    return _record("center_pixel", (x,), xd[:, :, ci, cj].copy(), vjp)


def global_avg_pool(x) -> Tensor:
    """Average each channel map to one value: (n,c,h,w) -> (n,c)."""
    x = as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"global_avg_pool expects 4-d input, got {xd.shape}")
    n, c, h, w = xd.shape
    area = float(h * w)

    def vjp(g):
        return (np.broadcast_to(g[:, :, None, None] / area, xd.shape).copy(),)

    return _record("gap2d", (x,), xd.mean(axis=(2, 3)), vjp)


def reshape(x, shape: tuple) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    orig = xd.shape
    try:
        out = xd.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {orig} to {shape}") from exc

    def vjp(g):
        return (g.reshape(orig),)

    return _record("reshape", (x,), out, vjp)


def tsum(x) -> Tensor:
    x = as_tensor(x)
    xd = x.data

    def vjp(g):
        return (np.broadcast_to(g, xd.shape).copy(),)

    return _record("sum", (x,), np.asarray(xd.sum()), vjp)


def tmean(x) -> Tensor:
    x = as_tensor(x)
    xd = x.data
    count = float(xd.size)

    def vjp(g):
        return (np.broadcast_to(g / count, xd.shape).copy(),)

    return _record("mean", (x,), np.asarray(xd.mean()), vjp)


def mse(pred, target) -> Tensor:
    """Mean squared error over all elements; the batch-mean convention."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise DimensionError(
            f"mse expects equal shapes, got {pred.data.shape} and {target.data.shape}")
    diff = pred.data - target.data
    count = float(diff.size)

    def vjp(g):
        gd = (2.0 / count) * diff * g
        return gd, -gd

    return _record("mse", (pred, target), np.asarray(np.mean(diff * diff)), vjp)


_OPS: dict[str, Callable] = {
    "matmul": matmul,
    "add": add,
    "sub": sub,
    "mul": mul,
    "scale": scale,
    "bias_add": bias_add,
    "relu": relu,
    "dense": dense,
    "elu": elu,
    "conv2d": conv2d,
    "maxpool2": maxpool2,
    "upsample2": upsample2,
    "concat": concat_channels,
    "pad2d": pad2d,
    "crop2d": crop2d,
    "center_pixel": center_pixel,
    "gap2d": global_avg_pool,
    "reshape": reshape,
    "sum": tsum,
    "mean": tmean,
    "mse": mse,
}


def op_kinds() -> tuple:
    return tuple(sorted(_OPS))


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

class GradCheckReport:
    """Outcome of a finite-difference sweep: worst relative error and verdict."""

    def __init__(self, max_rel_err: float, tolerance: float):
        self.max_rel_err = max_rel_err
        self.passed = max_rel_err <= tolerance

    def __repr__(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"GradCheckReport(max_rel_err={self.max_rel_err:.3e}, {flag})"


def finite_diff_check(fn: Callable[[], Tensor], params: Iterable[Tensor],
                      tolerance: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of ``fn`` against central differences.

    ``fn`` takes no arguments and recomputes the scalar loss from the current
    contents of ``params``; each coordinate is perturbed in place by 1e-5
    either way.  The report passes when no coordinate's relative error
    |a - n| / max(|a|, |n|, 1e-8) exceeds ``tolerance``.
    """
    step = 1e-5
    params = list(params)
    for p in params:
        if not p.requires_grad:
            raise ContractError("finite_diff_check params must require gradients")
        p.zero_grad()
    with Tape() as tape:
        loss = fn()
    if loss.data.shape != ():
        raise ContractError("finite_diff_check requires a scalar-valued fn")
    tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    max_rel = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = float(fn().data)
            flat[i] = keep - step
            lo = float(fn().data)
            flat[i] = keep
            num[i] = (hi - lo) / (2.0 * step)
        aflat = a.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(aflat), np.abs(num)), 1e-8)
        rel = float(np.max(np.abs(aflat - num) / denom)) if flat.size else 0.0
        max_rel = max(max_rel, rel)
        p.zero_grad()
    return GradCheckReport(max_rel, tolerance)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class Optimizer:
    """Base: holds parameter list and per-parameter state buffers."""

    def __init__(self, params: Iterable[Tensor]):
        self.params = list(params)
        if not all(p.requires_grad for p in self.params):
            raise ContractError("optimizer parameters must require gradients")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum.

    v <- momentum * v + grad;  p <- p - lr * v.  Momentum 0 recovers the
    vanilla update.
    """

    def __init__(self, params: Iterable[Tensor], lr: float, momentum: float = 0.0):
        super().__init__(params)
        self.lr = float(check("lr", lr, ContractError))
        self.momentum = float(check("momentum", momentum, ContractError))
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self.velocity):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            v *= self.momentum
            v += g
            p.data -= self.lr * v


class Adam(Optimizer):
    """Adam with bias-corrected first and second moment estimates."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: Iterable[Tensor], lr: float):
        super().__init__(params)
        self.lr = float(check("lr", lr, ContractError))
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0

    def step(self) -> None:
        self.step_count += 1
        b1t = 1.0 - self.beta1 ** self.step_count
        b2t = 1.0 - self.beta2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
