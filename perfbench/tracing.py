"""Instrumentation installed from outside the package: no file under src/ changes.

Two layers of hooks wrap the package's public functions and methods:

* ``Probe`` is installed in every run.  It timestamps each optimizer ``step``
  return and times each ``train`` call, which is all the end-to-end step
  latency and throughput metrics need.  Its cost is one clock read per step.
* ``Tracer`` is installed only in traced runs.  It records a span around every
  call into each module's public functions (engine ops and their vector-Jacobian
  products, ``Tape.backward``, optimizer steps, ``Network.forward``, the GP
  feature map and Cholesky, model, effects, synthgen, raster and CLI entry
  points) plus exact counters, keeps the spans in memory, and derives the
  per-layer metrics from them when the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

from spatialcausal import cli, effects, engine, gp, model, nets, raster, synthgen

# Engine op kinds (as recorded on the tape) that some workload calls.
ENGINE_KINDS = ("matmul", "add", "bias_add", "relu", "mse", "conv2d", "gp_features",
                "maxpool2", "upsample2", "concat", "pad2d", "crop2d", "center_pixel")
NET_KINDS = ("mlp", "unet")

# Counters that are a pure function of the inputs and must repeat exactly
# when the same iteration runs twice; a mismatch is a harness fault.
EXACT_SUFFIXES = ("_calls", ".tape_nodes", ".gflop", ".ckpt_bytes", ".gps_refits",
                  ".features_repeat_ratio", ".jitter_retries", "_mb",
                  ".extract_units_yield")


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved = []

    def method(self, cls, name, make_wrapper) -> None:
        orig = cls.__dict__[name]
        self._saved.append((cls, name, orig))
        setattr(cls, name, make_wrapper(orig))

    def function(self, fn, make_wrapper) -> None:
        """Rebind ``fn`` in every spatialcausal module that imported it by name."""
        wrapper = make_wrapper(fn)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("spatialcausal"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()


class Probe:
    """Optimizer step intervals and training-loop wall times."""

    def __init__(self):
        self.step_s: list[float] = []     # from one step return to the next
        self.trains: list[dict] = []
        self._last = None

    def install(self, patcher: Patcher) -> None:
        for cls in (engine.SGD, engine.Adam):
            patcher.method(cls, "step", self._wrap_step)
        patcher.function(model.train, self._wrap_train)

    def _wrap_step(self, orig):
        def step(opt):
            orig(opt)
            now = time.perf_counter()
            if self._last is not None:
                self.step_s.append(now - self._last)
            self._last = now
        return step

    def _wrap_train(self, orig):
        @functools.wraps(orig)
        def train(mdl, dataset, cfg, val_dataset=None):
            units = int(dataset.observed_mask().sum())
            self._last = None
            start = time.perf_counter()
            trace = orig(mdl, dataset, cfg, val_dataset=val_dataset)
            seconds = time.perf_counter() - start
            self._last = None
            self.trains.append({"seconds": seconds, "units": units,
                                "epochs": len(trace), "trace": trace})
            return trace
        return train


def _shape(x) -> tuple:
    return np.shape(getattr(x, "data", x))


def _conv_flop(x_shape, w_shape, out_shape) -> float:
    n, cin = x_shape[0], x_shape[1]
    cout, _, kh, kw = w_shape
    return 2.0 * n * cout * cin * kh * kw * out_shape[2] * out_shape[3]


def _coord_rows(coords) -> np.ndarray:
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    return np.ascontiguousarray(pts)


class Tracer:
    """In-memory spans (name, start, end, parent, run id) and exact counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._feature_rows: set = set()
        self._grid_shapes: dict = {}

    def begin_run(self, run_id: str) -> None:
        """Start a new run id; counters and row-repeat state restart with it."""
        self.run_id = run_id
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self._feature_rows = set()
        self._grid_shapes = {}

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, *args, **kwargs)`` then counts."""
        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return functools.update_wrapper(wrapper, fn)

    # -- installation -------------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        wrap = self.span
        fwd_after = {"conv2d": self._after_conv2d, "matmul": self._after_matmul}
        for kind, fn in engine._OPS.items():
            if kind in ENGINE_KINDS:
                patcher.function(fn, lambda f, k=kind: wrap(
                    f"engine.{k}.fwd", f, fwd_after.get(k)))
        patcher.function(gp._features_with_lengthscale_grad,
                         lambda f: wrap("engine.gp_features.fwd", f))
        patcher.method(engine.Tape, "backward", self._wrap_backward)
        patcher.function(model.train, lambda f: wrap("model.train", f))
        for cls in (engine.SGD, engine.Adam):
            patcher.method(cls, "step", lambda f: wrap("engine.optimizer_step", f))
        patcher.method(nets.Network, "forward", self._wrap_network_forward)

        patcher.method(gp.NystromMap, "features", lambda f: wrap("gp.features", f))
        patcher.method(gp.GpTerm, "features_op",
                       lambda f: self._wrap_term_features("gp.features_op", f))
        patcher.method(gp.GpTerm, "features_np",
                       lambda f: self._wrap_term_features("gp.features_np", f))
        patcher.function(gp.chol_with_jitter,
                         lambda f: wrap("gp.chol", f, self._after_chol))
        patcher.function(gp.sample_gp, lambda f: wrap("gp.sample_gp", f))
        patcher.function(gp.sample_gp_grid, lambda f: wrap("gp.sample_gp_grid", f))

        patcher.method(model.SpatialModel, "forward_batch",
                       lambda f: wrap("model.forward_batch", f))
        patcher.method(model.SpatialModel, "predict_dataset",
                       lambda f: wrap("model.predict_dataset", f))
        patcher.function(model.save_model, lambda f: wrap("model.save", f, self._after_save))
        patcher.function(model.load_model, lambda f: wrap("model.load", f))

        patcher.function(effects.fit_gps, self._wrap_fit_gps)
        for name, fn in (("marginal_density", effects.marginal_density),
                         ("balancing_weights", effects.balancing_weights),
                         ("dose", effects.estimate_effects_dose),
                         ("observed", effects.estimate_effects_observed)):
            patcher.function(fn, lambda f, n=name: wrap(f"effects.{n}", f))

        patcher.function(synthgen.synth_fields, lambda f: wrap("synthgen.synth_fields", f))
        patcher.function(synthgen.oracle_effects, lambda f: wrap("synthgen.oracle", f))

        patcher.function(raster.load_grid,
                         lambda f: wrap("raster.load_grid", f, self._after_load_grid))
        patcher.function(raster.save_grid,
                         lambda f: wrap("raster.save_grid", f, self._after_save_grid))
        patcher.function(raster.extract_units,
                         lambda f: wrap("raster.extract_units", f, self._after_extract))
        patcher.function(cli.regenerate_truth, lambda f: wrap("cli.regenerate_truth", f))

    # -- wrappers with counters ---------------------------------------------

    def _after_conv2d(self, out, x, w, bias=None, padding=0):
        xs, ws, os_ = _shape(x), _shape(w), _shape(out)
        self.counts["engine.conv2d.fwd_flop"] += _conv_flop(xs, ws, os_)
        col_bytes = 8.0 * xs[0] * xs[1] * ws[2] * ws[3] * os_[2] * os_[3]
        self.maxima["engine.conv2d.col_bytes"] = max(
            self.maxima["engine.conv2d.col_bytes"], col_bytes)

    def _after_matmul(self, out, a, b):
        n, k = _shape(a)
        self.counts["engine.matmul.fwd_flop"] += 2.0 * n * k * _shape(b)[1]

    def _wrap_backward(self, orig):
        def backward(tape, loss):
            self.counts["engine.tape_nodes"] += len(tape.nodes)
            for node in tape.nodes:
                node.vjp = self.span(f"engine.{node.kind}.bwd", node.vjp)
                if node.kind == "matmul":
                    (n, k), m = node.inputs[0].data.shape, node.inputs[1].data.shape[1]
                    self.counts["engine.matmul.bwd_flop"] += 4.0 * n * k * m
                elif node.kind == "conv2d":
                    self.counts["engine.conv2d.bwd_flop"] += 2.0 * _conv_flop(
                        node.inputs[0].data.shape, node.inputs[1].data.shape,
                        node.output.data.shape)
            idx = self.enter("engine.backward")
            try:
                orig(tape, loss)
            finally:
                self.leave(idx)
        return backward

    def _wrap_network_forward(self, orig):
        def forward(net, x):
            idx = self.enter(f"nets.{net.kind}.forward")
            try:
                return orig(net, x)
            finally:
                self.leave(idx)
        return forward

    def _wrap_term_features(self, name, orig):
        def features(term, coords):
            self._count_feature_rows(term, coords)
            idx = self.enter(name)
            try:
                return orig(term, coords)
            finally:
                self.leave(idx)
        return features

    def _count_feature_rows(self, term, coords) -> None:
        """Rows whose (coordinate, lengthscale) pair an earlier call computed."""
        if term.train_lengthscale:
            ls = float(term.lengthscale.data.reshape(()))
        else:
            ls = float(term.map.kernel.lengthscale)
        key = (term.map.kernel, ls, term.map.inducing.points.tobytes())
        rows = _coord_rows(coords)
        seen = self._feature_rows
        repeats = 0
        for row in rows:
            item = (key, row.tobytes())
            if item in seen:
                repeats += 1
            else:
                seen.add(item)
        self.counts["gp.feature_rows"] += rows.shape[0]
        self.counts["gp.feature_rows_repeated"] += repeats

    def _after_chol(self, out, mat, eps):
        _, jit = out
        if eps > 0 and jit > eps:
            self.counts["gp.jitter_retries"] += round(math.log10(jit / eps))

    def _after_save(self, out, mdl, path):
        self.counts["model.ckpt_bytes"] += os.path.getsize(path)

    def _wrap_fit_gps(self, orig):
        def fit_gps(dataset, m):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = self.span("effects.fit_gps", orig)(dataset, m)
            for w in caught:
                if str(w.message).startswith("rank-deficient"):
                    self.counts["effects.gps_refits"] += 1
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return out
        return functools.update_wrapper(fit_gps, orig)

    def _after_load_grid(self, grid, path):
        self.counts["raster.load_grid_bytes"] += os.path.getsize(path)
        self._grid_shapes[os.path.abspath(path)] = (grid.rows, grid.cols)

    def _after_save_grid(self, out, grid, path):
        self.counts["raster.save_grid_bytes"] += os.path.getsize(path)

    def _after_extract(self, dataset, manifest):
        rows, cols = self._grid_shapes[os.path.abspath(manifest.outcome)]
        half = manifest.d_s // 2
        interior = rows * cols if rows == 1 else (rows - 2 * half) * (cols - 2 * half)
        self.counts["raster.units_kept"] += dataset.n_units
        self.counts["raster.pixels_scanned"] += interior

    # -- derived metrics ----------------------------------------------------

    def totals(self, run_id: str, under: str | None = None):
        """Call counts, inclusive and self seconds by span name for one run id.

        Self time is a span's duration minus that of its direct children.
        With ``under``, only spans nested inside a span of that name count.
        """
        spans = [(idx, span) for idx, span in enumerate(self.spans) if span[4] == run_id]
        child = defaultdict(float)
        inside = {}
        for idx, (name, start, end, parent, _) in spans:
            if parent >= 0:
                child[parent] += end - start
            inside[idx] = under is None or (parent >= 0 and (
                inside[parent] or self.spans[parent][0] == under))
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for idx, (name, start, end, _, _) in spans:
            if inside[idx]:
                calls[name] += 1
                incl[name] += end - start
                self_s[name] += end - start - child[idx]
        return calls, incl, self_s


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the tracer's current run id.

    Engine op ``fwd_s``/``bwd_s`` and ``nets.<kind>.forward_s`` are self times
    (nested spans subtracted); every other ``_s`` metric is the inclusive time
    of the calls into that function.
    """
    calls, incl, self_s = tracer.totals(tracer.run_id)
    counts = tracer.counts
    m = {}
    for kind in ENGINE_KINDS:
        m[f"engine.{kind}.fwd_calls"] = calls[f"engine.{kind}.fwd"]
        m[f"engine.{kind}.fwd_s"] = self_s[f"engine.{kind}.fwd"]
        m[f"engine.{kind}.bwd_s"] = self_s[f"engine.{kind}.bwd"]
    m["engine.backward_s"] = incl["engine.backward"]
    m["engine.tape_nodes"] = counts["engine.tape_nodes"]
    m["engine.optimizer_step_s"] = incl["engine.optimizer_step"]
    for kind in ("conv2d", "matmul"):
        flop = counts[f"engine.{kind}.fwd_flop"] + counts[f"engine.{kind}.bwd_flop"]
        busy = self_s[f"engine.{kind}.fwd"] + self_s[f"engine.{kind}.bwd"]
        m[f"engine.{kind}.gflop"] = flop / 1e9
        m[f"engine.{kind}.gflops"] = flop / 1e9 / busy if busy > 0 else 0.0
    m["engine.conv2d.col_mb"] = tracer.maxima["engine.conv2d.col_bytes"] / 1e6
    _, _, train_self = tracer.totals(tracer.run_id, under="model.train")
    train_total = sum(train_self.values())
    for kind in ("conv2d", "matmul"):
        busy = train_self[f"engine.{kind}.fwd"] + train_self[f"engine.{kind}.bwd"]
        m[f"engine.{kind}.train_share"] = busy / train_total if train_total else 0.0
    for kind in NET_KINDS:
        m[f"nets.{kind}.forward_calls"] = calls[f"nets.{kind}.forward"]
        m[f"nets.{kind}.forward_s"] = self_s[f"nets.{kind}.forward"]
    rows = counts["gp.feature_rows"]
    m["gp.features_calls"] = calls["gp.features"]
    m["gp.features_s"] = incl["gp.features"]
    m["gp.features_repeat_ratio"] = counts["gp.feature_rows_repeated"] / rows if rows else 0.0
    m["gp.features_op_s"] = incl["gp.features_op"]
    m["gp.chol_calls"] = calls["gp.chol"]
    m["gp.chol_s"] = incl["gp.chol"]
    m["gp.jitter_retries"] = counts["gp.jitter_retries"]
    m["gp.sample_gp_s"] = incl["gp.sample_gp"]
    m["gp.sample_gp_grid_s"] = incl["gp.sample_gp_grid"]
    for name in ("forward_batch", "predict_dataset"):
        m[f"model.{name}_s"] = incl[f"model.{name}"]
        m[f"model.{name}_calls"] = calls[f"model.{name}"]
    m["model.save_s"] = incl["model.save"]
    m["model.load_s"] = incl["model.load"]
    m["model.ckpt_bytes"] = counts["model.ckpt_bytes"]
    for name in ("fit_gps", "marginal_density", "balancing_weights", "dose", "observed"):
        m[f"effects.{name}_s"] = incl[f"effects.{name}"]
    m["effects.gps_refits"] = counts["effects.gps_refits"]
    m["synthgen.synth_fields_s"] = incl["synthgen.synth_fields"]
    m["synthgen.oracle_s"] = incl["synthgen.oracle"]
    m["raster.load_grid_s"] = incl["raster.load_grid"]
    m["raster.load_grid_mb"] = counts["raster.load_grid_bytes"] / 1e6
    m["raster.save_grid_s"] = incl["raster.save_grid"]
    m["raster.save_grid_mb"] = counts["raster.save_grid_bytes"] / 1e6
    m["raster.extract_units_s"] = incl["raster.extract_units"]
    scanned = counts["raster.pixels_scanned"]
    m["raster.extract_units_yield"] = counts["raster.units_kept"] / scanned if scanned else 0.0
    m["cli.regenerate_truth_s"] = incl["cli.regenerate_truth"]
    m["cli.regenerate_truth_calls"] = calls["cli.regenerate_truth"]
    return m


def exact_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}
