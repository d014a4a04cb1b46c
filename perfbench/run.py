"""Benchmark for spatialcausal: end-to-end pipeline metrics or a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload line_mlp_gp --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with only a step clock
installed.  ``--trace 1`` runs two untraced iterations (the first warms the
process up), then two traced iterations of the same seed, and reports the
per-layer metrics from the second; their exact counters must agree.  Metric names and units come from
BENCHMARK.json.  Human-readable lines go to stdout first, the result JSON is
the last line, and a result file with the environment, every sample and every
check goes to ``.perfbench_out/``.  The exit code is 0 only if every
correctness check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread (never more than nproc): at the default two threads on a
# two-core machine the step-time quartile spread was several times wider.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh-interpreter imports timed at the start and again at the end of a run,
# so that the median spans the run rather than one moment of machine load.
SETUP_SAMPLES_EACH_END = 2
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import spatialcausal; "
                  "print(repr(time.perf_counter() - t))")
MIN_STEPS = 100


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def measure_setup(count: int) -> list:
    """Fresh-interpreter ``import spatialcausal`` times, in seconds."""
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                             env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                             text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _openblas_threads() -> dict:
    """Thread count reported by each OpenBLAS library mapped into this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line and ".so" in line}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.exists(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "spatialcausal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _summary(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def run_untraced(wl, seed, iterations, probe, checks) -> list:
    """Closed loop: each iteration starts when the previous one ends."""
    return [wl.iterate(seed, probe, checks, f"iteration {i}") for i in range(iterations)]


def end_to_end(results, probe, setup) -> tuple[dict, dict]:
    """(metric values, sample summaries) for the untraced iterations."""
    samples = {
        "setup_s": setup,
        "gen_s": [s for r in results for s in r["gen_s"]],
        "train_units_per_s": [t["units"] * t["epochs"] / t["seconds"] for t in probe.trains],
        "estimate_s": [s for r in results for s in r["estimate_s"]],
        "pipeline_s": [r["pipeline_s"] for r in results],
    }
    stats = {k: _summary(v) for k, v in samples.items()}
    step_ms = [1e3 * s for s in probe.step_s]
    stats["step_ms"] = _summary(step_ms)
    values = {k: s["median"] for k, s in stats.items() if k != "step_ms"}
    values["step_ms_p50"] = statistics.median(step_ms)
    values["step_ms_p90"] = _p90(step_ms)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, stats


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spatialcausal", "__init__.py")):
        return _fail(f"no spatialcausal package under {SRC}; run from a full checkout")
    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(manifest_path):
        return _fail(f"missing {manifest_path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    measure_setup(1)    # untimed: the first import may compile bytecode
    setup = measure_setup(SETUP_SAMPLES_EACH_END)

    import tracing
    import workloads

    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    wl = workloads.make_workload(args.workload, work_root, bool(args.trace))
    checks = workloads.Checks()
    patcher = tracing.Patcher()
    probe = tracing.Probe()
    probe.install(patcher)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    try:
        if args.trace == 0:
            results = run_untraced(wl, args.seed,
                                   workloads.iterations(args.workload, args.seconds),
                                   probe, checks)
            checks.check(len(probe.step_s) >= MIN_STEPS,
                         f"harness: {len(probe.step_s)} step samples, need {MIN_STEPS}")
            metrics, stats = end_to_end(results, probe, setup)
            wanted = manifest["end_to_end"]
            record["samples"] = stats
        else:
            results, metrics, shares = run_traced(wl, args.seed, probe, patcher,
                                                  checks, tag)
            wanted = manifest["per_layer"]
            record["train_self_time_share"] = shares
        for r in results[1:]:
            checks.check(r["outputs"] == results[0]["outputs"],
                         "outputs differ between two iterations of the same seed")
    finally:
        patcher.restore()
        if os.path.isdir(work_root):
            shutil.rmtree(work_root)
    if args.trace == 0:
        setup += measure_setup(SETUP_SAMPLES_EACH_END)
        metrics["setup_s"] = statistics.median(setup)
        record["samples"]["setup_s"] = _summary(setup)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"harness fault: metrics not produced: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(metrics=out, ie_err=[r["ie_err"] for r in results],
                  te_err=[r["te_err"] for r in results], iterations=len(results),
                  checks_attempted=checks.attempted, check_failures=checks.failures)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(results)}")
    print("environment " + json.dumps(env, sort_keys=True))
    if "train_self_time_share" in record:
        top = sorted(record["train_self_time_share"].items(), key=lambda kv: -kv[1])[:6]
        print("train self time: " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in top))
    samples = record.get("samples", {})
    for name, entry in out.items():
        line = f"{name:34s} {entry['value']:.6g} {entry['unit']}"
        if name in samples:
            stat = samples[name]
            line += f"  (median of n={stat['n']}, q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g})"
        elif name.startswith("step_ms_"):
            stat = samples["step_ms"]
            line += f"  (of n={stat['n']} steps; q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g})"
        print(line)
    print(f"{'ie_err':34s} {results[-1]['ie_err']:.6g}  (weighted dose, vs oracle)")
    print(f"{'te_err':34s} {results[-1]['te_err']:.6g}  (weighted dose, vs oracle)")
    print(f"{'fail_ratio':34s} {len(checks.failures) / checks.attempted:.6g}  "
          f"({len(checks.failures)} of {checks.attempted} checks failed)")
    for failure in checks.failures:
        sys.stderr.write(f"check failed: {failure}\n")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": out}))
    return 1 if checks.failures else 0


def run_traced(wl, seed, probe, patcher, checks, tag) -> tuple[list, dict, dict]:
    """Two untraced iterations, then two traced ones of the same seed.

    The first iteration of a process runs slower than later ones, so the
    untraced step p50 that the tracing overhead is taken against comes from
    the second.  Returns the iteration results, the per-layer metrics of the second traced
    iteration, and each span name's share of the self time inside ``train``.
    """
    import tracing

    results = [wl.iterate(seed, probe, checks, "warm-up iteration")]
    first_step = len(probe.step_s)
    results.append(wl.iterate(seed, probe, checks, "untraced iteration"))
    untraced_p50 = statistics.median(probe.step_s[first_step:])
    tracer = tracing.Tracer()
    tracer.install(patcher)
    per_rep = []
    for rep in (1, 2):
        tracer.begin_run(f"{tag}-rep{rep}")
        first_step = len(probe.step_s)
        results.append(wl.iterate(seed, probe, checks, f"traced iteration {rep}"))
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_step_ms"] = 1e3 * (
            statistics.median(probe.step_s[first_step:]) - untraced_p50)
        per_rep.append(metrics)
    first, second = (tracing.exact_counts(m) for m in per_rep)
    diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    checks.check(not diff, f"harness: exact counters differ between traced runs: {diff}")
    metrics = per_rep[1]
    metrics["effects.ie_err"] = results[-1]["ie_err"]
    metrics["effects.te_err"] = results[-1]["te_err"]
    with open(os.path.join(OUT_DIR, f"{tag}.spans.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                   "spans": tracer.spans}, fh)
    _, _, self_s = tracer.totals(tracer.run_id, under="model.train")
    total = sum(self_s.values())
    return results, metrics, {k: v / total for k, v in self_s.items()}


if __name__ == "__main__":
    sys.exit(main())
