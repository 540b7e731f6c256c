"""sepkit benchmark.

One workload, one fresh single-threaded interpreter:

    python3 perfbench/run.py --workload kmm-exact --seed 1 --seconds 20 --trace 0

prints the run record, the workload-shape figures, the error rate and every
metric with its unit, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (and writes the spans
to ``.perfbench/``).  ``--all`` runs every workload, each in its own
interpreter, and prints all their end-to-end metrics.

Run it from the root of a source checkout: sepkit is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Fixed from interpreter start: one BLAS/OpenMP thread and a fixed str hash.
ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
WORKLOAD_NAMES = ("kmm-exact", "kmm-approx", "lp-stream", "margin-stream")
# (name, unit) of the end-to-end metrics, in BENCHMARK.json order.  The
# latencies are in units of the run's mean probe time (probe.py).
END_TO_END = [
    ("setup_s", "s"),
    ("solve_mean_rel", "probe"),
    ("update_mean_rel", "probe"),
    ("query_mean_rel", "probe"),
    ("peak_rss_mb", "MB"),
]
SETUP_REPS = 5
# shares of --seconds given to the passes of a traced run
TRACE_SHARES = {"plain": 0.45, "profile": 0.15}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "sepkit", "__init__.py")):
        print(f"error: no sepkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__),
                                   *sys.argv[1:]], {**os.environ, **ENV})
    if args.all:
        return run_all(args)
    return run_one(args)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    # the import is part of set-up, bracketed by probes like each build
    before = probe.burst()
    t0 = time.perf_counter()
    import sepkit.approxkmm  # noqa: F401
    import sepkit.exactkmm  # noqa: F401
    import sepkit.hullmargin  # noqa: F401
    import sepkit.lpviol  # noqa: F401
    import_s = time.perf_counter() - t0
    after = probe.burst()
    imported = (import_s, before, after)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    record = run_record(args)
    print("run-record " + json.dumps(record, sort_keys=True))
    try:
        if args.trace:
            result, extra = traced_run(wl, args)
        else:
            result, extra = plain_run(wl, args, imported)
    except workloads.ShapeError as exc:
        print(f"error: workload shape guard failed: {exc}", file=sys.stderr)
        return 3
    info = extra.pop("info", {})
    for name, value in extra.items():
        print(f"{name} {json.dumps(value, sort_keys=True)}")
    for name, (value, unit) in info.items():
        print(f"info {name} {value!r} {unit}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


def _pass(wl, seed, seconds=None, steps=None, tracer=None, profiler=None,
          built=None, guard=True):
    """Run one pass from a freshly built structure (or ``built``, an
    ``(inputs, state)`` pair) until ``seconds`` pass or ``steps`` are done."""
    import workloads

    if built is None:
        inputs = wl.inputs(seed)
        built = (inputs, wl.build(inputs))
    inputs, state = built
    rec = workloads.Recorder(tracer, profiler)
    deadline = time.perf_counter() + seconds if seconds is not None else None
    # a guarded pass runs on past the deadline until the guard's step count,
    # so that a slow host cannot fail the guard
    min_steps = wl.min_steps if guard else 0

    def stop(done):
        if steps is not None:
            return done >= steps
        return done >= min_steps and time.perf_counter() >= deadline

    wl.run(inputs, state, rec, stop)
    if guard:
        workloads.shape_guard(wl, rec)
    return rec


def _result(recs, metrics) -> tuple[dict, dict]:
    """The result line of one or more passes, and the report lines before it
    (taken from the last pass)."""
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.wrong + r.errors for r in recs)
    result = {
        "correct": all(r.wrong == 0 for r in recs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    extra = {
        "shape": dict(recs[-1].shape),
        "samples": {k: len(v) for k, v in recs[-1].samples.items()},
        "error_rate": failed / max(1, attempted),
        "failures": [n for r in recs for n in r.notes],
    }
    return result, extra


def p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def setup(wl, seed, imported):
    """Set up SETUP_REPS times.  Return the last ``(inputs, state)``, the
    set-up time in probe units (the import plus the median build) and in raw
    seconds.  Each timed part is divided by the mean of the probe bursts just
    before and just after it."""
    import_s, before, after = imported
    import_rel = import_s / statistics.fmean(before + after)
    builds, builds_rel = [], []
    for _ in range(SETUP_REPS):
        inputs = wl.inputs(seed)
        before = after
        t0 = time.perf_counter()
        state = wl.build(inputs)
        dt = time.perf_counter() - t0
        after = probe.burst()
        builds.append(dt)
        builds_rel.append(dt / statistics.fmean(before + after))
    return ((inputs, state), import_rel + statistics.median(builds_rel),
            import_s + statistics.median(builds))


def plain_run(wl, args, imported):
    built, setup_rel, setup_raw = setup(wl, args.seed, imported)
    rec = _pass(wl, args.seed, seconds=args.seconds, built=built)
    s = rec.samples
    unit = statistics.fmean(rec.probes)
    metrics = {
        "setup_s": (setup_rel * probe.REF_S, "s"),
        "step_mean_rel": (rec.op_time / rec.steps / unit, "probe"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"probe_ms": (1e3 * unit, "ms"), "ops_per_s": (rec.steps / rec.op_time, "1/s"),
            "setup_raw_s": (setup_raw, "s")}
    for kind, scale, suffix in (("solve", 1, "s"), ("update", 1e3, "ms"),
                                ("query", 1e3, "ms")):
        for stat, fn in (("p50", statistics.median), ("mean", statistics.fmean),
                         ("p95", p95)):
            value = fn(s[kind])
            metrics[f"{kind}_{stat}_rel"] = (value / unit, "probe")
            info[f"{kind}_{stat}_{suffix}"] = (scale * value, suffix)
    gated = {k: metrics.pop(k) for k, _ in END_TO_END}
    result, extra = _result([rec], gated)
    extra["info"] = {**metrics, **info}
    return result, extra


def traced_run(wl, args):
    """Three passes over the same inputs: plain (the reference wall time),
    spans on (same number of steps), then cProfile for the Fraction share."""
    import cProfile
    import pstats

    import spans as sp

    plain = _pass(wl, args.seed, seconds=args.seconds * TRACE_SHARES["plain"])
    tracer = sp.Tracer()
    saved = sp.install(tracer)
    try:
        traced = _pass(wl, args.seed, steps=plain.steps, tracer=tracer)
    finally:
        sp.uninstall(saved)
    prof = cProfile.Profile()
    # cProfile slows every call; this pass only apportions self time
    profiled = _pass(wl, args.seed, seconds=args.seconds * TRACE_SHARES["profile"],
                     profiler=prof, guard=False)

    layer = sp.summarize(tracer, traced.steps)
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values())
    frac = sum(v[2] for k, v in stats.items() if k[0].endswith("fractions.py"))
    layer["rat.fractions_self_share"] = frac / total if total else 0.0
    # both passes in probe units, so a change in host load between them cancels
    plain_rel = plain.op_time / statistics.fmean(plain.probes)
    traced_rel = traced.op_time / statistics.fmean(traced.probes)
    layer["trace.overhead_share"] = traced_rel / plain_rel - 1
    if wl.reference is not None:
        layer[wl.reference] = statistics.median(traced.samples["solve"])

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}.json"))
    result, extra = _result([plain, profiled, traced],
                            {name: (layer.get(name, 0.0), unit)
                             for name, unit in sp.PER_LAYER})
    extra["trace"] = {"steps": traced.steps, "plain_op_s": plain.op_time,
                      "traced_op_s": traced.op_time}
    return result, extra


def run_record(args) -> dict:
    import numpy

    from sepkit.rat import RatT

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rational_carrier": f"{RatT.__module__}.{RatT.__qualname__}",
        "nproc": os.cpu_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "threads": {k: os.environ.get(k) for k in ENV if k != "PYTHONHASHSEED"},
    }


def git_sha():
    """Commit of the checkout; None outside a git work tree or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        rate = result["failed"] / result["attempted"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={rate:.6g}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:<45} {m['value']:>14.6g} {m['unit']}")
        for line in lines:
            if line.startswith("info "):
                _, metric, value, unit = line.split()
                print(f"   {metric:<45} {float(value):>14.6g} {unit}  (not gated)")
    return status


if __name__ == "__main__":
    sys.exit(main())
