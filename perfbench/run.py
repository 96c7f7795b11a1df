"""plate-afem benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import tracing  # standard library only, so numpy is still unloaded

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, ".out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

WORKLOADS = ("lshape_adaptive", "bc_sweep", "side_tools")
SETUP_PROBES = 7
END_TO_END = {"pass_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# self time of each layer span, per pass
SELF_SPANS = tracing.LOOP_SPANS + tuple(
    name for name in tracing.SIDE_SPANS if name not in tracing.LOOP_SPANS)
# summed span attributes, per pass: metric name -> (span name, attribute)
SPAN_SUMS = {
    "eigen.solve_gevp.large.calls": ("eigen.solve_gevp.large", "calls"),
    "eigen.solve_gevp.small.calls": ("eigen.solve_gevp.small", "calls"),
    "mesh.refine_nvb.calls": ("mesh.refine_nvb", "calls"),
    "mesh.refine_nvb.triangles_out": ("mesh.refine_nvb", "triangles_out"),
    "space.build_space.ndof": ("space.build_space", "ndof"),
}
PER_LAYER = {**{f"{name}.self_s": "s" for name in SELF_SPANS},
             **{name: "count" for name in SPAN_SUMS},
             "eigen.solve_gevp.failed": "count",
             "estimator.marked_frac": "ratio",
             "eigen.solve_gevp.share": "ratio",
             "trace.layer_share": "ratio",
             "trace.pass_s": "s",
             "trace.untraced_pass_s": "s",
             "trace.overhead_s": "s"}


def configure_threads():
    """Pin the BLAS pools to one thread; call before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def add_source_path():
    if not os.path.isdir(os.path.join(SRC, "plate_afem")):
        raise SystemExit(f"plate_afem sources not found under {SRC}")
    sys.path.insert(0, SRC)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time; a new pass starts while one more fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="first few cases only and one set-up probe")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def setup_probe(args):
    """Print the time to import the package and generate the inputs."""
    t0 = time.perf_counter()
    import plate_afem.cli  # noqa: F401  (the CLI's import cost counts)
    import workloads as wl
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        wl.make_inputs(args.workload, args.seed, workdir, args.smoke)
        elapsed = time.perf_counter() - t0
    print(repr(elapsed))


def run_setup_probes(args, count):
    """Set-up times, each measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def machine_facts(threads):
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def one_pass(wl, cases, pins, expected):
    """Time one pass, then collect its cyclic garbage outside the timing.

    The loop leaves reference cycles that hold its meshes and matrices
    until a full collection; collecting after every pass keeps the peak
    resident memory that of one pass, whatever the number of passes.
    """
    w0, c0 = time.perf_counter(), time.process_time()
    results = wl.run_pass(cases, pins, expected)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    gc.collect()
    return {"wall": wall, "cpu": cpu, "results": results}


def measure(wl, cases, pins, expected, seconds, tracer=None):
    """Passes until the next one is not expected to fit in ``seconds``.

    With a tracer, passes alternate untraced and traced, starting untraced;
    the untraced ones are the reference for the tracing overhead.
    Returns (untraced passes, traced passes).
    """
    gc.collect()
    t_start = time.perf_counter()
    plain, traced = [], []
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.pass_index = len(traced)
            with tracer.installed():
                traced.append(one_pass(wl, cases, pins, expected))
        else:
            plain.append(one_pass(wl, cases, pins, expected))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(p["wall"] for p in plain + traced)
        if (tracer is None or traced) and elapsed + typical > seconds:
            return plain, traced


def summary(values):
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(tracer, plain, traced):
    """Per-layer metrics: the median over traced passes of per-pass values."""
    totals = tracer.totals_by_pass()
    per_pass = []
    for k, p in enumerate(traced):
        t = totals.get(k, {})

        def get(span, attr):
            return float(t[span][attr]) if span in t else 0.0

        row = {f"{name}.self_s": get(name, "self_s") for name in SELF_SPANS}
        row.update({name: get(*where) for name, where in SPAN_SUMS.items()})
        solves = ("eigen.solve_gevp.large", "eigen.solve_gevp.small")
        row["eigen.solve_gevp.failed"] = sum(get(s, "failed") for s in solves)
        triangles = get("estimator.dorfler_mark", "triangles")
        row["estimator.marked_frac"] = (get("estimator.dorfler_mark", "marked") / triangles
                                        if triangles else 0.0)
        row["eigen.solve_gevp.share"] = sum(get(s, "self_s") for s in solves) / p["wall"]
        layers = sum(v["self_s"] for name, v in t.items() if name != "afem.run_afem")
        row["trace.layer_share"] = layers / p["wall"]
        per_pass.append(row)
    out = {name: statistics.median(row[name] for row in per_pass) for name in per_pass[0]}
    out["trace.pass_s"] = statistics.median(p["wall"] for p in traced)
    out["trace.untraced_pass_s"] = statistics.median(p["wall"] for p in plain)
    out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
    return out


def check_expected_spans(expected, tracer, traced):
    """Refuse a traced run in which a layer the workload must call is silent."""
    totals = tracer.totals_by_pass()
    for k in range(len(traced)):
        silent = [name for name in expected if name not in totals.get(k, {})]
        if silent:
            raise SystemExit(f"traced pass {k} recorded no calls of {silent}: "
                             "a span wrapper no longer sees its layer")


def write_spans(args, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return path


def main(argv=None):
    args = parse_args(argv)
    threads = configure_threads()
    add_source_path()
    if args.setup_probe:
        setup_probe(args)
        return 0
    load_start = read_loadavg()
    setup = None if args.trace else run_setup_probes(args, 1 if args.smoke else SETUP_PROBES)

    import workloads as wl

    pins = wl.load_pins(args.workload)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        cases = wl.make_inputs(args.workload, args.seed, workdir, args.smoke)
        expected = wl.expected_values(cases, pins)
        wl.warm_up(args.workload)
        plain, traced = measure(wl, cases, pins, expected, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        check_expected_spans(tracing.SIDE_SPANS if args.workload == "side_tools"
                             else tracing.LOOP_SPANS, tracer, traced)

    results = [r for p in plain + traced for r in p["results"]]
    attempted = len(results)
    mismatched = [r for r in results if not r.ok]
    raised = [r for r in results if r.raised]
    failed_any = [r for r in results if r.raised or not r.ok]

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={int(args.smoke)}")
    print(f"# machine {json.dumps(machine_facts(threads), sort_keys=True)}")
    print(f"# loadavg start: {load_start}")
    print(f"failed_frac = {len(failed_any) / attempted:.4f} ratio "
          f"({len(failed_any)} of {attempted} operations raised or mismatched; "
          f"{len(raised)} raised, {len(mismatched)} differ from the pinned outcome)")
    for r in failed_any:
        state = "pinned raise" if r.ok else "MISMATCH"
        print(f"#   {state}: {r.kind} {r.key} {r.raised} {r.detail[:160]}")

    if tracer is None:
        wall = summary([p["wall"] for p in plain])
        cpu = summary([p["cpu"] for p in plain])
        setup_sum = summary(setup)
        for name, s in (("pass_s", wall), ("cpu_s", cpu), ("setup_s", setup_sum)):
            print(f"{name} = {s['median']:.4f} s (q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, "
                  f"n={s['n']})")
        print(f"peak_rss_mb = {peak_rss_mb:.1f} MB")
        metrics = {"pass_s": wall["median"], "cpu_s": cpu["median"],
                   "setup_s": setup_sum["median"], "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, plain, traced)
        units = PER_LAYER
        for name in units:
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
        print("# waiting time: the layers run in one thread with no queue or lock, "
              "so there is no waiting time to record")
        print(f"# spans written to {os.path.relpath(write_spans(args, tracer))}")
    print(f"# loadavg end: {read_loadavg()}")
    print(json.dumps({
        "correct": not mismatched,
        "attempted": attempted,
        "failed": len(mismatched),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
