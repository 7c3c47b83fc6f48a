"""Benchmark of btriple: one workload, one seed, whole rounds for --seconds.

    python3 perfbench/run.py --workload fd1d|shoot1d|disk --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each round builds the workload's models, sweeps their Weyl functions, scans
for Robin eigenvalues and runs the verification suites (see workloads.py);
rounds repeat until --seconds have passed, so a run measures at least one
whole round. ``--seed`` jitters the Weyl sweep points; the suites run with
the CLI's default SuiteConfig.seed (see workloads.SUITE_SEED).

With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics of BENCHMARK.json, each a median over the run (see _end_to_end).
With --trace 1 every round runs under the wrappers of tracing.py and the
result holds the per-layer metrics. The full record (environment, per-round samples,
failures) goes to .perfbench/ in the checkout, and a traced run's spans
next to it.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads: with threaded OpenBLAS on a
# small machine the dense-LAPACK timings measure the thread scheduler
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fd1d", "shoot1d", "disk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in _THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def _end_to_end(rounds, n_specs):
    """Medians over the run: of single set-ups, of sweeps of every spec, and
    of each round's total scan and verify time."""
    sweeps = [sum(r.times["weyl"][j:j + n_specs])
              for r in rounds for j in range(0, len(r.times["weyl"]), n_specs)]
    return {
        "setup_s": statistics.median(t for r in rounds for t in r.times["setup"]),
        "weyl_rate": rounds[0].sweep_ok / statistics.median(sweeps),
        "eigs_s": statistics.median(sum(r.times["eigs"]) for r in rounds),
        "verify_s": statistics.median(sum(r.times["verify"]) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "btriple").is_dir():
        print(f"no btriple sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import btriple
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = declared["per_layer" if args.trace else "end_to_end"]

    workload = workloads.WORKLOADS[args.workload]()
    env = _environment()
    inputs = workloads.make_inputs(workload, args.seed)

    # warm-up: first calls load lazily imported code and fill the caches
    models = [btriple.model_from_spec(spec) for spec in workload.specs]
    for model, sweep in zip(models, inputs.sweeps):
        model.certified_threshold()
        btriple.weyl(model, sweep[0], allow_uncertified=True)
    # what is alive now lives to the end; frozen, it leaves the collections
    # run before each timed operation (about 30 ms each otherwise)
    gc.collect()
    gc.freeze()

    if args.trace:
        import tracing
    rounds, layer_runs = [], []
    start = time.perf_counter()
    while True:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                rnd = workloads.run_round(workload, inputs)
            finally:
                tracer.uninstall()
            layer_runs.append(dict(tracer.metrics(),
                                   **{"trace.overhead_s": tracer.overhead_s()}))
        else:
            rnd = workloads.run_round(workload, inputs)
        rounds.append(rnd)
        if time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        values = {key: statistics.median([m[key] for m in layer_runs])
                  for key in layer_runs[0]}
        timed = {m["name"] for m in metric_specs if m["unit"] == "s"}
        counts = [{k: v for k, v in m.items() if k not in timed}
                  for m in layer_runs]
        if any(c != counts[0] for c in counts):
            rounds[0].problems.append("traced rounds differ in their counts")
    else:
        values = _end_to_end(rounds, len(workload.specs))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}

    problems = [p for r in rounds for p in r.problems]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "environment": env,
        "plan": workloads.plan(workload),
        "rounds": [dict(r.times, attempted=r.attempted, failed=r.failed)
                   for r in rounds],
        "failures": sorted({f for r in rounds for f in r.failures}),
        "problems": problems,
        "result": result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")
    if args.trace:
        tracer.write_spans(out_dir / f"{stem}-spans.csv")
    for line in problems[:20]:
        print(f"problem: {line}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
