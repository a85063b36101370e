"""qvdw benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; qvdw is imported from its ``src``.  The
loop is closed: one process runs one point at a time, as a CLI user waits
for each answer.  Workloads (see workloads.py): full-dressed, fock-oracles.

--trace 0 measures the end-to-end metrics listed in BENCHMARK.json with
every qvdw attribute untouched.  --trace 1 runs each point twice, plain and
traced, in alternating order, and reports the per-layer metrics; its spans
are written to perfbench/out/trace-<workload>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Points that raise or fail a check are
counted as failed and named on standard error.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2
SETUP_REPEATS = 7
TAIL_BEYOND = 10
TAIL_LADDER = (999, 990, 950, 900, 750, 500)  # per mille: p99.9 ... p50

FRESH_CLI = "import sys\nfrom qvdw.cli import main\nsys.exit(main(sys.argv[1:]))"
FRESH_IMPORT = ("import time\nt = time.perf_counter()\nimport qvdw.cli\n"
                "print(time.perf_counter() - t)")


def prepare():
    """Pin BLAS threads, then import qvdw from the checkout's src.

    Must run before numpy is imported.  Returns the pinned thread count.
    """
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import qvdw
    if Path(qvdw.__file__).resolve().parent != SRC / "qvdw":
        raise ImportError(f"qvdw was imported from {qvdw.__file__}, not from {SRC}")
    return threads


def environment(threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "scipy": scipy_version,
    }


def fresh_interpreter(code, args=()):
    """Wall time and standard output of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout:
        raise RuntimeError(f"fresh interpreter failed ({proc.returncode}): "
                           f"{proc.stderr.strip()}")
    return wall, proc.stdout


def cli_bytes(out):
    """Bytes of CLI output in ``out``: every (exit code, stdout) pair, nested
    in dicts and lists as the workloads return them."""
    if isinstance(out, tuple):
        return len(out[1].encode())
    if isinstance(out, dict):
        return sum(cli_bytes(v) for v in out.values())
    if isinstance(out, list):
        return sum(cli_bytes(v) for v in out)
    return 0


def measure(workload, point, pid, tracer, targets):
    """Run and check one point; with a tracer, run it plain and traced."""
    rec = {"pid": pid, "point": point, "problems": []}
    try:
        if tracer is None:
            passes = (False,)
        else:  # alternate the order so that drift between passes cancels
            passes = (False, True) if pid % 2 else (True, False)
        for traced in passes:
            if traced:
                with tracer.point(pid, targets) as span:
                    out = workload.run(point)
                rec["traced_wall"] = span.duration
            else:
                start = time.perf_counter()
                out = workload.run(point)
                rec["wall"] = time.perf_counter() - start
            rec["problems"] += workload.check(point, out)
        rec["bytes"] = cli_bytes(out)
    except Exception as exc:  # a point that raises is counted as failed, never fatal
        rec["problems"].append(f"{type(exc).__name__}: {exc}")
    return rec


def run_loop(workload, seconds, side, side_runs, tracer=None, targets=None):
    """Run whole cycles of points for about ``seconds``; return the point
    records and ``side_runs`` results of ``side()``.

    A run stops after the cycle that brings it nearest to ``seconds``, so a
    workload whose cycle outlasts ``seconds`` runs exactly one cycle.  The
    side runs are spread over the run, between points, so that they sample
    the machine's speed over the same stretch of time as the points do.
    """
    cycle = workload.cycle()
    workload.run(cycle[-1])  # warm-up: BLAS thread start, first-call allocations
    records, sides, start, cycles = [], [], time.perf_counter(), 0
    while True:
        for point in cycle:
            records.append(measure(workload, point, len(records), tracer, targets))
            if (len(sides) < side_runs
                    and time.perf_counter() - start >= len(sides) * seconds / side_runs):
                sides.append(side())
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            break
        cycle = workload.cycle()
    sides += [side() for _ in range(side_runs - len(sides))]
    return records, sides


def tail(values):
    """(value, percentile, samples): the highest percentile of TAIL_LADDER
    with at least TAIL_BEYOND samples beyond it, by nearest rank.

    Below 2 * TAIL_BEYOND samples no ladder step qualifies, and the value
    with exactly TAIL_BEYOND samples beyond it is used instead.
    """
    xs = sorted(values)
    n = len(xs)
    for per_mille in TAIL_LADDER:
        rank = -(-per_mille * n // 1000)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], per_mille / 10, n
    rank = max(n - TAIL_BEYOND, 1)
    return xs[rank - 1], 100.0 * rank / n, n


def end_to_end(records, setup_walls):
    walls = [r["wall"] for r in records if "wall" in r]
    ok = [r["wall"] for r in records if "wall" in r and not r["problems"]]
    value, pct, n = tail(ok)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "points_per_s": len(ok) / sum(walls),
        "point_p50_s": statistics.median(ok),
        "point_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"point_tail_s": f"p{pct:.1f} of {n} points, {n - round(pct * n / 100)} beyond",
             "points_per_s": f"{len(ok)} checked points"}
    return metrics, notes


def per_layer(records, tracer, import_times):
    import tracing
    walls = {r["pid"]: r["wall"] for r in records if "wall" in r}
    metrics = tracing.layer_metrics(tracer.spans, walls)
    metrics["cli.import_s"] = statistics.median(import_times)
    metrics["cli.bytes_out"] = statistics.fmean(r["bytes"] for r in records if "bytes" in r)
    return metrics


def write_trace(name, spans):
    OUT.mkdir(exist_ok=True)
    t0 = spans[0].start if spans else 0.0
    rows = [[s.name, round((s.start - t0) * 1e9), round((s.end - t0) * 1e9), s.parent,
             s.point, s.attrs] for s in spans]
    path = OUT / f"trace-{name}.json"
    path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "point",
                                           "attrs"], "spans": rows}), encoding="utf-8")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("full-dressed", "fock-oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        threads = prepare()
    except ImportError as exc:
        print(f"perfbench: cannot import qvdw from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("environment", json.dumps(environment(threads)), flush=True)

    if args.trace:
        tracer = tracing.Tracer()
        records, imports = run_loop(
            workload, args.seconds, lambda: float(fresh_interpreter(FRESH_IMPORT)[1]),
            SETUP_REPEATS, tracer, tracing.qvdw_targets())
        metrics, notes = per_layer(records, tracer, imports), {}
        print("trace written to", write_trace(args.workload, tracer.spans))
    else:
        records, setups = run_loop(
            workload, args.seconds,
            lambda: fresh_interpreter(FRESH_CLI, workload.smallest_argv)[0], SETUP_REPEATS)
        metrics, notes = end_to_end(records, setups)

    failed = [r for r in records if r["problems"]]
    for r in failed:
        print(f"perfbench: point {r['pid']} {r['point']} failed: "
              f"{'; '.join(r['problems'])}", file=sys.stderr)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           f"both computed and listed in BENCHMARK.json")
    print(f"workload {args.workload} seed {args.seed}: {len(records)} points")
    print(f"  fail_ratio {len(failed) / len(records):.6g} ratio  "
          f"({len(failed)} of {len(records)} points failed)")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} {metrics[name]:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
