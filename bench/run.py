"""fibkan benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's inputs, made from the seed, under
``.bench_work/`` and validates them. The run then makes passes over the
workload's items for about S seconds, one at a time, each in a fresh Python
process (closed loop, one client, no threads), so no module-level cache
carries work from one pass into the next.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: ``wall_ref`` (the wall time of a pass with each item at
its fastest, in units of a fixed reference computation timed in every pass,
see ``wall_ref``; items are timed inside the worker around the calls into
fibkan), ``setup_s`` (median time from starting a worker process to its
first timed call) and ``peak_rss_mb`` (median peak resident memory of a
pass). Failed items, counted against the items attempted, give
``failed``/``attempted``. With ``--trace 1`` passes alternate untraced and
traced, and the JSON holds the per-layer metrics: medians over the traced
passes plus ``trace.overhead_s``, ``fastest_pass_s`` of the traced minus
that of the untraced passes. Earlier stdout lines give the pass wall time in
seconds (median, quartiles, fastest, tail percentile and sample count), the
reference time and the environment; the whole result is also written to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
STARTED = time.perf_counter()
RUN_LIMIT_S = 150   # no pass starts later than this after the process starts
HARD_LIMIT_S = 170  # and every pass is stopped by then
MIN_PASSES = 3      # per kind of pass (untraced, traced)


def fastest_pass_s(passes):
    """Wall time of a pass with every item at its fastest: the sum over items
    of each item's lowest time across the passes."""
    return sum(min(times) for times in zip(*(p["item_s"] for p in passes)))


def wall_ref(passes):
    """``fastest_pass_s`` in units of the reference elimination's fastest
    time in the same run.

    Other load on a shared machine only ever slows a call down. Short
    slowdowns are dropped by taking each item at its fastest; slowdowns that
    outlast a run slow the reference, timed in every pass, as much as fibkan,
    and cancel in the ratio.
    """
    return fastest_pass_s(passes) / min(p["ref_s"] for p in passes)


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json defines."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def environment():
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return 100 * k / n, sorted(values)[k - 1]


def run_pass(workload, inputs, trace, workdir):
    """One pass in a fresh process; returns the worker's result dict, with
    ``setup_s`` added, or None when the worker did not finish cleanly."""
    spec_path = workdir / f"pass-{int(trace)}.json"
    spec_path.write_text(json.dumps({
        "workload": workload, "inputs": inputs, "trace": trace,
        "src": str(SRC)}))
    env = dict(os.environ)
    env.pop("FIBKAN_MAX_DEGREE", None)
    # perf_counter reads the system-wide monotonic clock, so the worker's
    # reading at its first timed call and this one share an origin
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
            capture_output=True, text=True, env=env,
            timeout=max(1.0, STARTED + HARD_LIMIT_S - spawned))
    except subprocess.TimeoutExpired:
        print("pass stopped at the run's time limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["start"] - spawned
    return result


def measure(workload, inputs, seconds, trace, workdir):
    """Run passes until the time is up; traced runs alternate untraced and
    traced passes. Returns (untraced results, traced results, crashed)."""
    kinds = [False, True] if trace else [False]
    done = {kind: [] for kind in kinds}
    crashed = 0
    begin = time.perf_counter()
    durations = []
    i = 0
    while True:
        elapsed = time.perf_counter() - begin
        enough = all(len(done[k]) >= MIN_PASSES for k in kinds)
        typical = statistics.median(durations) if durations else 0
        late = time.perf_counter() - STARTED > RUN_LIMIT_S
        if enough and elapsed + typical > seconds or late:
            break
        kind = kinds[i % len(kinds)]
        i += 1
        started = time.perf_counter()
        result = run_pass(workload, inputs, kind, workdir)
        durations.append(time.perf_counter() - started)
        if result is None:
            crashed += 1
            if crashed >= 3:
                break
            continue
        done[kind].append(result)
    return done[False], done.get(True, []), crashed


def summary_line(name, values, unit):
    q1, q2, q3 = quartiles(values)
    line = (f"{name}: median {q2:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, "
            f"min {min(values):.6g}, n={len(values)}")
    t = tail(values)
    if t is not None:
        line += f", p{t[0]:.0f} {t[1]:.6g}"
    return line


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fibkan" / "__init__.py").is_file():
        print(f"error: fibkan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = WORKLOADS[args.workload].prepare(args.seed, workdir)
        plain, traced, crashed = measure(
            args.workload, inputs, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    if not plain or (args.trace and not traced):
        print("error: no pass finished", file=sys.stderr)
        return 1
    items = passes[0]["attempted"]
    attempted = sum(p["attempted"] for p in passes) + crashed * items
    failed = sum(len(p["failures"]) for p in passes) + crashed * items
    for label, reason in {tuple(f) for p in passes for f in p["failures"]}:
        print(f"FAILED {label}: {reason}", file=sys.stderr)

    env = environment()
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}, {items} items a pass, "
          f"error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    for name, unit in (("wall_s", "s"), ("ref_s", "s"), ("setup_s", "s"),
                       ("peak_rss_mb", "MiB")):
        print(summary_line(name, [p[name] for p in plain], unit))
    print(f"fastest pass {fastest_pass_s(plain):.6g} s, "
          f"wall_ref {wall_ref(plain):.6g}")

    if args.trace:
        overhead = fastest_pass_s(traced) - fastest_pass_s(plain)
        layers = {}
        for name, unit in metric_units("per_layer").items():
            if name == "trace.overhead_s":
                value = overhead
            elif name == "error_rate":
                value = failed / attempted
            else:
                value = statistics.median(
                    p["layers"].get(name, 0) for p in traced)
            layers[name] = {"value": value, "unit": unit}
        top = sorted(((v["value"], k) for k, v in layers.items()
                      if k.endswith(".self_s") and not k.startswith("layer.")),
                     reverse=True)[:6]
        print("largest self times: " + ", ".join(
            f"{k} {v:.4g} s" for v, k in top))
        metrics = layers
    else:
        values = {
            "wall_ref": wall_ref(plain),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}

    report = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"env": env, "report": report,
                                "passes": passes}, indent=1) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
