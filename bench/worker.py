"""One pass of a workload, in a fresh process.

Usage: python3 worker.py PASS_SPEC_JSON

The pass spec names the workload, its prepared inputs, fibkan's source
directory and whether to trace. The worker sets up the items, times the
calls into fibkan, then runs the correctness gate, and prints one JSON
object: the clock reading at the first timed call (``start``), the pass and
per-item wall times, the fastest reference time around them, the peak
resident memory at the end of the timed region, the failures and, when
traced, the per-layer numbers.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def reference_s(repeats=3):
    """Fastest of a few runs of a fixed exact elimination that does not use
    fibkan: Fraction arithmetic on dict rows, the same kind of work fibkan
    does. Timed in the same process right before and after the items, it
    tells how fast the machine is during the pass."""
    from fractions import Fraction

    n = 16
    template = [{j: Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + j) % 5)
                 for j in range(n) if (i + 2 * j) % 3} for i in range(n)]
    best = None
    for _ in range(repeats):
        rows = [dict(row) for row in template]
        begin = time.perf_counter()
        for c in range(n):
            pivot = next((r for r in rows[c:] if r.get(c)), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            rows.insert(c, pivot)
            pv = pivot[c]
            for k in list(pivot):
                pivot[k] /= pv
            for row in rows:
                factor = row.get(c) if row is not pivot else None
                if factor:
                    for k, v in pivot.items():
                        w = row.get(k, 0) - factor * v
                        if w:
                            row[k] = w
                        else:
                            row.pop(k, None)
        elapsed = time.perf_counter() - begin
        best = elapsed if best is None else min(best, elapsed)
    return best


def main(spec_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import fibkan.cli  # noqa: F401  (imports every library module)

    from workloads import WORKLOADS

    items = WORKLOADS[spec["workload"]].items(spec["inputs"])
    tracer = complexes = None
    if spec["trace"]:
        import fibtrace
        from tracer import Tracer

        tracer = Tracer()
        complexes = fibtrace.install(tracer)

    ref_before = reference_s()
    outputs = []
    item_s = []
    start = time.perf_counter()
    for _, call, _ in items:
        begin = time.perf_counter()
        try:
            outputs.append((True, call()))
        except Exception as exc:  # an item that raises counts as failed
            outputs.append((False, f"{type(exc).__name__}: {exc}"))
        item_s.append(time.perf_counter() - begin)
    end = time.perf_counter()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_s = min(ref_before, reference_s())
    if tracer is not None:
        tracer.uninstall()

    failures = []
    for (label, _, check), (ok, output) in zip(items, outputs):
        if ok:
            try:
                reason = check(output)
            except Exception as exc:
                reason = f"gate raised {type(exc).__name__}: {exc}"
        else:
            reason = output
        if reason:
            failures.append([label, reason])

    result = {
        "start": start,
        "wall_s": end - start,
        "item_s": item_s,
        "ref_s": ref_s,
        "peak_rss_mb": rss_kib / 1024,
        "attempted": len(items),
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = fibtrace.layer_numbers(tracer, complexes)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
