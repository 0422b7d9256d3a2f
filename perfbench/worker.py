"""One pass of a workload in a fresh interpreter, so every cache starts cold.

Usage: ``python3 worker.py ROOT WORKLOAD SEED PASS SIZE TRACED OUTDIR``.

The worker imports ``rbn`` from ``ROOT/src``, builds the workload's surface
models and prints ``ready``; the parent times that as set-up.  SIZE = 0
stops after timing the reference kernel for the set-up.  Otherwise it draws
SIZE queries from the seed and pass index, runs them in a closed loop (one
query in flight), checks every answer after the loop and prints one JSON
line with the pass's measurements.

Host speed on a shared machine drifts by tens of percent within seconds, so
the worker also times a fixed reference kernel: REF_UNITS_AT_SETUP units
right after ``ready``, and one unit between queries after every
CALIBRATE_EVERY_S of query time.  ``scale`` = REF_UNIT_S / (mean unit time)
converts the pass's times to a host on which one unit takes REF_UNIT_S.
The kernel runs no ``rbn`` code and pauses the garbage collector, so the
program under test (its heap size included) cannot change its cost.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

REF_UNIT_S = 0.002
REF_UNITS_AT_SETUP = 20
CALIBRATE_EVERY_S = 0.05

_REF_MATRIX = (np.arange(60 * 66, dtype=np.int64).reshape(60, 66) * 7919) % 1000003


def reference_unit() -> float:
    """Seconds taken by one unit of fixed interpreter and numpy work.

    Like the library it builds small tuples, dicts and fractions; the
    collector is paused while it runs and everything it builds is freed by
    reference counting before it returns.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        acc = Fraction(0)
        for i in range(2000):
            key = (i % 97, i % 89, -(i % 13))
            table[key] = table.get(key, 0) + sum(key)
            if i % 10 == 0:
                acc += Fraction(i % 7, 1 + i % 5)
        a = _REF_MATRIX.copy()
        for _ in range(20):
            a[1:, :] = (a[1:, :] - np.outer(a[1:, 0], a[0, :])) % 1000003
        elapsed = time.perf_counter() - t0
        del table, acc, a
    finally:
        gc.enable()
    return elapsed


def main(argv) -> int:
    root, workload, seed, pass_index, size, traced, outdir = argv
    seed, pass_index, size, traced = int(seed), int(pass_index), int(size), traced == "1"
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import rbn

    if not Path(rbn.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"rbn was imported from {rbn.__file__}, not from {src}")
    import tracing
    from workloads import DECIDED, WORKLOADS, repeat_share

    wl = WORKLOADS[workload]
    models = wl.setup()
    print("ready", flush=True)
    setup_unit = sum(reference_unit() for _ in range(REF_UNITS_AT_SETUP)) / REF_UNITS_AT_SETUP
    out = {"setup_scale": REF_UNIT_S / setup_unit}
    if size == 0:
        print(json.dumps(out))
        return 0

    raw = wl.generate(random.Random(f"{workload}:{seed}:{pass_index}"), size)
    queries = [wl.build(models, q) for q in raw]
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()

    state: dict = {}
    results, latencies, errors, units = [], [], {}, []
    clock = time.perf_counter
    since_unit = 0.0
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.current_query = i
        t0 = clock()
        try:
            res = wl.run(q, state)
        except Exception as exc:  # a raising query is a failed query, not a crash
            res = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        latencies.append(elapsed)
        results.append(res)
        since_unit += elapsed
        if since_unit >= CALIBRATE_EVERY_S:
            units.append(reference_unit())
            since_unit = 0.0
    units.append(reference_unit())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out.update(
        stream_s=sum(latencies),
        latencies=latencies,
        scale=REF_UNIT_S * len(units) / sum(units),
        peak_rss_mb=peak_rss_mb,
        collinear_share=_collinear_share(wl, queries),
        repeat_share=repeat_share(raw),
    )
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.metrics()
        layer["cache.entries"] = tracing.cache_entries()
        out["layers"] = layer
        out["absent_layers"] = tracer.absent
        out["missing_functions"] = tracer.missing
        out["spans"] = len(tracer.fn)
        tracer.save(Path(outdir) / span_file(workload, pass_index))

    failures, lines = [], []
    verdicts = decided = 0
    for i, (q, res) in enumerate(zip(queries, results)):
        verdict = wl.is_verdict(q)
        verdicts += verdict
        if i in errors:
            failures.append(f"query {i} raised {errors[i]}")
            lines.append(f"{i} error {errors[i]}")
            continue
        problems = wl.check(q, res)
        if problems:
            failures.append(f"query {i}: {'; '.join(problems)}")
        if verdict:
            decided += wl.status(res) in DECIDED
        lines.append(f"{i} {wl.describe(q, res)}")
    text = "\n".join(lines) + "\n"
    if pass_index == 0 and not traced:
        (Path(outdir) / f"{workload}.results.txt").write_text(text)
    out.update(
        attempted=len(queries),
        failed=len(failures),
        failures=failures[:5],
        verdicts=verdicts,
        decided=decided,
        digest=hashlib.sha256(text.encode()).hexdigest(),
    )
    print(json.dumps(out))
    return 0


def span_file(workload, pass_index) -> str:
    return f"{workload}.pass{pass_index}.spans.npz"


def _collinear_share(wl, queries) -> float:
    flag = getattr(wl, "collinear", None)
    if flag is None or not queries:
        return 0.0
    return sum(map(flag, queries)) / len(queries)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
