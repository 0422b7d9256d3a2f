"""Layered query benchmark for ``rbn``: one workload, one seed, one run.

    python3 perfbench/run.py --workload hirz_verdicts --seed 1 --seconds 30 --trace 0

Run it from anywhere; the library is imported from ``src/`` next to this
directory.  A run is a series of passes.  Each pass is a fresh interpreter
(cold caches, as for every CLI call) that answers a fixed-size stream of
seeded queries in a closed loop, one query in flight, on one thread.  Passes
start while the next one is expected to finish within ``--seconds``; pass i
draws its queries from (workload, seed, i).

Times are reported at a fixed reference host speed: each pass times a
fixed reference kernel between its queries (see ``worker.py``) and scales
its set-up and query times by REF_UNIT_S / (mean kernel time).  This cancels
the drift of a shared machine's speed, which moves raw times by up to half
between runs; the unscaled figures are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every pass
twice, without and with spans around the public functions of each layer, and
reports the per-layer metrics of the traced passes plus the tracing
overhead.  Human-readable lines come first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, each metric with
its unit from ``BENCHMARK.json``.  The answers of pass 0 and the spans of
every traced pass are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench_out"

# queries per pass: a whole number of rounds over each workload's strata
# (eight per del Pezzo stratum, four per blowup stratum); hirz_verdicts
# samples 12000 of the 30860 queries of its twelve sweeps
PASS_SIZE = {"hirz_verdicts": 12000, "delpezzo_goodsums": 160 * 8, "blowup_queries": 234 * 4}
SETUP_SAMPLES = 11  # fresh interpreters timed to ready, at least, per run
RUN_LIMIT_S = 170  # a run must end within 180 s whatever the passes cost


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, seed, index, size, traced, deadline) -> dict:
    """Start one pass, time it to ``ready`` and collect its JSON line.

    A timer kills the worker at the run's deadline, so a stuck pass ends the
    run with an error instead of hanging it.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed),
           str(index), str(size), "1" if traced else "0", str(OUTDIR)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"pass {index} of {workload} failed (exit code {proc.returncode})")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_passes(workload, seed, seconds, traced_too, deadline):
    """Passes (untraced, and traced when asked) until the budget is spent."""
    plain, traced = [], []
    began = time.monotonic()
    size = PASS_SIZE[workload]
    while True:
        t0 = time.monotonic()
        index = len(plain)
        plain.append(run_worker(workload, seed, index, size, False, deadline))
        if traced_too:
            traced.append(run_worker(workload, seed, index, size, True, deadline))
        step = time.monotonic() - t0
        if time.monotonic() - began + step > seconds or time.monotonic() + 2 * step > deadline:
            break
    setups = plain + traced
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, 0, 0, False, deadline))
    return plain, traced, setups


def timings(plain, setups, scaled):
    """Set-up and query timings, in reference-speed seconds when ``scaled``."""

    def factor(p, key="scale"):
        return p[key] if scaled else 1.0

    lat = sorted(x * factor(p) for p in plain for x in p["latencies"])
    p50, _ = percentile(lat, 0.50)
    p99, beyond = percentile(lat, 0.99)
    return {
        "setup_s": statistics.median(s["setup_s"] * factor(s, "setup_scale") for s in setups),
        "queries_per_s": sum(p["attempted"] for p in plain)
        / sum(p["stream_s"] * factor(p) for p in plain),
        "query_p50_ms": 1000 * p50,
        "query_p99_ms": 1000 * p99,
    }, len(lat), beyond


def end_to_end(plain, setups):
    attempted = sum(p["attempted"] for p in plain)
    failed = sum(p["failed"] for p in plain)
    verdicts = sum(p["verdicts"] for p in plain)
    metrics, samples, beyond = timings(plain, setups, scaled=True)
    metrics.update(
        # a mean, not a median: on delpezzo_goodsums the largest cache ends a
        # pass on either side of a dict-resize step, so a pass's peak has two
        # modes some 11 MiB apart, and a median flips between them by seed
        peak_rss_mb=statistics.fmean(p["peak_rss_mb"] for p in plain),
        ok_frac=1 - failed / attempted,
        decided_frac=sum(p["decided"] for p in plain) / verdicts if verdicts else 0.0,
    )
    raw, _, _ = timings(plain, setups, scaled=False)
    notes = [
        "unscaled: " + ", ".join(f"{n} {v:.6g}" for n, v in raw.items()),
        f"host speed scale (median over passes): {statistics.median(p['scale'] for p in plain):.4f}",
        f"latency samples: {samples} ({beyond} beyond p99)",
        f"setup samples: {len(setups)}",
        f"failed_frac: {failed / attempted} ({failed} of {attempted} queries)",
        f"decided: {sum(p['decided'] for p in plain)} of {verdicts} verdict queries",
        f"collinear_share (input): {plain[0]['collinear_share']}",
        f"repeat_share (input, exact repeats within a pass): {plain[0]['repeat_share']}",
    ]
    if beyond < 10:
        notes.append("warning: fewer than 10 samples lie beyond p99")
    return metrics, notes


def per_layer(workload, plain, traced):
    """Layer metrics of the traced pass with the median stream time, so its
    counts are whole and its self times add up within its stream."""
    order = sorted(range(len(traced)), key=lambda i: traced[i]["stream_s"] * traced[i]["scale"])
    index = order[(len(traced) - 1) // 2]
    rep = traced[index]
    scale = rep["scale"]
    metrics = {n: v * scale if n.endswith("_s") else v for n, v in rep["layers"].items()}
    metrics["trace.overhead_frac"] = statistics.median(
        1 - (p["stream_s"] * p["scale"]) / (t["stream_s"] * t["scale"])
        for p, t in zip(plain, traced)
    )
    metrics["trace.stream_s"] = stream = rep["stream_s"] * scale
    metrics["input.collinear_share"] = plain[0]["collinear_share"]
    metrics["input.repeat_share"] = plain[0]["repeat_share"]
    shares = sorted(
        ((metrics[n] / stream, n[: -len(".self_s")]) for n in rep["layers"] if n.endswith(".self_s")),
        reverse=True,
    )
    notes = [f"per-layer metrics are those of traced pass {index}: {rep['spans']} spans in "
             f"{OUTDIR.name}/{worker.span_file(workload, index)}",
             "self-time share of the traced stream: "
             + ", ".join(f"{layer} {share:.3f}" for share, layer in shares)]
    if traced[0]["absent_layers"]:
        notes.append(f"absent layers (reported as 0): {', '.join(traced[0]['absent_layers'])}")
    if traced[0]["missing_functions"]:
        notes.append(f"functions not found: {', '.join(traced[0]['missing_functions'])}")
    return metrics, notes


def metric_units() -> dict:
    """Unit of every metric, as ``BENCHMARK.json`` lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SIZE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rbn" / "__init__.py").is_file():
        print(f"error: no rbn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units()
    OUTDIR.mkdir(exist_ok=True)
    if args.trace:
        for stale in OUTDIR.glob(worker.span_file(args.workload, "*")):
            stale.unlink()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        plain, traced, setups = run_passes(
            args.workload, args.seed, args.seconds, args.trace == 1, deadline
        )
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e, notes = end_to_end(plain, setups)
    if args.trace:
        metrics, layer_notes = per_layer(args.workload, plain, traced)
        notes += layer_notes
    else:
        metrics = e2e
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} passes of "
          f"{PASS_SIZE[args.workload]} queries" + (" (each also traced)" if traced else ""))
    print(f"results digest (pass 0): {plain[0]['digest']}")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:>14.6g} {units[name]}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<40} {value:>14.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    for p in passes:
        for failure in p["failures"]:
            print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
