"""Tests of the benchmark itself: seeded inputs and the tracer.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, repeat_share  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    wl = WORKLOADS[name]
    size = run.PASS_SIZE[name]
    first = wl.generate(random.Random(f"{name}:1:0"), size)
    assert first == wl.generate(random.Random(f"{name}:1:0"), size)
    assert first != wl.generate(random.Random(f"{name}:2:0"), size)
    assert first != wl.generate(random.Random(f"{name}:1:1"), size)
    assert repeat_share(first) == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_queries_pass_their_checks(name):
    wl = WORKLOADS[name]
    models = wl.setup()
    for raw in wl.generate(random.Random(f"{name}:3:0"), 60):
        q = wl.build(models, raw)
        assert wl.check(q, wl.run(q, {})) == []


def test_checks_catch_wrong_answers():
    from rbn import CohomologyVector, WBNStatus

    hirz = WORKLOADS["hirz_verdicts"]
    v = hirz.build(hirz.setup(), (1, 2, 3, 5))
    verdict = hirz.run(v, {})
    wrong = dataclasses.replace(verdict, status=WBNStatus.UNKNOWN)
    assert hirz.check(v, verdict) == [] and hirz.check(v, wrong)

    blowup = WORKLOADS["blowup_queries"]
    q = blowup.build(blowup.setup(), ("cohom", 3, 0, (4, -2, -1, -1)))
    rules, vec = blowup.run(q, {})
    assert blowup.check(q, (rules, vec)) == []
    assert blowup.check(q, (rules, CohomologyVector(vec.h0 + 1, vec.h1, vec.h2)))
    # four collinear points: the line is fixed in |2H - E1 - ... - E4|, so h0 = 3
    # although chi = 2; the general-position answer (2, 0, 0) must fail
    q = blowup.build(blowup.setup(), ("cohom", 4, 4, (2, -1, -1, -1, -1)))
    rules, vec = blowup.run(q, {})
    assert (vec.h0, vec.h1, vec.h2) == (3, 1, 0) and blowup.check(q, (rules, vec)) == []
    assert blowup.check(q, (rules, CohomologyVector(2, 0, 0)))
    assert blowup.check(q, (rules, CohomologyVector(4, 2, 0)))

    dp = WORKLOADS["delpezzo_goodsums"]
    D, r = dp.build(dp.setup(), (3, (5, -2, -1, -1), 3))
    gs, check, certified = dp.run((D, r), {})
    assert dp.check((D, r), (gs, check, certified)) == []
    unbalanced = dataclasses.replace(gs, summands=gs.summands[:-1])
    assert dp.check((D, r), (unbalanced, check, certified))


def test_tracer_restores_bindings_and_reports_absent_layers(monkeypatch):
    from rbn import cohomology, decide, lattice

    originals = (lattice.intersect, cohomology.vanishing_by_rules, decide.vanishing_by_rules)
    layers = dict(tracing.LAYERS, ghost=("lattice", ("no_such_function",)))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert decide.vanishing_by_rules is cohomology.vanishing_by_rules
        assert decide.vanishing_by_rules is not originals[2]
        S = lattice.blowup_p2(3)
        D = lattice.DivisorClass(S, (3, -1, -1, -1))
        decide.vanishing_by_rules(D)
    finally:
        tracer.uninstall()
    assert (lattice.intersect, cohomology.vanishing_by_rules, decide.vanishing_by_rules) == originals
    assert tracer.absent == ["ghost"]
    metrics = tracer.metrics()
    assert metrics["cohomology.rules.calls"] == 1
    assert metrics["ghost.calls"] == 0
    assert metrics["lattice.calls"] > 0 and metrics["lattice.self_s"] >= 0


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(run.PASS_SIZE) == sorted(w["name"] for w in spec["workloads"])
    one_pass = {"latencies": [0.001] * 200, "stream_s": 0.2, "scale": 1.0, "setup_s": 0.2,
                "setup_scale": 1.0, "attempted": 200, "failed": 0, "verdicts": 200,
                "decided": 200, "peak_rss_mb": 50.0, "collinear_share": 0.0, "repeat_share": 0.0}
    e2e, _ = run.end_to_end([one_pass], [one_pass])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    layer_names = set(tracing.Tracer().metrics()) | {
        "cache.entries", "trace.overhead_frac", "trace.stream_s", "input.collinear_share",
        "input.repeat_share",
    }
    assert {m["name"] for m in spec["per_layer"]} == layer_names
