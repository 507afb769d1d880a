"""Tests of the benchmark itself: metric table, generator, output checks
and tracer patching.  They use small groups and run in a few seconds.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import exprgen  # noqa: E402
import speed  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import BOUNDARIES, Tracer, _resolve  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_names_and_tables():
    doc = _benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert tuple(w["name"] for w in doc["workloads"]) == bench_run.WORKLOADS
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(bench_run.END_TO_END)
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [row[:3] for row in bench_run.PER_LAYER]
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_suite_metrics_cover_every_suite():
    from cheralg.suites import suite_names
    layer_names = {row[0] for row in bench_run.PER_LAYER}
    assert {f"suites.{s}_s" for s in suite_names()} <= layer_names


def test_generator_is_deterministic_per_seed():
    assert exprgen.make_pool(5, 4) == exprgen.make_pool(5, 4)
    assert exprgen.make_pool(5, 4) != exprgen.make_pool(6, 4)
    pool = workloads.load_json("eval_D4_4.json")["pool"]

    def first(seed, n=5):
        stream = workloads.eval_stream(seed, pool)
        return [next(stream) for _ in range(n)]

    assert first(1) == first(1)
    assert first(1) != first(2)
    for batch in first(3):
        assert sorted(e[0] for e in batch) == sorted(exprgen.SHAPES)
    # each shape deals every one of its entries before repeating any
    per_shape = len(pool) // len(exprgen.SHAPES)
    dealt = [e[1] for batch in first(4, per_shape) for e in batch]
    assert len(set(dealt)) == len(dealt) == len(pool)


def test_pool_matches_generator():
    ref = workloads.load_json("eval_D4_4.json")
    pool = exprgen.make_pool(ref["pool_seed"], ref["per_shape"])
    assert [tuple(e[:2]) for e in ref["pool"]] == pool


def _small_pool(group, exprs):
    out = []
    for expr in exprs:
        value, text = workloads.eval_request(group, expr)
        out.append(["t", expr, len(value.terms), workloads.digest(text)])
    return out


def test_wrong_reference_normal_form_raises_error_rate():
    from cheralg.groups import parse_group_spec
    group = parse_group_spec("A1@2")
    pool = _small_pool(group, ["y1*x1*s1", "[y2, x2*e1]"])
    good = workloads.Outcome()
    workloads.EvalD44(0, pool=pool).run_pass(good, group, 0)
    assert good.attempted == 1 and good.failed == 0
    pool[0][3] = "0" * 16                   # a deliberately wrong digest
    bad = workloads.Outcome()
    workloads.EvalD44(0, pool=pool[:1]).run_pass(bad, group, 0)
    assert bad.failed == bad.attempted == 1


def test_verdict_check_counts_mismatches():
    expected = {"a.one": ["pass", 0, None], "a.two": ["pass", 0, None]}
    reports = [{"id": "a.one", "status": "fail", "residual_terms": 2,
                "witness": "w", "reason": None},
               {"id": "a.new", "status": "skipped", "residual_terms": 0,
                "witness": None, "reason": "needs dimension >= 9"}]
    out = workloads.Outcome()
    workloads.check_reports(out, reports, expected)
    assert (out.attempted, out.failed) == (3, 2)   # wrong and missing


def test_module_check_sees_engine_values():
    from cheralg.groups import parse_group_spec
    group = parse_group_spec("A1@2")
    for expr in ("[y1, x1]*e2", "{gamma(x1 + x2), gamma(x2)}",
                 "M(x1, x2)*s1", "A(x1, x2)*y2", "rho(s1)*x1 - (y1*x2)/2",
                 "(x1 + k1*y2)^2"):
        assert workloads.module_agrees(group, expr, 7), expr


def test_tracer_patches_every_binding_and_restores():
    import cheralg.osp
    import cheralg.parser
    import cheralg.suites
    from cheralg.groups import parse_group_spec
    from cheralg.parser import evaluate
    from cheralg.core import Context
    original = cheralg.osp.p_plus
    tracer = Tracer()
    tracer.install()
    try:
        assert cheralg.suites.p_plus is not original
        assert cheralg.parser.p_plus is cheralg.osp.p_plus
        ctx = Context(parse_group_spec("A1@2"))
        evaluate(ctx, "Pp(y1*x1) + x1/2")
    finally:
        tracer.uninstall()
    assert cheralg.osp.p_plus is original
    assert cheralg.suites.p_plus is original
    fired = tracer.fired()
    assert {"osp.p_plus", "osp.build_osp", "core.product", "core.context",
            "scalars.base_mul", "scalars.base_inverse",
            "parser.eval_element"} <= fired
    metrics = tracer.layer_metrics()
    assert metrics["core.products"] > 0
    assert sum(metrics[f"core.cache.{c}"] for c in
               ("cliff_ins", "cliff_pairs", "act_x_memo", "act_y_memo",
                "ycomm1", "ycommw", "misc_cache")) > 0


def test_speed_meter_integrates_sampled_speed():
    meter = speed.SpeedMeter()
    meter.starts, meter.durations = [1.0, 2.0, 3.0], [0.1, 0.2, 0.1]
    ref = speed.KERNEL_REF_S

    def close(a, b):
        assert abs(a - b) < 1e-12

    # before the first sample the first sample's speed applies
    close(meter.seconds(0.0, 0.5), 0.5 * ref / 0.1)
    # kernel slices are left out; each stretch takes the last sample's speed
    close(meter.seconds(0.5, 2.5),
          0.5 * ref / 0.1 + 0.9 * ref / 0.1 + 0.3 * ref / 0.2)
    close(meter.busy(0.5, 2.5), 1.7)
    close(meter.seconds(2.05, 2.1), 0.0)
    close(meter.seconds(3.5, 4.0), 0.5 * ref / 0.1)


def test_every_boundary_resolves():
    for name, module, path in BOUNDARIES:
        owner, attr = _resolve(module, path)
        assert callable(owner.__dict__[attr]), name
