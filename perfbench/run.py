"""Benchmark of the cheralg engine: three workloads, each in a fresh child.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog-A2_3 --seed 1 --seconds 15 \\
        --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

With ``--trace 0`` the result carries the end-to-end metrics, measured with
no tracing.  Times are seconds at reference interpreter speed (see
speed.py), which keeps them comparable on a host whose speed drifts.  With
``--trace 1`` it carries the per-layer metrics of a traced run, each
printed with the end-to-end metric and workload it should move, and the
tracing overhead.  Every run checks the program's outputs; a wrong or
failed operation counts in ``failed`` and in the printed error rate.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
stamped with commit, source digest, Python version, CPU count, CPU model
and seed, is written to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170

WORKLOADS = ("catalog-A2_3", "verify-A1_2", "eval-D4_4")

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_p90_ms", "ms", "lower", 0.25),
)

_CAT, _VER, _EVAL = WORKLOADS
_SCALARS = f"run_s on {_CAT} and {_VER}"
_CORE = f"run_s on {_CAT}; op_p90_ms on {_EVAL}"
_SUITE_NAMES = ("bwz", "centmember", "central", "corollary", "gensym",
                "health", "hk", "oracle", "osp12re", "p_O2O34", "p_O3O3",
                "p_OA2", "p_OabOuv", "p_OujOun", "p_bbH", "pin", "projector",
                "recursion", "routes", "scasimir")
_CACHES = ("cliff_ins", "cliff_pairs", "act_x_memo", "act_y_memo", "ycomm1",
           "ycommw", "misc_cache")

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("scalars.base_mul", "count", "lower", _SCALARS),
    ("scalars.base_mul_rational_share", "ratio", "higher", _SCALARS),
    ("scalars.base_inverse", "count", "lower", _SCALARS),
    ("groups.build_s", "s", "lower", f"setup_s on {_EVAL} only"),
    ("core.products", "count", "lower", _CORE),
    ("core.word_pairs", "count", "lower", _CORE),
    ("core.word_pair_distinct_share", "ratio", "lower", _CORE),
    ("core.peak_terms", "count", "lower", _CORE),
    *((f"core.cache.{c}", "count", "lower", _CORE) for c in _CACHES),
    ("osp.build_s", "s", "lower", f"run_s on {_CAT}"),
    ("osp.p_plus_s", "s", "lower", f"run_s on {_CAT}"),
    ("centralizer.o_proj_s", "s", "lower", f"run_s on {_CAT}"),
    ("oracle.act_s", "s", "lower", f"run_s on {_VER} only"),
    ("oracle.dunkl_s", "s", "lower", f"run_s on {_VER} only"),
    ("oracle.div_linear_s", "s", "lower", f"run_s on {_VER} only"),
    ("parser.parse_s", "s", "lower", f"op_p50_ms on {_EVAL}"),
    ("parser.eval_s", "s", "lower", f"op_p50_ms on {_EVAL}"),
    *((f"suites.{s}_s", "s", "lower", _SCALARS) for s in _SUITE_NAMES),
    ("cli.self_s", "s", "lower", f"run_s on {_VER}"),
    ("trace.overhead", "ratio", "lower",
     "none; traced run_s over untraced run_s"),
)


def end_to_end(raw) -> dict:
    lat = raw["op_ms"]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "run_s": statistics.median(raw["pass_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": p90,
    }


def per_layer(raw) -> dict:
    layers = raw["layers"]
    out = {name: float(layers.get(name, 0.0)) for name, *_ in PER_LAYER}
    out["trace.overhead"] = sum(raw["traced_pass_s"]) / sum(raw["pass_s"])
    return out


# -- provenance --------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(workload, seed, seconds, trace) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "commit": _commit(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model()}


# -- running -----------------------------------------------------------


def run_child(workload, seed, seconds, trace):
    """Run one workload in a fresh interpreter; None when it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish in {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(workload, seed, seconds, trace, raw) -> dict:
    """Print the human-readable block and return the result object."""
    info = stamp(workload, seed, seconds, trace)
    print(f"== {workload}  " + "  ".join(
        f"{k}={v}" for k, v in info.items() if k != "workload"))
    if trace:
        metrics = per_layer(raw)
        for name, unit, _, target in PER_LAYER:
            print(f"  {name:34s} {metrics[name]:16.6g} {unit:6s} -> {target}")
        print(f"  tracing overhead: traced {sum(raw['traced_pass_s']):.3f} s"
              f" / untraced {sum(raw['pass_s']):.3f} s over "
              f"{len(raw['pass_s'])} pass(es)")
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        metrics = end_to_end(raw)
        counts = {"setup_s": f"median of {len(raw['setup_s'])} set-ups",
                  "run_s": f"median of {len(raw['pass_s'])} passes; raw wall"
                           f" {statistics.median(raw['raw_pass_s']):.3f} s",
                  "peak_rss_mb": "child process peak",
                  "op_p50_ms": f"{len(raw['op_ms'])} requests",
                  "op_p90_ms": f"{len(raw['op_ms'])} requests"}
        for name, unit, _, _ in END_TO_END:
            print(f"  {name:12s} {metrics[name]:14.6f} {unit:3s} "
                  f"({counts[name]})")
        units = {name: unit for name, unit, *_ in END_TO_END}
    rate = raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0
    print(f"  error_rate   {rate:14.6f}     ({raw['failed']} of "
          f"{raw['attempted']} checked operations failed or were wrong)")
    for problem in raw["problems"]:
        print(f"  problem: {problem}")
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps({"stamp": info, "result": result,
                                  "problems": raw["problems"]}, indent=1))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cheralg" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        raw = run_child(name, args.seed, args.seconds, args.trace)
        if raw is None:
            return 1
        results[name] = report(name, args.seed, args.seconds, args.trace, raw)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
