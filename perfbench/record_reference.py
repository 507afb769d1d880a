"""Record the reference outputs the benchmark checks against.

Usage (from the repository root): python3 perfbench/record_reference.py

Writes perfbench/reference/verdicts.json (id, status, residual_terms and
witness of every catalog-A2_3 and verify-A1_2 report) and
perfbench/reference/eval_D4_4.json (the eval-D4_4 expression pool with the
term count and digest of each normal form).  Every pool entry is also
checked through the polynomial-spinor module before it is recorded, so the
reference does not rest on the engine alone.  Record only at a commit whose
outputs are trusted; the benchmark then holds later commits to them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import exprgen  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 20211028
PER_SHAPE = 60


def verdicts(reports) -> dict:
    return {r["id"]: [r["status"], r["residual_terms"], r["witness"]]
            for r in reports}


def record_verdicts():
    out = workloads.Outcome()
    catalog = workloads.CatalogA23(0, expected={})
    catalog.run_pass(out, catalog.setup(), 0)
    verify = workloads.VerifyA12(0, expected={})
    verify.run_pass(out, None, 0)
    return {"catalog-A2_3": verdicts(catalog.last_reports),
            "verify-A1_2": verdicts(verify.last_reports)}


def record_pool():
    from cheralg.groups import parse_group_spec
    group = parse_group_spec("D4@4")
    pool = []
    for i, (shape, expr) in enumerate(exprgen.make_pool(POOL_SEED, PER_SHAPE)):
        value, text = workloads.eval_request(group, expr)
        if not workloads.module_agrees(group, expr, POOL_SEED + i):
            raise SystemExit(f"module check failed on {expr}")
        pool.append([shape, expr, len(value.terms), workloads.digest(text)])
    return {"pool_seed": POOL_SEED, "per_shape": PER_SHAPE, "pool": pool}


def verdicts_text(data) -> str:
    """JSON with one report per line, so diffs stay readable."""
    parts = []
    for workload, entries in sorted(data.items()):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in sorted(entries.items()))
        parts.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def pool_text(data) -> str:
    """JSON with one pool entry per line."""
    head = "".join(f" {json.dumps(k)}: {json.dumps(v)},\n"
                   for k, v in data.items() if k != "pool")
    rows = ",\n".join(f"  {json.dumps(e)}" for e in data["pool"])
    return f"{{\n{head} \"pool\": [\n{rows}\n ]\n}}\n"


def main():
    ref = HERE / "reference"
    ref.mkdir(exist_ok=True)
    (ref / "verdicts.json").write_text(verdicts_text(record_verdicts()))
    (ref / "eval_D4_4.json").write_text(pool_text(record_pool()))


if __name__ == "__main__":
    main()
