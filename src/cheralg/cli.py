"""Command-line front end.

Subcommands:

    eval EXPR           print the normal form of an expression
    commute A B         print the normal form of the graded commutator
    verify              run identity suites and oracle checks to exact
                        zero; --suite picks a suite, case id or id prefix,
                        --seed and --max-degree shape the seeded random
                        elements
    list-suites         show suite names and case counts
    info                show group, reflection, and parameter data

Exit codes: 0 when everything evaluated/passed, 1 when any identity failed,
2 for usage, parse, or evaluation errors, arithmetic errors included
(division by zero, a failed relation check, a projector series past its
nilpotence bound).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .core import Context, supercommutator
from .groups import from_generators, parse_group_spec
from .parser import EvalError, ParseError, parse_expression, Evaluator
from .scalars import BN_I, BaseNumber
from .suites import (RunOptions, SuiteEnv, UnknownSuite, catalog_ids,
                     oracle_ids, run_suite, suite_names)

_RAT = r"[+-]?\d+(?:/\d+)?"


def parse_kappa_value(tok: str) -> BaseNumber:
    """Accept rationals like ``3/2`` and complex literals like ``1+2i``."""
    s = tok.strip().replace(" ", "")
    if s in ("i", "+i"):
        return BN_I
    if s == "-i":
        return -BN_I
    m = re.fullmatch(rf"({_RAT})i", s)
    if m:
        return BaseNumber(0, Fraction(m.group(1)))
    m = re.fullmatch(rf"({_RAT})(?:([+-]\d+(?:/\d+)?|[+-])i)?", s)
    if m:
        re_part = Fraction(m.group(1))
        im = m.group(2)
        if im is None:
            return BaseNumber(re_part)
        if im == "+":
            return BaseNumber(re_part, 1)
        if im == "-":
            return BaseNumber(re_part, -1)
        return BaseNumber(re_part, Fraction(im))
    raise ValueError(f"cannot parse deformation value {tok!r}; "
                     "use p/q or a+bi forms")


def _load_group(spec: str):
    if spec.startswith("custom:"):
        path = spec[len("custom:"):]
        with open(path) as fh:
            data = json.load(fh)
        gens = data["generators"] if isinstance(data, dict) else data
        mats = [[[Fraction(v) for v in row] for row in mat] for mat in gens]
        gram = None
        if isinstance(data, dict) and data.get("gram") is not None:
            gram = [[Fraction(v) for v in row] for row in data["gram"]]
        return from_generators(mats, gram=gram, label=f"custom:{path}")
    return parse_group_spec(spec)


def _add_common(p, with_run_opts=False):
    p.add_argument("--group", default="A1@2",
                   help="group spec: A1@2, A2@3, B2@2, A1@5, A1@6, or "
                        "custom:<file>")
    p.add_argument("--kappa", default="symbolic",
                   help="'symbolic' or comma-separated per-class values "
                        "(p/q or a+bi)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    if with_run_opts:
        p.add_argument("--seed", type=int, default=2024,
                       help="seed of the random elements in the health and "
                            "oracle suites")
        p.add_argument("--max-degree", type=int, default=2,
                       help="largest xy-degree of those random elements "
                            "(the oracle's module vectors take at least 3)")


def _kappa_values(args, ctx: Context):
    if args.kappa == "symbolic":
        return None
    values = [parse_kappa_value(v) for v in args.kappa.split(",")]
    if len(values) != ctx.num_classes:
        raise ValueError(
            f"group has {ctx.num_classes} reflection classes, "
            f"got {len(values)} deformation values")
    return values


def _print_value(args, ctx, src, value):
    if args.kappa != "symbolic":
        value = value.substitute_kappa(
            {i: v for i, v in enumerate(_kappa_values(args, ctx))})
    if args.format == "json":
        print(json.dumps({"expr": src, "group": ctx.group.label,
                          "kappa": args.kappa, "value": str(value)},
                         sort_keys=True))
    else:
        print(value)


def _report_table(reports):
    wid = max([len(r.id) for r in reports] + [10])
    lines = [f"{'id':<{wid}}  {'status':<7} {'terms':>5} {'ms':>9}  note"]
    for r in reports:
        note = r.witness or r.reason or ""
        lines.append(f"{r.id:<{wid}}  {r.status:<7} {r.residual_terms:>5} "
                     f"{r.ms:>9.1f}  {note}")
    return "\n".join(lines)


def cmd_eval(args) -> int:
    group = _load_group(args.group)
    ctx = Context(group)
    value = Evaluator(ctx).eval_element(parse_expression(args.expr))
    _print_value(args, ctx, args.expr, value)
    return 0


def cmd_commute(args) -> int:
    group = _load_group(args.group)
    ctx = Context(group)
    ev = Evaluator(ctx)
    a = ev.eval_element(parse_expression(args.a))
    b = ev.eval_element(parse_expression(args.b))
    _print_value(args, ctx, f"[{args.a}, {args.b}]", supercommutator(a, b))
    return 0


def cmd_verify(args) -> int:
    group = _load_group(args.group)
    options = RunOptions(seed=args.seed, max_degree=args.max_degree)
    env = SuiteEnv(group, options)
    reports = run_suite(env, args.suite,
                        kappa_values=_kappa_values(args, env.ctx))
    if args.format == "json":
        for r in reports:
            print(r.to_json())
    else:
        print(_report_table(reports))
        npass = sum(r.status == "pass" for r in reports)
        nskip = sum(r.status == "skipped" for r in reports)
        nfail = sum(r.status == "fail" for r in reports)
        print(f"-- {npass} pass, {nfail} fail, {nskip} skipped")
    return 1 if any(r.status == "fail" for r in reports) else 0


def cmd_list_suites(args) -> int:
    prefixes = [cid.split(".")[0] for cid in catalog_ids() + oracle_ids()]
    for name in suite_names():
        extra = " (engine/module cross-check)" if name == "oracle" else ""
        print(f"{name:12s} {prefixes.count(name):3d} cases{extra}")
    return 0


def cmd_info(args) -> int:
    group = _load_group(args.group)
    out = {
        "group": group.label,
        "order": group.order,
        "dim": group.dim,
        "reflection_classes": group.num_classes,
        "reflections": [
            {"name": f"s{i + 1}",
             "root": [str(c) for c in r.root],
             "coroot": [str(c) for c in r.coroot],
             "root_norm": str(r.root_norm),
             "kappa": f"k{r.class_id + 1}",
             "element_index": r.elem}
            for i, r in enumerate(group.reflections)],
    }
    if args.format == "json":
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"group {out['group']}: order {out['order']}, dimension "
              f"{out['dim']}, {out['reflection_classes']} reflection class(es)")
        for r in out["reflections"]:
            root = " ".join(r["root"])
            print(f"  {r['name']}: root ({root}), |root|^2 = {r['root_norm']},"
                  f" parameter {r['kappa']}, element #{r['element_index']}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cheralg",
        description="Exact engine for the deformed Weyl-Clifford "
                    "superalgebra: evaluate expressions and verify the "
                    "identity catalog to exact zero.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print the normal form of an expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("commute",
                       help="print the graded commutator of two expressions")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    p.set_defaults(fn=cmd_commute)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("--suite", default="all",
                   help="suite name, case id or id prefix (oracle.l_Buv), "
                        "or 'all' (see list-suites)")
    _add_common(p, with_run_opts=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("list-suites", help="list suite names and case counts")
    p.set_defaults(fn=cmd_list_suites)

    p = sub.add_parser("info", help="print group and reflection data")
    _add_common(p)
    p.set_defaults(fn=cmd_info)
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, EvalError, UnknownSuite, ValueError, OSError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
