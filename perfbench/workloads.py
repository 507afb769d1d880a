"""The three workloads, their set-up, their passes and their output checks.

Each workload is a closed loop with one client: the next request is sent
only when the previous one has finished.  A pass is the workload's fixed
unit of work; passes repeat while they fit in the run's seconds, and at
least one pass always runs.

  catalog-A2_3  every catalog case except the oracle ones, one request per
                case, on one shared SuiteEnv over A2@3 with symbolic kappa
  verify-A1_2   the user command ``cheralg verify --group A1@2 --format
                json``, through cli.main with stdout captured
  eval-D4_4     a seeded stream of expressions; each request makes a fresh
                Context over D4@4, parses, evaluates and prints one
                expression

Every set-up, request and pass is timed as an interval and converted to
seconds at reference interpreter speed by speed.SpeedMeter.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from pathlib import Path

from speed import SpeedMeter

REFERENCE = Path(__file__).resolve().parent / "reference"

VERIFY_ARGV = ["verify", "--group", "A1@2", "--format", "json"]
SETUP_REPS = 15         # set-ups timed per run (catalog, verify)
EVAL_SETUP_REPS = 3     # D4@4 builds take seconds each
ORACLE_SAMPLES = 4      # eval results re-checked through the module per run


def load_json(name):
    with open(REFERENCE / name) as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Outcome:
    """Timed intervals and check counts of one run."""

    def __init__(self):
        self.setups: list = []        # (t0, t1)
        self.passes: list = []        # list of request intervals per pass
        self.traced_passes: list = []
        self.ops: list = []           # request intervals (t0, t1)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.layers: dict = {}

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def timings(self, meter: SpeedMeter) -> dict:
        """Set-up, pass and request times at reference speed."""
        def pass_s(p):
            return sum(meter.seconds(t0, t1) for t0, t1 in p)

        return {
            "setup_s": [meter.seconds(t0, t1) for t0, t1 in self.setups],
            "pass_s": [pass_s(p) for p in self.passes],
            "traced_pass_s": [pass_s(p) for p in self.traced_passes],
            "raw_pass_s": [sum(t1 - t0 for t0, t1 in p) for p in self.passes],
            "op_ms": [meter.seconds(t0, t1) * 1000.0 for t0, t1 in self.ops],
        }


# -- verdict checks (catalog and verify) -------------------------------


def check_reports(out: Outcome, reports, expected: dict):
    """Compare id, status, residual_terms and witness with the reference.

    ``reports`` are dicts; every pinned id must be present with the
    recorded verdict.  An id the reference does not know must pass, or be
    a dimension skip.
    """
    seen = set()
    for rep in reports:
        rid = rep["id"]
        seen.add(rid)
        got = [rep["status"], rep["residual_terms"], rep["witness"]]
        want = expected.get(rid)
        if want is None:
            ok = got == ["pass", 0, None] or (
                got == ["skipped", 0, None]
                and str(rep.get("reason", "")).startswith("needs dimension"))
        else:
            ok = got == want
        out.check(ok, f"{rid}: got {got}, expected {want}")
    for rid in sorted(set(expected) - seen):
        out.check(False, f"{rid}: missing from the reports")


def report_dict(r) -> dict:
    return {"id": r.id, "status": r.status,
            "residual_terms": r.residual_terms, "witness": r.witness,
            "reason": r.reason, "ms": r.ms}


# -- the closed loop ---------------------------------------------------


def run(workload, seconds, tracer=None):
    """Time the set-ups, then run passes while the next one, predicted to
    last as long as the previous one, still ends within ``seconds``.  The
    first pass always runs.

    With a tracer, the passes run for half the seconds untraced and are
    then replayed with the tracer installed, so the two pass times compare
    the same work.  Returns the Outcome and its timings.
    """
    out = Outcome()
    meter = SpeedMeter()
    meter.start()
    try:
        _run(workload, seconds, tracer, out, meter)
    finally:
        meter.stop()
    workload.finish(out)
    return out, out.timings(meter)


def _run(workload, seconds, tracer, out, meter):
    states = []
    for _ in range(workload.setup_reps if tracer is None else 1):
        t0 = time.perf_counter()
        states.append(workload.setup())
        out.setups.append((t0, time.perf_counter()))
    state = states.pop()
    budget = seconds if tracer is None else seconds / 2.0
    start = last = time.perf_counter()
    while not out.passes or time.perf_counter() - start + last <= budget:
        if workload.fresh_state_per_pass and out.passes:
            state = states.pop() if states else workload.setup()
        t0 = time.perf_counter()
        out.passes.append(workload.run_pass(out, state, len(out.passes)))
        last = time.perf_counter() - t0
    if tracer is None:
        return
    tracer.install()
    meter.on_slice = tracer.exclude
    try:
        state = workload.setup()
        tracer.end_setup()
        for i in range(len(out.passes)):
            if workload.fresh_state_per_pass and i:
                state = workload.setup()
            out.traced_passes.append(workload.run_pass(out, state, i, tracer))
    finally:
        meter.on_slice = None
        tracer.uninstall()
    out.layers = suite_seconds(workload.last_reports)


def suite_seconds(reports) -> dict:
    """Seconds per suite, summed from the reports' own ms fields."""
    from cheralg.suites import suite_names
    sums = {name: 0.0 for name in suite_names()}
    for rep in reports:
        name = rep["id"].split(".")[0]
        sums[name] = sums.get(name, 0.0) + rep["ms"] / 1000.0
    return {f"suites.{name}_s": v for name, v in sums.items()}


class Workload:
    """Set-up, pass and final checks of one workload.  ``run_pass`` returns
    the pass's request intervals and records its checks in ``out``."""

    setup_reps = SETUP_REPS
    fresh_state_per_pass = False
    last_reports = ()                 # reports of the last pass, if any

    def setup(self):
        raise NotImplementedError

    def run_pass(self, out, state, index, tracer=None) -> list:
        raise NotImplementedError

    def finish(self, out):
        """Checks made once, after every pass."""


class CatalogA23(Workload):
    """Every suite but the oracle on one shared SuiteEnv, one request per
    case; a pass starts from a fresh set-up, so its caches start cold.
    The env has the default RunOptions, like the verify command, so the
    seed only labels the run."""

    fresh_state_per_pass = True

    def __init__(self, seed, expected=None):
        self.expected = (load_json("verdicts.json")["catalog-A2_3"]
                         if expected is None else expected)

    def setup(self):
        from cheralg.suites import build_catalog, make_env
        env = make_env("A2@3")
        build_catalog()
        return env

    def run_pass(self, out, env, index, tracer=None):
        from cheralg.suites import catalog_ids, run_suite
        reports = []
        requests = []
        for cid in catalog_ids():
            if tracer is not None:
                tracer.request = cid
            t0 = time.perf_counter()
            got = run_suite(env, cid)
            t1 = time.perf_counter()
            requests.append((t0, t1))
            if len(got) != 1 or got[0].id != cid:
                out.check(False, f"{cid}: run_suite returned "
                                 f"{[r.id for r in got]}")
                continue
            if got[0].status != "skipped" and tracer is None:
                out.ops.append((t0, t1))
            reports.append(report_dict(got[0]))
        check_reports(out, reports, self.expected)
        self.last_reports = reports
        return requests


class VerifyA12(Workload):
    """The user command, in process.  It takes no seed, so its inputs are
    the same for every run; the seed only labels the run."""

    def __init__(self, seed, expected=None):
        self.expected = (load_json("verdicts.json")["verify-A1_2"]
                         if expected is None else expected)

    def setup(self):
        """The command's start-up work: parse the arguments, build the
        group and the catalog."""
        from cheralg import cli
        from cheralg.groups import parse_group_spec
        from cheralg.suites import build_catalog
        args = cli.build_arg_parser().parse_args(VERIFY_ARGV)
        parse_group_spec(args.group)
        build_catalog()

    def run_pass(self, out, state, index, tracer=None):
        from cheralg import cli
        if tracer is not None:
            tracer.request = "verify"
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(VERIFY_ARGV))
        t1 = time.perf_counter()
        out.check(code == 0, f"verify exited with {code}")
        reports = [json.loads(line) for line in buf.getvalue().splitlines()]
        if tracer is None:
            out.ops.append((t0, t1))
        check_reports(out, reports, self.expected)
        self.last_reports = reports
        return [(t0, t1)]


class EvalD44(Workload):
    """A seeded stream of expressions on D4@4; a pass is one batch holding
    one expression of every shape."""

    setup_reps = EVAL_SETUP_REPS

    def __init__(self, seed, pool=None):
        if pool is None:
            pool = load_json("eval_D4_4.json")["pool"]
        self.seed = seed
        self.stream = eval_stream(seed, pool)
        self.batches = []
        self.group = None

    def setup(self):
        from cheralg.groups import parse_group_spec
        self.group = parse_group_spec("D4@4")
        return self.group

    def run_pass(self, out, group, index, tracer=None):
        if index == len(self.batches):
            self.batches.append(next(self.stream))
        requests = []
        for shape, expr, terms, ref in self.batches[index]:
            if tracer is not None:
                tracer.request = expr
            t0 = time.perf_counter()
            value, text = eval_request(group, expr)
            t1 = time.perf_counter()
            requests.append((t0, t1))
            if tracer is not None:
                tracer.harvest()
            else:
                out.ops.append((t0, t1))
            out.check(digest(text) == ref and len(value.terms) == terms,
                      f"{expr}: normal form differs from the reference")
        return requests

    def finish(self, out):
        check_with_module(out, self.group, self.batches, self.seed)


WORKLOAD_TYPES = {"catalog-A2_3": CatalogA23, "verify-A1_2": VerifyA12,
                  "eval-D4_4": EvalD44}


def eval_stream(seed: int, pool):
    """Endless batches; each batch holds one pool entry of every shape, in
    a seeded order.  Each shape deals its entries from seeded shuffles of
    all of them, so every run draws them about equally often and runs
    differ in order, not in the mix.  Entries are (shape, expression,
    terms, digest)."""
    by_shape: dict = {}
    for entry in pool:
        by_shape.setdefault(entry[0], []).append(entry)
    shapes = sorted(by_shape)
    rng = random.Random(seed)
    decks = {s: [] for s in shapes}
    while True:
        order = list(shapes)
        rng.shuffle(order)
        batch = []
        for s in order:
            if not decks[s]:
                decks[s] = rng.sample(by_shape[s], len(by_shape[s]))
            batch.append(decks[s].pop())
        yield batch


def eval_request(group, expr: str):
    """One request: fresh Context, parse, evaluate, print."""
    from cheralg.core import Context
    from cheralg.parser import Evaluator, parse_expression
    ctx = Context(group)
    value = Evaluator(ctx).eval_element(parse_expression(expr))
    return value, str(value)


# -- module cross-check of eval results --------------------------------


def _parity(node) -> int:
    from cheralg.parser import Bracket, Call, Name, Neg, Num
    if isinstance(node, Num):
        return 0
    if isinstance(node, Name):
        return 1 if node.ident[0] == "e" and node.ident[1:].isdigit() else 0
    if isinstance(node, Neg):
        return _parity(node.arg)
    if isinstance(node, Bracket):
        return (_parity(node.left) + _parity(node.right)) % 2
    if isinstance(node, Call):
        if node.fn == "gamma":
            return 1
        if node.fn in ("rho", "A"):
            return len(node.args) % 2
        if node.fn == "M":
            return 0
        raise ValueError(f"no module rule for {node.fn}")
    if node.op in "+-":
        p = _parity(node.left)
        if p != _parity(node.right):
            raise ValueError("mixed parity sum")
        return p
    if node.op == "*":
        return (_parity(node.left) + _parity(node.right)) % 2
    if node.op == "/":
        return _parity(node.left)
    return (_parity(node.left) * node.right.value) % 2


def module_apply(mod, ev, node, vec):
    """Act with the value of ``node`` on ``vec`` by composing the module
    actions of its leaves.  Products become operator composition, so the
    engine's rewriting is never used."""
    from cheralg.geometry import beta
    from cheralg.parser import Bracket, Call, Name, Neg, Num
    from cheralg.scalars import as_scalar
    ctx = ev.ctx
    if isinstance(node, Num):
        return vec.scale(as_scalar(node.value))
    if isinstance(node, Name):
        return mod.act(ev.eval_element(node), vec)
    if isinstance(node, Neg):
        return -module_apply(mod, ev, node.arg, vec)
    if isinstance(node, Bracket):
        a, b = node.left, node.right
        ab = module_apply(mod, ev, a, module_apply(mod, ev, b, vec))
        ba = module_apply(mod, ev, b, module_apply(mod, ev, a, vec))
        sign = -1 if _parity(a) and _parity(b) else 1
        if node.kind == "anti":
            sign = -sign
        return ab - ba if sign > 0 else ab + ba
    if isinstance(node, Call):
        if node.fn == "gamma":
            return mod.act(ev.eval_element(node), vec)
        if node.fn == "rho":
            w = vec
            for arg in reversed(node.args):
                k = int(arg.ident[1:]) - 1
                w = mod.act(ctx.rho([k]), w)
            return w
        covs = [ev.eval_covector(a) for a in node.args]
        if node.fn == "M":
            u, v = covs
            uv = mod.act(ctx.from_covector(u),
                         mod.act(ctx.from_vector(beta(v)), vec))
            vu = mod.act(ctx.from_covector(v),
                         mod.act(ctx.from_vector(beta(u)), vec))
            return uv - vu
        if node.fn == "A":
            gammas = [ctx.gamma(u) for u in covs]
            acc = None
            for perm in itertools.permutations(range(len(covs))):
                w = vec
                for idx in reversed(perm):
                    w = mod.act(gammas[idx], w)
                if _perm_sign(perm) < 0:
                    w = -w
                acc = w if acc is None else acc + w
            return acc.scale(as_scalar(1) / math.factorial(len(covs)))
        raise ValueError(f"no module rule for {node.fn}")
    if node.op == "+":
        return (module_apply(mod, ev, node.left, vec)
                + module_apply(mod, ev, node.right, vec))
    if node.op == "-":
        return (module_apply(mod, ev, node.left, vec)
                - module_apply(mod, ev, node.right, vec))
    if node.op == "*":
        return module_apply(mod, ev, node.left,
                            module_apply(mod, ev, node.right, vec))
    if node.op == "/":
        return module_apply(mod, ev, node.left, vec).scale(
            as_scalar(1) / node.right.value)
    w = vec
    for _ in range(node.right.value):
        w = module_apply(mod, ev, node.left, w)
    return w


def _perm_sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm))
                     for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def module_agrees(group, expr: str, vec_seed: int) -> bool:
    """Does the engine's normal form act on a seeded vector as the
    expression's factors do, composed in the module?"""
    from cheralg.core import Context
    from cheralg.oracle import SpinorModule
    from cheralg.parser import Evaluator, parse_expression
    ctx = Context(group)
    ev = Evaluator(ctx)
    node = parse_expression(expr)
    value = ev.eval_element(node)
    mod = SpinorModule(ctx)
    vec = mod.random_vector(vec_seed, max_degree=2)
    return mod.act(value, vec) == module_apply(mod, ev, node, vec)


def check_with_module(out: Outcome, group, batches, seed):
    rng = random.Random(seed ^ 0x5EED)
    done = [entry for batch in batches for entry in batch]
    for shape, expr, _, _ in rng.sample(done, min(ORACLE_SAMPLES, len(done))):
        out.check(module_agrees(group, expr, rng.randrange(10 ** 9)),
                  f"{expr}: module action differs from the normal form")

