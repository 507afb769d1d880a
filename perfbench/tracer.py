"""Layer tracing from outside the program.

The tracer wraps public entry points of the cheralg modules.  Modules bind
names with ``from ... import``, so a function is patched at every place it
is looked up: every cheralg module attribute that holds the original object
is replaced.  Methods are patched on their class.

Each wrapped call records a span (name, start, end, parent span, request id)
in memory, up to a cap; self time and inclusive time are aggregated on the
fly for every call, also past the cap.  Scalar products and inverses are
only counted, since they are far too many for spans.  The spans are written
out once, when the run ends.

After a traced run, ``check_fired`` asserts that every boundary expected on
the workload was entered at least once, so a binding the patcher missed
cannot silently read 0.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time

# (span name, module, attribute path) of every wrapped boundary.
BOUNDARIES = (
    ("groups.build_group", "cheralg.groups", "build_group"),
    ("core.product", "cheralg.core", "Context._mul_terms"),
    ("osp.build_osp", "cheralg.osp", "build_osp"),
    ("osp.p_plus", "cheralg.osp", "p_plus"),
    ("centralizer.o_proj", "cheralg.centralizer", "o_proj"),
    ("suites.run_suite", "cheralg.suites", "run_suite"),
    ("suites.run_oracle_crosscheck", "cheralg.suites",
     "run_oracle_crosscheck"),
    ("oracle.act", "cheralg.oracle", "SpinorModule.act"),
    ("oracle.dunkl", "cheralg.oracle", "SpinorModule.dunkl"),
    ("oracle.poly_div_linear", "cheralg.oracle", "poly_div_linear"),
    ("parser.parse_expression", "cheralg.parser", "parse_expression"),
    ("parser.eval_element", "cheralg.parser", "Evaluator.eval_element"),
    ("cli.main", "cheralg.cli", "main"),
)

# Rewrite caches of a Context, by attribute name without the underscore.
CONTEXT_CACHES = ("cliff_ins", "cliff_pairs", "act_x_memo", "act_y_memo",
                  "ycomm1", "ycommw", "misc_cache")

# Boundaries that must fire on each workload.
_COMMON = {"scalars.base_mul", "core.context", "core.product",
           "groups.build_group"}
EXPECTED = {
    "catalog-A2_3": _COMMON | {"osp.build_osp", "osp.p_plus",
                               "centralizer.o_proj", "suites.run_suite"},
    "verify-A1_2": _COMMON | {"osp.build_osp", "osp.p_plus",
                              "centralizer.o_proj", "suites.run_suite",
                              "suites.run_oracle_crosscheck", "oracle.act",
                              "oracle.dunkl", "oracle.poly_div_linear",
                              "scalars.base_inverse", "cli.main"},
    "eval-D4_4": _COMMON | {"parser.parse_expression", "parser.eval_element",
                            "scalars.base_inverse"},
}

MAX_SPANS = 100_000


def _resolve(module: str, path: str):
    mod = importlib.import_module(module)
    owner, _, attr = path.rpartition(".")
    return (getattr(mod, owner) if owner else mod), attr


def _cheralg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cheralg"
                                  or name.startswith("cheralg."))]


class Tracer:
    """Spans, counters and cache sizes of one traced run."""

    def __init__(self):
        self._patches: list = []      # (owner, attr, original)
        self._contexts: list = []
        self._pairs: dict = {}        # id(ctx) -> set of (word, word)
        self.setup_fired: set = set()
        self.setup_build_s = 0.0
        self.reset()

    def reset(self):
        self.request = None
        self.spans: list = []         # (name, start, end, parent, request)
        self.dropped_spans = 0
        self.calls: dict = {}
        self.incl: dict = {}          # outermost-call time per name
        self.self_time: dict = {}
        self._active: dict = {}       # re-entrancy depth per name
        self._stack: list = []        # frames, see _enter
        self.base_mul = 0
        self.base_mul_rational = 0
        self.base_inverse = 0
        self.products = 0
        self.word_pairs = 0
        self.distinct_pairs = 0
        self.peak_terms = 0
        self.contexts_created = 0
        self.cache_entries = {name: 0 for name in CONTEXT_CACHES}

    def end_setup(self):
        """Keep what the set-up fired and its group build time, then
        clear the counters; contexts made in set-up stay registered, since
        the passes use them."""
        self.setup_fired |= self.fired()
        self.setup_build_s += self.incl.get("groups.build_group", 0.0)
        self.reset()

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1
        self._active[name] = self._active.get(name, 0) + 1
        parent = self._stack[-1][3] if self._stack else -1
        idx = -1
        if len(self.spans) < MAX_SPANS:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped_spans += 1
        # name, start, child time, span index, parent, excluded time
        self._stack.append([name, time.perf_counter(), 0.0, idx, parent, 0.0])

    def exclude(self, seconds):
        """Leave time spent outside the program (a speed-meter slice) out
        of every open span's duration."""
        for frame in self._stack:
            frame[5] += seconds

    def _exit(self):
        end = time.perf_counter()
        name, start, child, idx, parent, excluded = self._stack.pop()
        dur = end - start - excluded
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        depth = self._active[name] - 1
        self._active[name] = depth
        if depth == 0:
            self.incl[name] = self.incl.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx] = (name, start, end, parent, self.request)

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        wrapped.__wrapped__ = fn
        return wrapped

    def _product_wrapper(self, fn):
        tracer = self

        def _mul_terms(ctx, t1, t2, graded_sign=False):
            tracer.products += 1
            tracer.word_pairs += len(t1) * len(t2)
            seen = tracer._pairs.get(id(ctx))
            if seen is None:
                seen = tracer._pairs[id(ctx)] = set()
            seen.update(itertools.product(t1, t2))
            tracer._enter("core.product")
            try:
                out = fn(ctx, t1, t2, graded_sign)
            finally:
                tracer._exit()
            tracer.peak_terms = max(tracer.peak_terms, len(t1), len(t2),
                                    len(out))
            return out
        _mul_terms.__wrapped__ = fn
        return _mul_terms

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        """Replace every module-level binding of ``original``."""
        hits = 0
        for mod in _cheralg_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, key, new)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {original!r} found")

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self):
        for name, module, path in BOUNDARIES:
            owner, attr = _resolve(module, path)
            fn = owner.__dict__[attr]
            if name == "core.product":
                self._patch(owner, attr, self._product_wrapper(fn))
            elif isinstance(owner, type):
                self._patch(owner, attr, self._span_wrapper(name, fn))
            else:
                self._patch_everywhere(fn, self._span_wrapper(name, fn))
        self._install_counters()

    def _install_counters(self):
        from cheralg.core import Context
        from cheralg.scalars import BaseNumber

        tracer = self
        mul = BaseNumber.__dict__["__mul__"]
        inverse = BaseNumber.__dict__["inverse"]
        init = Context.__dict__["__init__"]

        def base_mul(a, b):
            tracer.base_mul += 1
            if not (a.b or a.c or a.d) and (
                    type(b) is not BaseNumber or not (b.b or b.c or b.d)):
                tracer.base_mul_rational += 1
            return mul(a, b)

        def base_inverse(a):
            tracer.base_inverse += 1
            return inverse(a)

        def context_init(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            for name in CONTEXT_CACHES:
                if not isinstance(getattr(ctx, "_" + name, None), dict):
                    raise RuntimeError(f"Context has no cache _{name}")
            tracer._contexts.append(ctx)
            tracer.contexts_created += 1

        self._patch(BaseNumber, "__mul__", base_mul)
        self._patch(BaseNumber, "__rmul__", base_mul)
        self._patch(BaseNumber, "inverse", base_inverse)
        self._patch(Context, "__init__", context_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- contexts ------------------------------------------------------

    def harvest(self):
        """Fold the cache sizes and distinct word pairs of every context
        created since the last harvest into the totals, and drop them.
        The caches only grow, so their sizes count the misses."""
        for ctx in self._contexts:
            for name in CONTEXT_CACHES:
                self.cache_entries[name] += len(getattr(ctx, "_" + name))
            self.distinct_pairs += len(self._pairs.pop(id(ctx), ()))
        self._contexts.clear()

    # -- results -------------------------------------------------------

    def fired(self) -> set:
        out = set(self.setup_fired)
        out.update(name for name, n in self.calls.items() if n)
        if self.base_mul:
            out.add("scalars.base_mul")
        if self.base_inverse:
            out.add("scalars.base_inverse")
        if self.contexts_created:
            out.add("core.context")
        return out

    def check_fired(self, workload: str):
        missing = sorted(EXPECTED[workload] - self.fired())
        if missing:
            raise RuntimeError(
                f"traced boundaries never fired on {workload}: {missing}")

    def layer_metrics(self) -> dict:
        self.harvest()
        pairs, muls = self.word_pairs, self.base_mul
        out = {
            "scalars.base_mul": muls,
            "scalars.base_mul_rational_share":
                self.base_mul_rational / muls if muls else 0.0,
            "scalars.base_inverse": self.base_inverse,
            "core.products": self.products,
            "core.word_pairs": pairs,
            "core.word_pair_distinct_share":
                self.distinct_pairs / pairs if pairs else 0.0,
            "core.peak_terms": self.peak_terms,
            "groups.build_s":
                self.setup_build_s + self.incl.get("groups.build_group", 0.0),
            "osp.build_s": self.incl.get("osp.build_osp", 0.0),
            "osp.p_plus_s": self.incl.get("osp.p_plus", 0.0),
            "centralizer.o_proj_s": self.incl.get("centralizer.o_proj", 0.0),
            "oracle.act_s": self.incl.get("oracle.act", 0.0),
            "oracle.dunkl_s": self.incl.get("oracle.dunkl", 0.0),
            "oracle.div_linear_s":
                self.incl.get("oracle.poly_div_linear", 0.0),
            "parser.parse_s": self.incl.get("parser.parse_expression", 0.0),
            "parser.eval_s": self.incl.get("parser.eval_element", 0.0),
            "cli.self_s": self.self_time.get("cli.main", 0.0),
        }
        for name in CONTEXT_CACHES:
            out[f"core.cache.{name}"] = self.cache_entries[name]
        return out

    def write_spans(self, path):
        """Write the recorded spans and the per-name aggregates as JSON."""
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3],
                       s[4]] for s in self.spans if s is not None],
            "dropped_spans": self.dropped_spans,
            "calls": self.calls,
            "inclusive_s": self.incl,
            "self_s": self.self_time,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
