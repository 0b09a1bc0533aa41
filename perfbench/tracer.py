"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each module under src/mulmetric
(and the distance and sampler of every space the spaces module builds)
while a traced round runs, and restores the originals afterwards, so an
untraced round runs the program untouched.  It records spans, not log
lines: every wrapped call is a span with a layer, a name and the span that
called it.  Spans are aggregated in memory as they close (per layer and
name: calls entering the layer, inclusive time, self time), because a
round makes hundreds of thousands of distance calls.

A call "enters" a layer when its caller is in another layer; counts are of
entering calls, so the inner distances of the product space or the calls
bw_extract makes to monotone_subsequence are not counted twice.  Self time
is a span's duration minus the time covered by its child spans.

`cli` binds verify_axioms, verify_contraction and compile_expr by name at
import, so those are wrapped in the `cli` namespace (and compile_expr also
in `registry`); `cli` looks up spaces.*, registry.* and fixed_point.* when
it calls them, so those are wrapped on their own modules.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict

SPACE_FACTORIES = ("positive_reals", "positive_interval", "positive_vectors",
                   "exp_metric", "real_line_exp", "product_space", "function_space",
                   "segment_space", "segment_half_power_map")
REGISTRY_FUNCS = ("build_space", "build_selfmap", "decode_point", "encode_point",
                  "parse_problem", "serialize_problem")
SOLVERS = ("solve", "banach_solve", "kannan_solve", "chatterjea_solve",
           "ball_solve", "power_solve")
DIAGNOSTICS = ("convergence_diagnostic", "cauchy_diagnostic", "bounded_diagnostic",
               "check_supremum", "check_infimum", "monotone_subsequence",
               "bw_extract", "continuity_probe")


class Tracer:
    def __init__(self, mm):
        self.mm = mm
        self.active = False
        self.stack: list[list] = []           # [layer, child seconds]
        self.calls = Counter()                # (layer, name) -> entering calls
        self.edges = Counter()                # (caller layer, layer) -> entering calls
        self.incl = defaultdict(float)        # (layer, name) -> seconds, entering calls
        self.self_s = defaultdict(float)      # (layer, name) -> self seconds, all calls
        self.extra = Counter()                # counts read from arguments and results
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer, name, fn, on_call=None, on_result=None):
        if getattr(fn, "__perfbench__", False):
            return fn
        tr = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            parent = stack[-1] if stack else None
            entering = parent is None or parent[0] != layer
            if entering:
                tr.calls[(layer, name)] += 1
                tr.edges[(parent[0] if parent else "bench", layer)] += 1
                if on_call is not None:
                    on_call(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                tr.self_s[(layer, name)] += dur - frame[1]
                if entering:
                    tr.incl[(layer, name)] += dur
                if parent is not None:
                    parent[1] += dur
            if entering and on_result is not None:
                on_result(result)
            return result

        traced.__perfbench__ = True
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def traced_space(self, space):
        """The same space with its distance and sampler wrapped."""
        return dataclasses.replace(
            space,
            dist=self.wrap("metric_core", "dist", space.dist),
            sample=self.wrap("spaces", "sample", space.sample))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / remove ----------------------------------------------------

    def install(self):
        mm, extra = self.mm, self.extra
        for name in SPACE_FACTORIES:
            fn = self.wrap("spaces", name, getattr(mm.spaces, name))
            self._patch(mm.spaces, name, self._space_factory(fn))

        self_map = mm.spaces.SelfMap
        call = self_map.__call__

        def counted_call(map_self, p):
            if self.active and self.stack:
                extra[f"map_calls:{self.stack[-1][0]}"] += 1
            return call(map_self, p)

        self._patch(self_map, "__call__", counted_call)

        for name in REGISTRY_FUNCS:
            self._patch(mm.registry, name, self.wrap("registry", name, getattr(mm.registry, name)))

        def steps(report):
            extra["fixed_point.steps"] += report.iterations

        for name in SOLVERS:
            self._patch(mm.fixed_point, name,
                        self.wrap("fixed_point", name, getattr(mm.fixed_point, name),
                                  on_result=steps))

        def pairs(args, kwargs):
            extra["fixed_point.estimate_pairs"] += kwargs.get("n_pairs", args[1] if len(args) > 1 else 0)

        self._patch(mm.fixed_point, "estimate_lambda",
                    self.wrap("fixed_point", "estimate_lambda", mm.fixed_point.estimate_lambda,
                              on_call=pairs))

        if hasattr(mm, "sequence_analysis"):
            for name in DIAGNOSTICS:
                self._patch(mm.sequence_analysis, name,
                            self.wrap("sequence_analysis", name,
                                      getattr(mm.sequence_analysis, name)))
        if hasattr(mm, "cli"):
            def verified(report):
                extra["verifier.samples"] += report.samples_used
                extra["verifier.witnesses"] += len(report.witnesses)

            for name in ("verify_axioms", "verify_contraction"):
                self._patch(mm.cli, name,
                            self.wrap("verifier", name, getattr(mm.cli, name), on_result=verified))
            compile_expr = self._compile_expr(mm.expressions.compile_expr)
            self._patch(mm.cli, "compile_expr", compile_expr)
            self._patch(mm.registry, "compile_expr", compile_expr)
            self._patch(mm.cli, "main", self.wrap("cli", "main", mm.cli.main))

    def remove(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _space_factory(self, factory):
        space_type = self.mm.spaces.SpaceInstance

        def build(*args, **kwargs):
            built = factory(*args, **kwargs)
            if self.active and isinstance(built, space_type):
                built = self.traced_space(built)
            return built

        return build

    def _compile_expr(self, compile_expr):
        wrapped = self.wrap("expressions", "compile_expr", compile_expr)

        def build(*args, **kwargs):
            fn = wrapped(*args, **kwargs)
            return self.wrap("expressions", "eval", fn) if self.active else fn

        return build

    # -- totals --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every accumulator as a flat dict of floats, for per-round deltas."""
        snap = {}
        for (layer, name), v in self.calls.items():
            snap[f"calls|{layer}|{name}"] = v
        for (caller, layer), v in self.edges.items():
            snap[f"edges|{caller}|{layer}"] = v
        for (layer, name), v in self.incl.items():
            snap[f"incl|{layer}|{name}"] = v
        for (layer, name), v in self.self_s.items():
            snap[f"self|{layer}|{name}"] = v
        for k, v in self.extra.items():
            snap[f"extra|{k}"] = v
        return snap


def layer_metrics(totals: dict, rounds: int) -> dict:
    """Per-round per-layer metrics from summed, speed-normalised snapshots."""

    def total(kind, layer=None, name=None):
        return sum(v for k, v in totals.items()
                   if k.startswith(kind + "|")
                   and (layer is None or k.split("|")[1] == layer)
                   and (name is None or k.split("|")[2] == name))

    def per_call_us(layer, name):
        n = total("calls", layer, name)
        return total("incl", layer, name) / n * 1e6 if n else 0.0

    def self_ms(layer, name=None):
        return total("self", layer, name) * 1e3 / rounds

    def count(v):
        v = v / rounds
        return int(v) if v == int(v) else v

    extra = lambda key: totals.get(f"extra|{key}", 0)  # noqa: E731
    return {
        "spaces.samples": count(total("calls", "spaces", "sample")),
        "spaces.sample_us": per_call_us("spaces", "sample"),
        "metric_core.dists": count(total("calls", "metric_core", "dist")),
        "metric_core.dist_us": per_call_us("metric_core", "dist"),
        "verifier.samples": count(extra("verifier.samples")),
        "verifier.witnesses": count(extra("verifier.witnesses")),
        "verifier.self_ms": self_ms("verifier"),
        "expressions.compiles": count(total("calls", "expressions", "compile_expr")),
        "expressions.evals": count(total("calls", "expressions", "eval")),
        "expressions.eval_us": per_call_us("expressions", "eval"),
        "fixed_point.steps": count(extra("fixed_point.steps")),
        "fixed_point.map_calls": count(extra("map_calls:fixed_point")),
        "fixed_point.estimate_pairs": count(extra("fixed_point.estimate_pairs")),
        "fixed_point.self_ms": self_ms("fixed_point"),
        "sequence_analysis.calls": count(total("calls", "sequence_analysis")),
        "sequence_analysis.dists": count(totals.get("edges|sequence_analysis|metric_core", 0)),
        "sequence_analysis.self_ms": self_ms("sequence_analysis"),
        "sequence_analysis.bounded_self_ms": self_ms("sequence_analysis", "bounded_diagnostic"),
        "registry.calls": count(total("calls", "registry")),
        "registry.self_ms": self_ms("registry"),
        "cli.self_ms": self_ms("cli"),
        "cli.out_bytes": count(extra("cli.out_bytes")),
    }
