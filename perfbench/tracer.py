"""Span and counter tracing installed around celab's public entry points.

Nothing inside ``celab`` is edited: ``install`` replaces functions and
methods with timing wrappers, at every ``celab`` module that bound the
original (``harness`` imports ``descriptors.member`` as ``desc_member``
and ``relations.decide`` by name, for instance), on the ``Evaluator``
and ``TrackedFamilyMachine`` classes, on every registered
``CombinatorDef.step`` and on every ``Reduction``'s build, predict and
validator callables.

Self time is attributed with a stack: a wrapped call's duration minus
the durations of the wrapped calls it made.  Evaluation nests
(``approx`` -> combinator step -> ``approx`` of an argument), so a flat
per-function timer would count the same second several times.

Spans (key, start, end, id, parent id, operation id) are kept in memory
for calls less than ``SPAN_DEPTH`` wrapped frames deep and written out
by ``write_spans`` at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# The names of the per-combinator and per-reduction metrics are fixed,
# as BENCHMARK.json lists them; one that is no longer registered reads 0.
# The three combinators that exist only to be broken by registered
# mutants (expand_columns_swapped, replicate_columns_shifted,
# tail_columns_short) are wrapped like the rest but get no metric.
PRODUCTION_COMBINATORS = (
    "block_union", "cut_below", "expand_columns", "from_descriptor",
    "group_columns", "interval_hull", "level_columns", "max_factorials",
    "median_multiples", "membership_tree", "min_factorials", "perm_copies",
    "permute_columns_mod", "prefix_family", "prefix_substitution",
    "prefixed_columns", "rational_cut", "replicate_columns",
    "saturate_down", "saturate_up", "scaled_blocks", "stage_gcds",
    "stage_lcms", "star_edges", "tail_columns", "translate_mod",
    "triadic_cut",
)
REDUCTION_NAMES = (
    "compiso_to_eset", "cut_omega", "e0_to_e1", "e0_to_e2", "e0_to_e3",
    "e0_to_eset", "e0_to_z0", "e3_to_eset", "e3_to_z0",
    "elomega_to_homega", "emax_to_emed", "emed_to_e0", "emin_to_homega",
    "eq1_to_compiso", "eqce_to_e0", "eqce_to_eQ", "eqm_to_eq1",
    "eqnat_to_emin", "eset_to_isobin", "gcd_to_min", "hull_omega",
    "lcm_to_max", "ltomega_to_e3", "max_to_lcm", "min_to_gcd", "nce_embed",
    "omega_into_rationals", "saturate_down", "saturate_up",
)

# Module-level functions timed plainly: (celab module, function, key).
TIMED = (
    ("harness", "verify_case", "harness"),
    ("harness", "check_built", "harness"),
    ("harness", "predicted_member", "harness"),
    ("harness", "corpus_to_json", "harness"),
    ("harness", "corpus_from_json", "harness"),
    ("harness", "gen_corpus", "harness.gen_corpus"),
    ("descriptors", "analyze", "descriptors.analyze"),
    ("descriptors", "member", "descriptors.member"),
    ("descriptors", "compile_descriptor", "descriptors.compile"),
    ("relations", "decide", "relations.decide"),
    ("serialization", "term_to_sexpr", "serialization"),
    ("serialization", "term_from_sexpr", "serialization"),
    ("serialization", "desc_to_sexpr", "serialization"),
    ("serialization", "desc_from_sexpr", "serialization"),
    ("numbering", "encode", "numbering.encode"),
    ("numbering", "decode", "numbering.decode"),
    ("reductions.benchmark", "run_tracked_family",
     "reductions.benchmark.family"),
    ("reductions.benchmark", "check_pairwise",
     "reductions.benchmark.pairwise"),
)
# Keys whose inclusive time is summed too; their functions do not recurse.
INCLUSIVE = frozenset({"harness.gen_corpus", "reductions.benchmark.family",
                       "reductions.benchmark.pairwise"})
# Spans are kept for the two outermost wrapped frames only; deeper calls
# (approx -> step -> approx ...) run by the million and are only
# aggregated.
SPAN_DEPTH = 2


class Tracer:
    def __init__(self):
        # frames: [start, child time, span id, parent span id]; the ids
        # are 0 for frames too deep to record a span
        self.stack = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        self.op = 0                # operation id stamped on each span
        self._ids = 0

    # -- wrappers ---------------------------------------------------------

    def _push(self, now):
        stack = self.stack
        if len(stack) < SPAN_DEPTH:
            self._ids += 1
            frame = [now, 0.0, self._ids, stack[-1][2] if stack else 0]
        else:
            frame = [now, 0.0, 0, 0]
        stack.append(frame)
        return frame

    def _pop(self, key, frame, end):
        stack = self.stack
        stack.pop()
        dur = end - frame[0]
        self.self_s[key] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if frame[2]:
            self.spans.append((key, frame[0], end, frame[2], frame[3],
                               self.op))
        return dur

    def timed(self, fn, key, inclusive=False):
        """Wrap fn so that its calls and self time count under key.

        With ``inclusive`` the whole duration is summed too; use it only
        on functions that do not recurse into themselves."""
        clock = time.perf_counter
        calls = self.calls
        incl = self.incl_s
        push, pop = self._push, self._pop

        def wrapper(*args, **kwargs):
            calls[key] += 1
            frame = push(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                dur = pop(key, frame, clock())
                if inclusive:
                    incl[key] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _approx(self, fn):
        """Evaluator.approx: ticks are read from the evaluator's own
        counter on exit from each top-level call (depth 0 on entry),
        which is where approx resets it."""
        clock = time.perf_counter
        counts = self.counts
        push, pop = self._push, self._pop

        def approx(ev, term, s):
            top = ev._depth == 0
            counts["approx_top" if top else "approx_nested"] += 1
            frame = push(clock())
            out = None
            try:
                out = fn(ev, term, s)
                return out
            finally:
                pop("programs.approx", frame, clock())
                if out is not None:
                    counts["approx_elems"] += len(out)
                if top:
                    counts["ticks"] += ev._steps
                    if ev._steps > counts["max_top_ticks"]:
                        counts["max_top_ticks"] = ev._steps

        approx.__wrapped__ = fn
        return approx

    def _entry_stage(self, fn):
        clock = time.perf_counter
        counts = self.counts
        push, pop = self._push, self._pop

        def entry_stage(ev, term, x, s):
            counts["entry_stage"] += 1
            if ev._depth == 0:
                counts["entry_stage_top"] += 1
            frame = push(clock())
            try:
                return fn(ev, term, x, s)
            finally:
                pop("programs.entry_stage", frame, clock())

        entry_stage.__wrapped__ = fn
        return entry_stage

    def _verify_reduction(self, fn):
        """harness.verify_reduction: inclusive time per reduction, plus
        the case and unknown tallies of its report."""
        clock = time.perf_counter
        push, pop = self._push, self._pop
        counts, incl, calls = self.counts, self.incl_s, self.calls

        def verify_reduction(red, *args, **kwargs):
            name = red if isinstance(red, str) else red.name
            calls["harness"] += 1
            frame = push(clock())
            try:
                report = fn(red, *args, **kwargs)
            finally:
                dur = pop("harness", frame, clock())
                incl["verify." + name] += dur
            counts["cases"] += report.cases
            counts["unknowns"] += report.unknowns
            return report

        verify_reduction.__wrapped__ = fn
        return verify_reduction

    def _build(self, fn):
        """Reduction.build: also sums the settle stages the caller asks
        the built program for."""
        timed = self.timed(fn, "reductions.build")
        counts = self.counts

        def build(*args, **kwargs):
            built = timed(*args, **kwargs)
            settle = built.settle

            def counted_settle(m):
                stage = settle(m)
                counts["settle_stage_sum"] += stage
                return stage

            built.settle = counted_settle
            return built

        build.__wrapped__ = fn
        return build

    def _pairwise_module(self, fn):
        timed = self.timed(fn, "reductions.benchmark")
        counts = self.counts

        def run_pairwise_module(a, b, stages):
            counts["machine_stages"] += stages
            return timed(a, b, stages)

        run_pairwise_module.__wrapped__ = fn
        return run_pairwise_module

    def _machine_step(self, fn):
        timed = self.timed(fn, "reductions.benchmark")
        counts = self.counts

        def step(machine):
            counts["machine_stages"] += 1
            return timed(machine)

        step.__wrapped__ = fn
        return step

    # -- installation -----------------------------------------------------

    def install(self):
        import importlib

        from celab import harness, programs
        from celab.reductions import REDUCTIONS
        from celab.reductions import benchmark as machines

        def everywhere(module, name, wrapper):
            orig = getattr(module, name)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("celab"):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

        ev = programs.Evaluator
        ev.approx = self._approx(ev.approx)
        ev.entry_stage = self._entry_stage(ev.entry_stage)
        for cid, cdef in programs.COMBINATORS.items():
            cdef.step = self.timed(cdef.step, "step." + cid)

        for red in REDUCTIONS.values():
            red.build = self._build(red.build)
            red.predict = self.timed(red.predict, "reductions.predict")
            if red.validator is not None:
                red.validator = self.timed(red.validator,
                                           "reductions.validate")

        everywhere(harness, "verify_reduction",
                   self._verify_reduction(harness.verify_reduction))
        for modname, name, key in TIMED:
            module = importlib.import_module("celab." + modname)
            everywhere(module, name, self.timed(getattr(module, name), key,
                                                inclusive=key in INCLUSIVE))
        everywhere(machines, "run_pairwise_module",
                   self._pairwise_module(machines.run_pairwise_module))
        tfm = machines.TrackedFamilyMachine
        tfm.step = self._machine_step(tfm.step)

    # -- results ----------------------------------------------------------

    def total_self(self) -> float:
        return sum(self.self_s.values())

    def metrics(self) -> dict:
        """Per-layer figures, keyed by the names in BENCHMARK.json."""
        from celab import descriptors

        s, c, n, inc = self.self_s, self.calls, self.counts, self.incl_s
        out = {
            "programs.self_s": s["programs.approx"]
            + s["programs.entry_stage"],
            "programs.ticks": n["ticks"],
            "programs.max_top_ticks": n["max_top_ticks"],
            "programs.approx_top_calls": n["approx_top"],
            "programs.approx_nested_calls": n["approx_nested"],
            "programs.entry_stage_calls": n["entry_stage"],
            "programs.entry_stage_top_calls": n["entry_stage_top"],
            "programs.approx_elems_materialized": n["approx_elems"],
            "reductions.step_s": sum(v for k, v in s.items()
                                     if k.startswith("step.")),
            "reductions.step_calls": sum(v for k, v in c.items()
                                         if k.startswith("step.")),
        }
        for cid in PRODUCTION_COMBINATORS:
            out["reductions.step_s." + cid] = s["step." + cid]
        out.update({
            "reductions.build_s": s["reductions.build"],
            "reductions.predict_s": s["reductions.predict"],
            "reductions.validate_s": s["reductions.validate"],
            "harness.self_s": s["harness"] + s["harness.gen_corpus"],
            "harness.gen_corpus_s": inc["harness.gen_corpus"],
            "harness.cases": n["cases"],
            "harness.unknowns": n["unknowns"],
            "harness.settle_stage_sum": n["settle_stage_sum"],
        })
        for name in REDUCTION_NAMES:
            out["harness.verify_s." + name] = inc["verify." + name]
        out.update({
            "descriptors.analyze_s": s["descriptors.analyze"],
            "descriptors.analyze_calls": c["descriptors.analyze"],
            "descriptors.member_s": s["descriptors.member"],
            "descriptors.member_calls": c["descriptors.member"],
            "descriptors.compile_s": s["descriptors.compile"],
            "descriptors.cache_entries": len(
                getattr(descriptors, "_ANALYSIS_CACHE", ())),
            "relations.decide_s": s["relations.decide"],
            "relations.decide_calls": c["relations.decide"],
            "serialization.codec_s": s["serialization"],
            "serialization.codec_calls": c["serialization"],
            "numbering.encode_s": s["numbering.encode"],
            "numbering.decode_s": s["numbering.decode"],
            "reductions.benchmark.self_s": s["reductions.benchmark"]
            + s["reductions.benchmark.family"]
            + s["reductions.benchmark.pairwise"],
            "reductions.benchmark.family_s":
                inc["reductions.benchmark.family"],
            "reductions.benchmark.pairwise_s":
                inc["reductions.benchmark.pairwise"],
            "reductions.benchmark.machine_stages": n["machine_stages"],
        })
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for key, start, end, sid, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": key, "start": start,
                                     "end": end}) + "\n")
