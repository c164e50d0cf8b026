"""Spans and counters around chainfix's public functions, installed from outside.

Nothing inside chainfix is instrumented: the benchmark swaps the package's
public functions and methods for wrappers at run time and puts the originals
back afterwards. Spans give self time, a span's duration minus the part its
child spans cover. Counters give exact call counts; they are installed only
in the counting pass, so their per-call cost never inflates span timings.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, function); patched wherever the package binds it
SPANS = {
    "cli.emit_trace": ("chainfix.cli", "emit_trace"),
    "instances.parse": ("chainfix.instances", "parse_instance"),
    "instances.dump": ("chainfix.instances", "dump_instance"),
    "instances.generate": ("chainfix.instances", "generate_finite_instance"),
    "hypotheses.sample_points": ("chainfix.hypotheses", "sample_points"),
    "hypotheses.mixed_monotone": ("chainfix.hypotheses", "check_mixed_monotone"),
    "hypotheses.contraction": ("chainfix.hypotheses", "estimate_contraction"),
    "hypotheses.chainable": ("chainfix.hypotheses", "check_epsilon_chainable"),
    "hypotheses.seed": ("chainfix.hypotheses", "check_seed"),
    "hypotheses.common_comparable": ("chainfix.hypotheses", "check_common_comparable"),
    "hypotheses.pair_bounds": ("chainfix.hypotheses", "check_pair_bounds"),
    "hypotheses.find_chain": ("chainfix.hypotheses", "find_epsilon_chain"),
    "solver.picard": ("chainfix.solver", "picard_solve"),
    "solver.decay": ("chainfix.solver", "verify_decay_bound"),
    "solver.collapse": ("chainfix.solver", "collapse_check"),
    "oracle.contraction": ("chainfix.oracle", "exhaustive_contraction_check"),
    "oracle.chain_table": ("chainfix.oracle", "min_chain_table"),
    "oracle.fixed_points": ("chainfix.oracle", "all_coupled_fixed_points"),
}

# counter name -> (module, class, method) for every class that has it
COUNTERS = {
    "spaces.distance": [("chainfix.spaces", c, "distance") for c in ("FiniteSpace", "BoxSpace")],
    "spaces.leq": [("chainfix.spaces", c, "leq") for c in ("FiniteSpace", "BoxSpace")],
    "spaces.validate": [("chainfix.spaces", c, "validate_point") for c in ("FiniteSpace", "BoxSpace")],
    "mappings.apply": [("chainfix.mappings", c, "apply") for c in ("TableMap", "ExpressionMap")],
    "expressions.evaluate": [("chainfix.expressions", "CompiledExpression", "evaluate")],
}


class Recorder:
    """Accumulates span self times, call counts and work counts."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.spans: list[tuple] = []  # (op, name, parent, start, end)
        self.op = 0
        self.pairs_tested = 0
        self.full_scan_tested = 0
        self.full_scan_enumerated = 0
        self.sample_size = 0
        self.iterations = 0
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- installation ----------------------------------------------------
    def install_spans(self) -> None:
        for name, (module, attr) in SPANS.items():
            self._patch_function(module, attr, self._span_wrapper(name))
        self._patch_function("chainfix.cli", "run_cli", self._cli_wrapper)

    def install_counters(self) -> None:
        for name, targets in COUNTERS.items():
            for module, cls_name, attr in targets:
                cls = getattr(sys.modules[module], cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._count_wrapper(name, original))
                self._undo.append((cls, attr, original))
        hyp, solver = "chainfix.hypotheses", "chainfix.solver"
        self._sample_points = sys.modules[hyp].sample_points
        self._patch_function(hyp, "estimate_contraction", self._observe(self._on_contraction))
        self._patch_function(hyp, "sample_points", self._observe(self._on_sample))
        self._patch_function(solver, "picard_solve", self._observe(self._on_solve))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch_function(self, module: str, attr: str, make) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "chainfix" and not name.startswith("chainfix."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    # -- wrappers ---------------------------------------------------------
    def _timed(self, name: str, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]  # name, time covered by child spans
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            self.self_s[name] += dur - frame[1]
            self.total_s[name] += dur
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((self.op, name, parent, start, end))

    def _span_wrapper(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self._timed(name, fn, args, kwargs)
            return wrapper
        return make

    def _cli_wrapper(self, fn):
        def wrapper(argv=None):
            return self._timed(f"cli.{argv[0]}", fn, (argv,), {})
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, hook):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(result, *args, **kwargs)
                return result
            return wrapper
        return make

    # -- work counts --------------------------------------------------------
    def _on_contraction(self, rep, cmap, epsilon, plan=None):
        self.pairs_tested += rep.pairs_tested
        if rep.violated:
            return  # stopped early, so the scan did not enumerate everything
        space = cmap.space
        if hasattr(space, "order"):
            comparable = sum(map(sum, space.order))
        else:
            pts = self._sample_points(space, plan)
            comparable = sum(
                all(a <= b for a, b in zip(p, q)) for p in pts for q in pts
            )
        self.full_scan_tested += rep.pairs_tested
        self.full_scan_enumerated += comparable * comparable  # |xu| * |yv|

    def _on_sample(self, pts, *args, **kwargs):
        self.sample_size = max(self.sample_size, len(pts))

    def _on_solve(self, result, *args, **kwargs):
        self.iterations += result.iterations_used
