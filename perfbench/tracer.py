"""Per-layer call tracing for one worker process, installed from outside ``src/``.

Each wrap point names one public function or method of a ``kulocal`` layer.
Installing the tracer rebinds every name that refers to the original object:
the attribute on its class for methods, and the binding in every loaded
``kulocal`` module for functions (modules import each other's functions with
``from .exact import smith_normal_form``, so patching the defining module alone
would miss most calls).

A span wrap point records one span per call: point, start and end (ns,
``perf_counter_ns``) and the index of the enclosing span, or -1.  Spans are
kept in a flat ``array('q')`` (four slots per span) and written out when the
job ends; every span of a worker belongs to that worker's job.  A calls-only
wrap point only counts, for functions called millions of times.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

LAYERS = ("exact", "groups", "burnside", "reprings", "geomfp", "fiber", "mackey", "tambara")

# (layer, qualified name, span) -- span False means the point only counts calls.
WRAP_POINTS = (
    ("exact", "smith_normal_form", True),
    ("exact", "IntMatrix.det", True),
    ("exact", "row_hnf", True),
    ("exact", "solve_integer", True),
    ("exact", "kernel_lattice", True),
    ("exact", "Cyclotomic.__mul__", True),
    ("exact", "IntMatrix.__init__", False),
    ("groups", "AbelianGroup.subgroups", True),
    ("groups", "Subgroup.join", True),
    ("groups", "DualLevel.canon", True),
    ("groups", "map_set_orbits", True),
    ("groups", "AbelianGroup.add", False),
    ("burnside", "AModJ.coordinates", True),
    ("burnside", "BurnsideRing.element_from_marks", True),
    ("burnside", "BurnsideRing.a_mod_j", True),
    ("burnside", "BurnsideRing.idempotent_table", True),
    ("reprings", "RURing.character", True),
    ("reprings", "RURing.multiply", True),
    ("reprings", "rational_rep_lattices", True),
    ("reprings", "perm_rep", True),
    ("geomfp", "bott_character", True),
    ("geomfp", "root_of_unity_product", True),
    ("geomfp", "verify_adams_on_bott", True),
    ("fiber", "kernel_equals_AmodJ", True),
    ("fiber", "pi1_level", True),
    ("fiber", "fiber_level_data", True),
    ("fiber", "group_report", True),
    ("mackey", "burnside_mackey", True),
    ("mackey", "ru_mackey", True),
    ("mackey", "a_mod_j_mackey", True),
    ("mackey", "assemble_pi0", True),
    ("mackey", "MackeyFunctor.check_mackey_axioms", True),
    ("mackey", "GreenFunctor.check_green_axioms", True),
    ("tambara", "CyclicTower.restrict", True),
    ("tambara", "CyclicTower.norm_burnside", True),
    ("tambara", "CyclicTower.norm_burnside_bruteforce", True),
    ("tambara", "derive_norm_on_x", True),
)

SMITH_POINT = WRAP_POINTS.index(("exact", "smith_normal_form", True))

# The axiom checks are named without their class, as one check per functor kind.
SHORT_NAMES = {
    "MackeyFunctor.check_mackey_axioms": "check_mackey_axioms",
    "GreenFunctor.check_green_axioms": "check_green_axioms",
}


def metric_name(point: int) -> str:
    """``<layer>.<fn>`` as the per-layer metrics name it, e.g. ``exact.IntMatrix.det``."""
    layer, qualname, _ = WRAP_POINTS[point]
    return f"{layer}.{SHORT_NAMES.get(qualname, qualname)}"


class Tracer:
    """Spans and call counts of one job; install once per worker process."""

    def __init__(self) -> None:
        self.spans = array("q")  # point, start_ns, end_ns, parent span index
        self.counts = [0] * len(WRAP_POINTS)  # calls-only points
        self.smith_max_dim = 0
        self._stack: list[int] = []

    def install(self) -> None:
        """Rebind every wrap point; call after ``kulocal`` (hence all its layers) is imported."""
        modules = [m for name, m in sys.modules.items()
                   if name == "kulocal" or name.startswith("kulocal.")]
        for point, (layer, qualname, span) in enumerate(WRAP_POINTS):
            owner = importlib.import_module(f"kulocal.{layer}")
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._span_wrapper(point, original) if span else self._count_wrapper(point, original)
            targets = [owner] if cls_path else modules
            rebound = 0
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, name, wrapper)
                        rebound += 1
            if not rebound:
                raise RuntimeError(f"wrap point {metric_name(point)} bound nowhere")

    def _count_wrapper(self, point: int, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[point] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, point: int, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        is_smith = point == SMITH_POINT

        def traced(*args, **kwargs):
            if is_smith:
                self.smith_max_dim = max(self.smith_max_dim, args[0].rows, args[0].cols)
            index = len(spans) // 4
            spans.extend((point, 0, 0, stack[-1] if stack else -1))
            stack.append(index)
            spans[4 * index + 1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[4 * index + 2] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Calls and self time (s) per wrap point, and self time per layer.

        A span's self time is its duration minus the durations of the spans it
        directly encloses; calls-only points open no span, so their time stays
        with the enclosing span.
        """
        n = len(self.spans) // 4
        child_ns = [0] * n
        spans = self.spans
        for i in range(n):
            parent = spans[4 * i + 3]
            if parent >= 0:
                child_ns[parent] += spans[4 * i + 2] - spans[4 * i + 1]
        calls = list(self.counts)
        self_ns = [0] * len(WRAP_POINTS)
        for i in range(n):
            point = spans[4 * i]
            calls[point] += 1
            self_ns[point] += spans[4 * i + 2] - spans[4 * i + 1] - child_ns[i]
        layer_ns = dict.fromkeys(LAYERS, 0)
        for point, (layer, _, _) in enumerate(WRAP_POINTS):
            layer_ns[layer] += self_ns[point]
        return {
            "calls": {metric_name(p): calls[p] for p in range(len(WRAP_POINTS))},
            "self_s": {metric_name(p): self_ns[p] / 1e9
                       for p, (_, _, span) in enumerate(WRAP_POINTS) if span},
            "layer_self_s": {layer: ns / 1e9 for layer, ns in layer_ns.items()},
            "smith_max_dim": self.smith_max_dim,
        }

    def write_spans(self, path: str, job_id: str) -> None:
        """One line per span: job, span index, point, start_ns, end_ns, parent."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(spans) // 4):
                point, start, end, parent = spans[4 * i: 4 * i + 4]
                fh.write(f"{job_id}\t{i}\t{metric_name(point)}\t{start}\t{end}\t{parent}\n")
