"""Span tracing and point counting for the wigner benchmark.

Nothing inside the package is edited: the tracer replaces functions from
outside, at run time, and puts the originals back on `uninstall`.

`classifier`, `cli` and the package `__init__` bind library functions with
`from .x import f`, so patching the defining module alone would miss their
calls. `install` therefore looks up every name in every loaded `wigner`
module that is bound to a traced function and replaces each of them.
Evaluation methods are patched on their class.

Evaluations are counted in points, not calls: an argument of shape (m, n)
counts m, so a later batched evaluator keeps the same counts.

Two levels:
- counting only (`spans=False`): the evaluator of every base map the
  program builds from a manifest entry or a spec is wrapped with a point
  counter. This is all the untraced run needs for `map_evals_per_op`.
- spans (`spans=True`): every traced function also records a span. Spans
  are aggregated in memory per name (calls, points, inclusive time, self
  time = inclusive minus the time of its child spans) together with the
  set of ops in which each layer ran.
"""

import re
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (layer, dotted attribute within wigner.<layer>) for every traced callable
TRACED = (
    ("states", "Transformation.__call__"),
    ("generators", "DressingSpec.__call__"),
    ("generators", "DressingSpec.random"),
    ("generators", "haar_unitary"),
    ("generators", "haar_orthogonal"),
    ("generators", "make_symmetry"),
    ("generators", "make_adversary"),
    ("generators", "default_manifest"),
    ("generators", "validate_manifest"),
    ("generators", "transformation_from_entry"),
    ("gauge", "origin_phase"),
    ("gauge", "gauge_fix"),
    ("gauge", "extract_theta"),
    ("gauge", "verify_theta_antisymmetry"),
    ("wirtinger", "wirtinger_jacobian"),
    ("wirtinger", "richardson_refine"),
    ("wirtinger", "analyticity_test"),
    ("wirtinger", "real_jacobian"),
    ("classifier", "classify"),
    ("classifier", "check_preservation"),
    ("classifier", "align_global_phase"),
    ("dsl", "parse"),
    ("dsl", "compile_to_transformation"),
    ("dsl", "evaluate"),
    ("dsl", "load_constants"),
    ("dsl", "pretty_print"),
    ("dsl", "parse_constant"),
    ("mazurulam", "check_isometry"),
    ("mazurulam", "reconstruct_orthogonal"),
    ("cli", "main"),
)

# generator spans that build an instance or a manifest (not the dressing phase)
BUILD_SPANS = frozenset(
    f"generators.{name}"
    for name in (
        "random",
        "haar_unitary",
        "haar_orthogonal",
        "make_symmetry",
        "make_adversary",
        "default_manifest",
        "validate_manifest",
        "transformation_from_entry",
    )
)

# constructors whose result is a base map to count
_MAP_BUILDERS = frozenset(
    {"generators.transformation_from_entry", "dsl.compile_to_transformation"}
)


def points_in(z) -> int:
    """Number of points in an evaluator argument: m for an (m, n) batch, else 1."""
    shape = getattr(z, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def error_code(exc: BaseException) -> str:
    """Snake-case error code of an exception class, e.g. NotASymmetry -> not_a_symmetry."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


class SpanStat:
    __slots__ = ("calls", "points", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Installs the wrappers and holds what they record.

    `op` is the id of the op in progress, or None during set-up; spans
    outside an op are aggregated but mark no layer as reached.
    """

    def __init__(self):
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self._spans = False
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget every recorded number; installed wrappers stay."""
        self.op = None
        self.base_points = 0
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        self.layer_ops: dict[str, set] = defaultdict(set)
        self.rejections: Counter = Counter()
        self.preservation_pairs = 0
        self.nonzero_fixed_points = 0
        self.memo_miss_points = 0
        self.build_calls = 0
        self.build_ns = 0
        self.report_bytes = 0

    def count_map(self, transform):
        """Wrap a base map's evaluator so every evaluated point is counted."""
        inner = transform.evaluator

        def counted(z):
            self.base_points += points_in(z)
            return inner(z)

        transform.evaluator = counted
        return transform

    def _span(self, name: str, points: int, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if name == "classifier.classify":
                self.rejections[error_code(exc)] += 1
            raise
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            stat = self.stats[name]
            stat.calls += 1
            stat.points += points
            stat.total_ns += elapsed
            stat.self_ns += elapsed - frame[1]
            if self.op is not None:
                self.layer_ops[name.split(".", 1)[0]].add(self.op)
            if name in BUILD_SPANS and parent not in BUILD_SPANS:
                self.build_calls += 1
                self.build_ns += elapsed
            if name == "gauge.origin_phase" and parent == "states.fixed_eval":
                self.memo_miss_points += points

    # -- wrappers ----------------------------------------------------------

    def _function_wrapper(self, name: str, fn):
        spans = self._spans
        builds_map = name in _MAP_BUILDERS

        def wrapper(*args, **kwargs):
            if spans:
                points = points_in(args[1]) if name == "gauge.origin_phase" else 0
                result = self._span(name, points, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if builds_map:
                self._watch_map(result, name)
            elif name == "classifier.check_preservation":
                self.preservation_pairs += getattr(result, "pairs_tested", 0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _watch_map(self, transform, builder: str) -> None:
        if self._spans and builder == "dsl.compile_to_transformation":
            inner = transform.evaluator

            def dsl_eval(z):
                return self._span("dsl.eval", points_in(z), inner, (z,), {})

            transform.evaluator = dsl_eval
        self.count_map(transform)

    def _method_wrapper(self, name: str, fn):
        if name == "states.Transformation.__call__":

            def wrapper(obj, z):
                points = points_in(z)
                if getattr(obj, "base", None) is None:
                    return self._span("states.eval", points, fn, (obj, z), {})
                self.nonzero_fixed_points += int(
                    np.count_nonzero(np.any(np.asarray(z) != 0, axis=-1))
                )
                return self._span("states.fixed_eval", points, fn, (obj, z), {})

        elif name == "generators.DressingSpec.__call__":

            def wrapper(obj, z):
                return self._span("generators.dressing", points_in(z), fn, (obj, z), {})

        else:  # classmethod builders
            short = name.rsplit(".", 1)[1]

            def wrapper(cls, *args, **kwargs):
                return self._span(f"generators.{short}", 0, fn, (cls,) + args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, spans: bool) -> None:
        """Patch every binding site; with spans=False only the map counters."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._spans = spans
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "wigner" or key.startswith("wigner."))
        ]
        for layer, attr in TRACED:
            owner = sys.modules.get(f"wigner.{layer}")
            if owner is None:
                continue
            if "." in attr:
                if spans:
                    self._patch_method(layer, owner, attr)
            elif spans or f"{layer}.{attr}" in _MAP_BUILDERS:
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self._function_wrapper(f"{layer}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, value))
                            setattr(mod, key, wrapper)

    def _patch_method(self, layer: str, owner, attr: str) -> None:
        class_name, method = attr.split(".")
        cls = getattr(owner, class_name, None)
        if cls is None or method not in vars(cls):
            return
        raw = vars(cls)[method]
        name = f"{layer}.{attr}"
        if isinstance(raw, classmethod):
            replacement = classmethod(self._method_wrapper(name, raw.__func__))
        else:
            replacement = self._method_wrapper(name, raw)
        self._undo.append((cls, method, raw))
        setattr(cls, method, replacement)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)
        self._stack.clear()

    # -- results -----------------------------------------------------------

    def ops_in(self, layer: str) -> int:
        return len(self.layer_ops.get(layer, ()))
