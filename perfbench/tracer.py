"""Per-layer tracing of the lietensor package from outside.

``Tracer.install()`` rebinds the public entry points of the ``cli``,
``tensor``, ``liealg``, ``linalg``, ``freenilp`` and ``presentation`` modules
to wrappers, in every loaded ``lietensor`` module that refers to them, and
patches the methods on their classes.  Nothing under ``src/`` is edited.

A *span* wrapper records name, start, end and the enclosing span; a *count*
wrapper only counts calls, for cheap functions called hundreds of thousands
of times.  Self time of a span is its duration minus the time covered by
its child spans, so the self times of all spans sum to no more than the
traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


# (module, attribute, metric name).  An attribute "Class.method" patches the
# class; the rest are module-level functions, rebound in every module.
TARGETS = (
    ("cli", "verify_document", "cli.verify_document"),
    ("cli", "tensor_document", "cli.tensor_document"),
    ("cli", "canonical_json", "cli.canonical_json"),
    ("cli", "parse_algebra_document", "cli.parse_algebra_document"),
    ("tensor", "build_tensor_square", "tensor.build"),
    ("tensor", "TensorSquare.square_submodule", "tensor.square_submodule"),
    ("tensor", "TensorSquare.commutator_map", "tensor.commutator_map"),
    ("tensor", "TensorSquare.schur_multiplier", "tensor.schur_multiplier"),
    ("tensor", "TensorSquare.abelianization", "tensor.abelianization"),
    ("tensor", "induced_map", "tensor.induced_map"),
    ("tensor", "TensorSquare.whitehead_gamma", "tensor.whitehead_gamma"),
    ("tensor", "TensorSquare.tensor_center", "tensor.centers"),
    ("tensor", "TensorSquare.tensor_center_right", "tensor.centers"),
    ("tensor", "TensorSquare.exterior_center", "tensor.centers"),
    ("tensor", "TensorSquare.verify_decomposition", "tensor.verify_decomposition"),
    ("tensor", "TensorSquare.verify_j2_decomposition", "tensor.verify_j2_decomposition"),
    ("tensor", "TensorSquare.verify_center_identity", "tensor.verify_center_identity"),
    ("tensor", "TensorSquare.verify_square_restriction", "tensor.verify_square_restriction"),
    ("tensor", "TensorSquare.verify_kernel_identity", "tensor.verify_kernel_identity"),
    ("liealg", "LieAlgebra.validate", "liealg.validate"),
    ("liealg", "is_lie_pairing", "liealg.is_lie_pairing"),
    ("liealg", "quotient_algebra", "liealg.quotient_algebra"),
    ("liealg", "LieAlgebra.derived_subalgebra", "liealg.derived_subalgebra"),
    ("liealg", "LieAlgebra.center", "liealg.center"),
    ("liealg", "LieAlgebra.bracket", "liealg.bracket"),
    ("liealg", "BilinearMap.apply", "liealg.bilinear_apply"),
    ("linalg", "SpanBuilder.add", "linalg.span_add"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "subspace_intersect", "linalg.intersect"),
    ("linalg", "Matrix.mul", "linalg.matmul"),
    ("linalg", "Matrix.apply", "linalg.matrix_apply"),
    ("freenilp", "free_nilpotent", "freenilp.free_nilpotent"),
    ("presentation", "presentation_of", "presentation.presentation_of"),
    ("presentation", "exterior_via_presentation", "presentation.exterior_via_presentation"),
    ("presentation", "multiplier_via_presentation", "presentation.multiplier_via_presentation"),
    ("presentation", "build_cover", "presentation.build_cover"),
    ("presentation", "verify_cover_theorem", "presentation.verify_cover_theorem"),
)

# Cheap functions called hundreds of thousands of times: counted, not spanned.
COUNTED = {"liealg.bracket", "liealg.bilinear_apply", "linalg.matrix_apply"}

# Spans tagged with the field of their first argument, so that linalg self
# time can be split between Q and GF(p).
BY_FIELD = {"linalg.span_add", "linalg.rref", "linalg.kernel",
            "linalg.intersect", "linalg.matmul"}

# lru_cache'd entry points whose hit counts are reported.
CACHED = (
    ("tensor", "build_tensor_square", "tensor.build.cache_hits"),
    ("freenilp", "free_nilpotent", "freenilp.free_nilpotent.cache_hits"),
    ("presentation", "presentation_of", "presentation.presentation_of.cache_hits"),
)

VERIFICATION = ("tensor.verify_decomposition", "tensor.verify_j2_decomposition",
                "tensor.verify_center_identity", "tensor.verify_square_restriction",
                "tensor.verify_kernel_identity", "liealg.is_lie_pairing")

# The ROADMAP baseline stage table for the envelope report.
STAGES = ("tensor.build", "liealg.is_lie_pairing", "tensor.verify_decomposition",
          "tensor.centers", "tensor.verify_center_identity", "tensor.commutator_map")

# Spans are lists [name, start, end, parent index, field, info].
NAME, START, END, PARENT, FIELD, INFO = range(6)

# What a span keeps of its call's result.  For an lru_cache'd entry point
# the info is kept only when the call missed the cache and so did the work.
_INFO = {
    "linalg.span_add": lambda result: result,
    "cli.canonical_json": len,
    "tensor.build": lambda result: result.relation_space.dim,
}


def cache_hits() -> dict:
    """Hit counts of the package's process-wide caches, for any run."""
    out = {}
    for module, attr, metric in CACHED:
        fn = getattr(sys.modules[f"lietensor.{module}"], attr)
        out[metric] = fn.cache_info().hits
    return out


class Tracer:
    """Spans and call counts of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "lietensor" or name.startswith("lietensor.")]
        for module, attr, metric in TARGETS:
            owner = sys.modules[f"lietensor.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch_method(getattr(owner, cls_name), meth, metric)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, metric)
            if hasattr(original, "cache_info"):
                wrapper.cache_info = original.cache_info
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def _patch_method(self, cls, meth, metric):
        current = cls.__dict__[meth]
        if isinstance(current, functools.cached_property):
            patched = functools.cached_property(self._wrap(current.func, metric))
            patched.__set_name__(cls, meth)
        else:
            patched = self._wrap(current, metric)
        setattr(cls, meth, patched)

    def _wrap(self, fn, metric):
        if metric in COUNTED:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info_of = _INFO.get(metric)
        by_field = metric in BY_FIELD
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            field = None
            if by_field:
                field = "Q" if args[0].field.is_rational else "Fp"
            record = [metric, 0.0, 0.0, stack[-1] if stack else -1, field, None]
            misses = cache_info().misses if cache_info else 0
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if info_of is not None and (not cache_info
                                        or cache_info().misses > misses):
                record[INFO] = info_of(result)
            return result
        return traced

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "field": s[FIELD]}, separators=(",", ":"))
                         + "\n")

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics as {name: [value, unit]}."""
        self_s = self.self_times()
        calls, own = Counter(), Counter()
        for s, t in zip(self.spans, self_s):
            calls[s[NAME]] += 1
            own[s[NAME]] += t
        field_self = Counter()
        for s, t in zip(self.spans, self_s):
            if s[NAME].startswith("linalg."):
                field_self[s[FIELD]] += t

        def total(name):
            # Inclusive time of the outermost spans of this name.
            out = 0.0
            for s in self.spans:
                if s[NAME] == name and not self._nested_in(s, name):
                    out += s[END] - s[START]
            return out

        misses = {i for i, s in enumerate(self.spans)
                  if s[NAME] == "tensor.build" and s[INFO] is not None}
        relation_rows = sum(1 for s in self.spans
                            if s[NAME] == "linalg.span_add" and s[PARENT] in misses)
        relation_rank = sum(self.spans[i][INFO] for i in misses)
        grew = sum(1 for s in self.spans if s[NAME] == "linalg.span_add" and s[INFO])
        adds = calls["linalg.span_add"]
        report_bytes = sum(s[INFO] for s in self.spans if s[NAME] == "cli.canonical_json")
        m = {
            "cli.verify_document.self_s": [own["cli.verify_document"], "s"],
            "cli.tensor_document.self_s": [own["cli.tensor_document"], "s"],
            "cli.canonical_json.s": [total("cli.canonical_json"), "s"],
            "cli.parse_algebra_document.s": [total("cli.parse_algebra_document"), "s"],
            "cli.report_bytes": [report_bytes, "bytes"],
            "tensor.build.calls": [calls["tensor.build"], "count"],
            "tensor.build.self_s": [own["tensor.build"], "s"],
            "tensor.build.relation_rows": [relation_rows, "count"],
            "tensor.build.relation_rank": [relation_rank, "count"],
            "tensor.build.useful_ratio": [relation_rank / relation_rows
                                          if relation_rows else 0.0, "ratio"],
        }
        for name in ("square_submodule", "commutator_map", "schur_multiplier",
                     "abelianization", "induced_map", "whitehead_gamma", "centers"):
            m[f"tensor.{name}.self_s"] = [own[f"tensor.{name}"], "s"]
        m["tensor.centers.calls"] = [calls["tensor.centers"], "count"]
        for name in VERIFICATION:
            m[f"{name}.self_s"] = [own[name], "s"]
        m["liealg.bilinear_apply.calls"] = [self.counts["liealg.bilinear_apply"], "count"]
        m["verify.share"] = [sum(own[n] for n in VERIFICATION) / wall_s, "ratio"]
        m["liealg.validate.calls"] = [calls["liealg.validate"], "count"]
        m["liealg.validate.self_s"] = [own["liealg.validate"], "s"]
        m["liealg.quotient_algebra.self_s"] = [own["liealg.quotient_algebra"], "s"]
        m["liealg.bracket.calls"] = [self.counts["liealg.bracket"], "count"]
        m["liealg.derived_subalgebra.calls"] = [calls["liealg.derived_subalgebra"], "count"]
        m["liealg.center.calls"] = [calls["liealg.center"], "count"]
        m["linalg.span_add.calls"] = [adds, "count"]
        m["linalg.span_add.grew"] = [grew, "count"]
        m["linalg.span_add.useful_ratio"] = [grew / adds if adds else 0.0, "ratio"]
        m["linalg.span_add.self_s"] = [own["linalg.span_add"], "s"]
        m["linalg.rref.calls"] = [calls["linalg.rref"], "count"]
        m["linalg.rref.self_s"] = [own["linalg.rref"], "s"]
        m["linalg.kernel.self_s"] = [own["linalg.kernel"], "s"]
        m["linalg.intersect.self_s"] = [own["linalg.intersect"], "s"]
        m["linalg.matmul.calls"] = [calls["linalg.matmul"], "count"]
        m["linalg.matmul.self_s"] = [own["linalg.matmul"], "s"]
        m["linalg.matrix_apply.calls"] = [self.counts["linalg.matrix_apply"], "count"]
        m["linalg.self_s_q"] = [field_self["Q"], "s"]
        m["linalg.self_s_fp"] = [field_self["Fp"], "s"]
        m["freenilp.free_nilpotent.self_s"] = [own["freenilp.free_nilpotent"], "s"]
        for name in ("presentation_of", "exterior_via_presentation",
                     "multiplier_via_presentation", "build_cover",
                     "verify_cover_theorem"):
            m[f"presentation.{name}.self_s"] = [own[f"presentation.{name}"], "s"]
        return m

    def stage_table(self, scope: str = "cli.tensor_document") -> list[list]:
        """Rows [stage, calls, inclusive s, self s] for STAGES, counting
        only spans inside ``scope`` spans when there are any."""
        in_scope = [i for i, s in enumerate(self.spans) if self._nested_in(s, scope)]
        if not in_scope:
            in_scope = range(len(self.spans))
        self_s = self.self_times()
        rows = []
        for stage in STAGES:
            picked = [i for i in in_scope if self.spans[i][NAME] == stage]
            inclusive = sum(self.spans[i][END] - self.spans[i][START] for i in picked
                            if not self._nested_in(self.spans[i], stage))
            rows.append([stage, len(picked), inclusive,
                         sum(self_s[i] for i in picked)])
        return rows

    def _nested_in(self, span, name) -> bool:
        p = span[PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False
