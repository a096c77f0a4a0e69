"""Spans around the calls into each neqtemp module, recorded from outside it.

:class:`Tracer` wraps the public functions named in :data:`FUNCTIONS` in every
``neqtemp`` module that holds a reference to them (``from .linalg import
matrix_log`` binds a copy in the importer), the constructors and methods in
:data:`METHODS` on their classes, and ``numpy.linalg.eigh``/``eigvalsh`` at the
numpy boundary. The package itself has no hooks. Spans live in memory as
(name, start, end, parent, report, error) and are derived into per-layer
metrics, and written out, only after the run.

The wrappers' own bookkeeping (span records, input digests) is timed and
taken out of every enclosing span, so ``self_ms`` measures the package.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

FUNCTIONS = {
    "linalg": ("eig_hermitian", "matrix_log", "tensor_product", "partial_trace", "hs_inner"),
    "basis": ("hamiltonian_unit", "complete_basis", "expand_state"),
    "thermometry": (
        "inverse_temperature", "is_passive", "generalized_gibbs_decomposition",
        "reconstruct_generalized_gibbs", "helmholtz_free_energy",
    ),
    "correlation": (
        "chi_unit", "correlation_log_hamiltonian", "binding_energy",
        "correlation_inverse_temperature",
    ),
    "relation": (
        "verify_universal_relation", "relation_coefficients", "expansion_coefficients",
        "tilde_inverse_temperatures",
    ),
    "models": ("build_two_qubit_xy",),
    "io": ("load_input_document", "build_bipartite_system", "report_document"),
    "cli": ("main",),
}

#: span name -> (module, class, attribute) of each method it covers.
METHODS = {
    "linalg.HermitianOperator": (("linalg", "HermitianOperator", "__init__"),),
    "linalg.DensityMatrix": (
        ("linalg", "DensityMatrix", "__init__"),
        ("linalg", "DensityMatrix", "from_spectrum"),
    ),
    "basis.OperatorBasis": (("basis", "OperatorBasis", "__post_init__"),),
    "correlation.BipartiteSystem": (("correlation", "BipartiteSystem", "__init__"),),
    "correlation.H_SB": (("correlation", "BipartiteSystem", "H_SB"),),
}

NUMPY_SPAN = "linalg.np_eigh"

#: Spans whose first argument is digested, for useful_frac.
DIGESTED = {NUMPY_SPAN, "linalg.matrix_log", "basis.hamiltonian_unit"}

_CALLS, _SELF, _USEFUL = ("calls", "count", "lower"), ("self_ms", "ms", "lower"), ("useful_frac", "frac", "higher")

#: The per-layer metrics, as (name, unit, better), in BENCHMARK.json order.
#: calls and self_ms are per report; useful_frac is distinct inputs per call.
PER_LAYER = tuple(
    (f"{span}.{kind}", unit, better)
    for span, kinds in (
        ("linalg.HermitianOperator", (_CALLS, _SELF)),
        ("linalg.DensityMatrix", (_CALLS, _SELF)),
        ("linalg.eig_hermitian", (_SELF,)),
        (NUMPY_SPAN, (_CALLS, _USEFUL, _SELF)),
        ("linalg.matrix_log", (_CALLS, _USEFUL, _SELF)),
        ("linalg.tensor_product", (_CALLS, _SELF)),
        ("linalg.partial_trace", (_CALLS,)),
        ("linalg.hs_inner", (_CALLS,)),
        ("basis.hamiltonian_unit", (_CALLS, _USEFUL, _SELF)),
        ("basis.complete_basis", (_SELF,)),
        ("basis.OperatorBasis", (_SELF,)),
        ("basis.expand_state", (_SELF,)),
        ("thermometry.inverse_temperature", (_CALLS, _SELF)),
        ("thermometry.is_passive", (_SELF,)),
        ("thermometry.generalized_gibbs_decomposition", (_SELF,)),
        ("thermometry.reconstruct_generalized_gibbs", (_SELF,)),
        ("thermometry.helmholtz_free_energy", (_SELF,)),
        ("correlation.BipartiteSystem", (_SELF,)),
        ("correlation.H_SB", (_CALLS,)),
        ("correlation.chi_unit", (_CALLS, _SELF)),
        ("correlation.correlation_log_hamiltonian", (_CALLS, _SELF)),
        ("correlation.binding_energy", (_SELF,)),
        ("correlation.correlation_inverse_temperature", (_SELF,)),
        ("relation.verify_universal_relation", (_SELF,)),
        ("relation.relation_coefficients", (_SELF,)),
        ("relation.expansion_coefficients", (_CALLS,)),
        ("relation.tilde_inverse_temperatures", (_SELF,)),
        ("models.build_two_qubit_xy", (_SELF,)),
        ("io.load_input_document", (_SELF,)),
        ("io.build_bipartite_system", (_SELF,)),
        ("io.report_document", (_SELF,)),
        ("cli.main", (_SELF,)),
        ("trace", (("overhead_frac", "frac", "lower"),)),
    )
    for kind, unit, better in kinds
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    report: int
    error: bool
    digest: bytes | None
    #: bookkeeping time of descendant wrappers inside [start, end]
    book: float

    @property
    def duration(self) -> float:
        return self.end - self.start - self.book


def _digest(x) -> bytes:
    a = np.ascontiguousarray(getattr(x, "matrix", x))
    return hashlib.blake2b(a.tobytes(), digest_size=16).digest()


class Tracer:
    """Wraps the package while installed; records spans while active."""

    def __init__(self):
        self.spans: list[Span] = []
        #: spans of the first folded batch, for :meth:`write`
        self.kept: list[Span] = []
        self.active = False
        self.report = -1
        self._stack: list[int] = []
        self._book = 0.0
        self._undo: list[tuple[object, str, object]] = []
        self._calls: dict[str, int] = {}
        self._self_s: dict[str, float] = {}
        self._useful: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        tracer = self
        digested = name in DIGESTED
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            b0 = perf()
            dig = _digest(args[0]) if digested else None
            sid = len(tracer.spans)
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                        tracer.report, False, dig, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span.start = perf()
            tracer._book += span.start - b0
            book0 = tracer._book
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf()
                span.book = tracer._book - book0
                tracer._stack.pop()
                tracer._book += perf() - span.end

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        # From a class, save the raw dict entry so a classmethod comes back as one.
        saved = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, saved))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable; :meth:`uninstall` restores them."""
        modules = [m for k, m in list(sys.modules.items()) if k == "neqtemp" or k.startswith("neqtemp.")]
        for mod_name, names in FUNCTIONS.items():
            home = sys.modules[f"neqtemp.{mod_name}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapped)
        for span_name, targets in METHODS.items():
            for mod_name, cls_name, attr in targets:
                cls = getattr(sys.modules[f"neqtemp.{mod_name}"], cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(span_name, orig.__func__)))
                else:
                    self._set(cls, attr, self._wrap(span_name, orig))
        for attr in ("eigh", "eigvalsh"):
            self._set(np.linalg, attr, self._wrap(NUMPY_SPAN, getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def run(self, report_id: int, fn, *args):
        """Call ``fn(*args)`` as report ``report_id`` with spans recorded."""
        self.report = report_id
        self.active = True
        try:
            return fn(*args)
        finally:
            self.active = False

    def fold(self) -> None:
        """Add the recorded spans to the running totals and drop them.

        Call between reports only. Bounds memory on long traced runs; the
        first batch is kept for :meth:`write`.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        distinct: dict[tuple[str, int], set] = {}
        for i, s in enumerate(self.spans):
            self._calls[s.name] = self._calls.get(s.name, 0) + 1
            self._self_s[s.name] = self._self_s.get(s.name, 0.0) + s.duration - child[i]
            if s.digest is not None:
                distinct.setdefault((s.name, s.report), set()).add(s.digest)
        for (name, _report), digests in distinct.items():
            self._useful[name] = self._useful.get(name, 0) + len(digests)
        if not self.kept:
            self.kept = self.spans
        self.spans = []

    def layer_metrics(self, n_reports: int) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_frac, per traced report."""
        self.fold()
        out = {}
        for metric, _unit, _better in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if span == "trace":
                continue
            n = self._calls.get(span, 0)
            if kind == "calls":
                out[metric] = n / n_reports
            elif kind == "self_ms":
                out[metric] = 1e3 * self._self_s.get(span, 0.0) / n_reports
            else:
                # Distinct inputs within a report per call; a layer never
                # called wastes nothing.
                out[metric] = self._useful.get(span, 0) / n if n else 1.0
        return out

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines, times in seconds from the first."""
        t0 = self.kept[0].start if self.kept else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.kept:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "report": s.report, "error": s.error,
                }) + "\n")
