"""Spans around qcrb's public functions, recorded from outside the package.

`installed(recorder)` replaces the public functions of the layer modules
(and `qcrb.cli.main`, `scipy.linalg.expm_frechet`, `scipy.optimize.minimize`)
with wrappers for the duration of a `with` block. Calls are resolved through
module attributes, so internal calls such as `_grow_truncation ->
tangent_frame` are caught too. A wrapper records a span only while an op is
open (`recorder.op(i)`); correctness gates run outside ops and are not traced.

Each span is `[name, layer, op, parent, t0, t1, attrs]`. The scipy spans take
the layer of the span that called them, so `expm_frechet` under a model
derivative is `model.expm_frechet` and an L-BFGS solve under the oracle is
`oracle.scipy_minimize`.
"""

import contextlib
import functools
import importlib
import inspect
import json
import time

LAYERS = ("matkernel", "model", "analysis", "measurement", "oracle")
EXTERNAL = (("scipy.linalg", "expm_frechet", "expm_frechet"),
            ("scipy.optimize", "minimize", "scipy_minimize"))   # (module, attr, span name)
FOCK_BUILDS = ("model.catalog_shifted_number", "model.catalog_squeezed")
BUILDS = ("model.catalog_spin_rotation",) + FOCK_BUILDS
DUP_TOL = 1e-8


def _dup_restarts(result):
    """(restarts within DUP_TOL of the accepted value, minus one; restarts)."""
    same = sum(1 for s in result.restarts if abs(s.value - result.value) <= DUP_TOL)
    return [same - 1, len(result.restarts)]


# Values read from a span's return value, keyed by span name.
ATTRS = {
    "oracle.scipy_minimize": lambda r: [int(r.nit), int(r.nfev)],
    "oracle.minimize": _dup_restarts,
    "oracle.stationarity_certificate": lambda r: float(r.residual),
    "measurement.pvm_from_vectors": lambda r: len(r.outcomes),
    "model.catalog_shifted_number": lambda r: int(r.dim),
    "model.catalog_squeezed": lambda r: int(r.dim),
}


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def op(self, op_id):
        """Open the root span of one op; spans inside it carry `op_id`."""
        self._op = op_id
        span = ["op", "bench", op_id, None, time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def wrap(self, fn, name, layer):
        """`fn` recording a span named `layer.name`; layer None inherits."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            span_layer = layer or self.spans[parent][1]
            full = f"{span_layer}.{name}"
            span = [full, span_layer, self._op, parent, time.perf_counter(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            probe = ATTRS.get(full)
            if probe is not None:
                span[6] = probe(result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "op", "parent", "t0", "t1", "attrs"],
                       "spans": self.spans}, fh)


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield attr, obj


@contextlib.contextmanager
def installed(recorder):
    """Swap the traced functions in, and restore the originals on exit."""
    saved = []

    def swap(mod, attr, wrapped):
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapped)

    for layer in LAYERS:
        mod = importlib.import_module(f"qcrb.{layer}")
        for attr, fn in list(_public_functions(mod)):
            swap(mod, attr, recorder.wrap(fn, attr, layer))
    cli = importlib.import_module("qcrb.cli")
    swap(cli, "main", recorder.wrap(cli.main, "main", "cli"))
    for modname, attr, name in EXTERNAL:
        mod = importlib.import_module(modname)
        swap(mod, attr, recorder.wrap(getattr(mod, attr), name, None))
    try:
        yield recorder
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


class SpanIndex:
    """Aggregates over a finished span list.

    A span's keys are its name and `layer:<layer>`. Busy time for a key counts
    only the outermost spans carrying it, so nested calls are not counted
    twice; self time is a span's duration minus its children's durations.
    """

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self._child = [0.0] * n
        self._above = [frozenset()] * n
        self._by_key = {}
        for i, (name, layer, _, parent, t0, t1, _) in enumerate(spans):
            if parent is not None:
                self._child[parent] += t1 - t0
                p = spans[parent]
                self._above[i] = self._above[parent] | {p[0], "layer:" + p[1]}
            self._by_key.setdefault(name, []).append(i)
            self._by_key.setdefault("layer:" + layer, []).append(i)

    def _duration(self, i):
        return self.spans[i][5] - self.spans[i][4]

    def busy(self, key):
        return sum(self._duration(i) for i in self._by_key.get(key, ())
                   if key not in self._above[i])

    def self_time(self, key):
        return sum(self._duration(i) - self._child[i] for i in self._by_key.get(key, ()))

    def calls(self, name):
        return len(self._by_key.get(name, ()))

    def attrs(self, name):
        return [self.spans[i][6] for i in self._by_key.get(name, ())
                if self.spans[i][6] is not None]


def layer_metrics(spans, n_ops):
    """Per-layer metrics of the traced ops, each as `(value, unit)`."""
    ix = SpanIndex(spans)

    def ms(seconds):
        return (1e3 * seconds / n_ops, "ms/op")

    def per_op(count, unit):
        return (count / n_ops, unit)

    def mean(values, unit):
        return (sum(values) / len(values) if values else 0.0, unit)

    solves = ix.attrs("oracle.scipy_minimize")
    dups = ix.attrs("oracle.minimize")
    residuals = ix.attrs("oracle.stationarity_certificate")
    return {
        "matkernel.busy_ms_per_op": ms(ix.busy("layer:matkernel")),
        "matkernel.hermitian_eig.calls_per_op":
            per_op(ix.calls("matkernel.hermitian_eig"), "calls/op"),
        "matkernel.antisym_canonical.calls_per_op":
            per_op(ix.calls("matkernel.antisym_canonical"), "calls/op"),
        "matkernel.expm_skew_hermitian.busy_ms_per_op":
            ms(ix.busy("matkernel.expm_skew_hermitian")),
        "model.build.ms_per_op": ms(sum(ix.busy(name) for name in BUILDS)),
        "model.tangent_frame.calls_per_op":
            per_op(ix.calls("model.tangent_frame"), "calls/op"),
        "model.tangent_frame.self_ms_per_op": ms(ix.self_time("model.tangent_frame")),
        "model.fisher_data.busy_ms_per_op": ms(ix.busy("model.fisher_data")),
        "model.expm_frechet.calls_per_op":
            per_op(ix.calls("model.expm_frechet"), "calls/op"),
        "model.expm_frechet.busy_ms_per_op": ms(ix.busy("model.expm_frechet")),
        "model.trunc_dim_mean":
            mean([d for name in FOCK_BUILDS for d in ix.attrs(name)], "dim"),
        "analysis.self_ms_per_op": ms(ix.self_time("layer:analysis")),
        "analysis.beta_spectrum.calls_per_op":
            per_op(ix.calls("analysis.beta_spectrum"), "calls/op"),
        "analysis.cr_bound.busy_ms_per_op": ms(ix.busy("analysis.cr_bound")),
        "measurement.self_ms_per_op": ms(ix.self_time("layer:measurement")),
        "measurement.pvm_from_vectors.busy_ms_per_op":
            ms(ix.busy("measurement.pvm_from_vectors")),
        "measurement.sample_outcomes.busy_ms_per_op":
            ms(ix.busy("measurement.sample_outcomes")),
        "measurement.outcomes_per_pvm":
            mean(ix.attrs("measurement.pvm_from_vectors"), "outcomes"),
        "oracle.minimize.busy_ms_per_op": ms(ix.busy("oracle.minimize")),
        "oracle.certificate.busy_ms_per_op":
            ms(ix.busy("oracle.stationarity_certificate")),
        "oracle.inner_solves_per_op": per_op(len(solves), "solves/op"),
        "oracle.lbfgs_iters_per_op": per_op(sum(s[0] for s in solves), "iters/op"),
        "oracle.fevals_per_op": per_op(sum(s[1] for s in solves), "fevals/op"),
        "oracle.dup_restart_frac":
            (sum(d[0] for d in dups) / sum(d[1] for d in dups) if dups else 0.0, "frac"),
        "oracle.cert_residual_max": (max(residuals, default=0.0), "abs"),
        "cli.handler_ms_per_op": ms(ix.busy("cli.main")),
    }
