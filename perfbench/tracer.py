"""Layer tracer for the benchmark: spans around calls into ellipticlab.

Every public function of the nine layer modules, a few public methods, and
the numpy.linalg / scipy.linalg entry points ("kernel") are replaced by a
wrapper that records a span (name, start, end, parent, thread id, run id).
Wrappers are installed by identity in every loaded ``ellipticlab.*``
namespace, so ``harness.sample`` and ``ensemble.sample`` land in the same
span whichever module a call site imports it from.  Nothing under ``src/``
is edited; ``uninstall`` puts every original back.

A span's self time is its duration minus the time its child spans cover,
within one thread.  Book-keeping done after a call (residual recomputation,
file sizes) is excluded from the enclosing span's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("ensemble", "spectral", "dyson", "potential", "stability", "quad2d",
          "bumps", "harness", "cli")

# Public methods traced in addition to module-level functions.
CLASS_METHODS = {
    "spectral": {"ResolventSolver": ("__init__", "apply", "avg_trace", "partial_traces")},
    "bumps": {"TestFunction": ("f", "laplacian", "observable", "observable_laplacian")},
    "harness": {"ExperimentReport": ("write_jsonl", "write_summary"),
                "DensityMap": ("write_csv",)},
}

KERNEL_MODULES = ("numpy.linalg", "scipy.linalg")
KERNEL_FUNCS = ("svd", "eig", "eigvals", "inv", "cholesky", "solve", "slogdet")
KERNEL_NAMES = ("svd", "svd_uv", "eig", "eigvals", "inv", "cholesky", "solve", "slogdet")
FACTORIZATION_MIN_SIDE = 64

EXPERIMENTS = ("averaged_local_law", "isotropic_local_law", "delocalisation_test",
               "linear_statistics", "girko_consistency", "monte_carlo_estimate",
               "small_singular_scan", "density_map", "error_matrix_experiment",
               "density_integral")

WRITERS = ("harness.ExperimentReport.write_jsonl", "harness.ExperimentReport.write_summary",
           "harness.DensityMap.write_csv", "harness.dump_eigenvalues",
           "harness.dump_functionals", "ensemble.save_matrix")

# Span groups behind the spectral metrics.
SPECTRAL_GROUPS = {
    "error_matrix": ("spectral.error_matrix", "spectral.self_energy_hat"),
    "test_matrices": ("spectral.default_test_matrices",),
    "error_matrix_norms": ("spectral.error_matrix_norms",),
    "decompose": ("spectral.decompose",),
}

# Boundaries the per-layer metrics are computed from: metric prefix -> span.
EXPECTED = {
    "ensemble.sample": "ensemble.sample",
    "spectral.error_matrix": "spectral.error_matrix",
    "spectral.test_matrices": "spectral.default_test_matrices",
    "spectral.error_matrix_norms": "spectral.error_matrix_norms",
    "spectral.resolvent_solver": "spectral.ResolventSolver.__init__",
    "spectral.decompose": "spectral.decompose",
    "dyson": "dyson.solve_dyson_grid",
    "potential": "potential.log_potential_grid",
    "stability": "stability.stability_analysis",
    "quad2d": "quad2d.adaptive_quad2d",
    "bumps": "bumps.TestFunction.f",
    "cli.main": "cli.main",
    **{f"harness.{e}": f"harness.{e}" for e in EXPERIMENTS},
    **{f"kernel.{k}": f"kernel:numpy.linalg.{k}" for k in KERNEL_FUNCS},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "run", "child", "attrs")

    def __init__(self, name, parent, run):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.run = run
        self.child = 0.0
        self.attrs = None
        self.start = self.end = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


def _bind(fn, args, kwargs) -> dict:
    try:
        ba = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    ba.apply_defaults()
    return ba.arguments


def mde_residual(zeta, eta, v, b, rho):
    """Max-entry |I + (Z + S[M]) M| for M = [[i v, conj b], [b, i v]].

    Written from the defining relation -M^{-1} = Z + S[M] with
    Z = [[i eta, zeta], [conj zeta, i eta]] and
    S[[a, c], [d, e]] = [[e, rho d], [rho c, a]].
    """
    m11 = m22 = 1j * v
    m12, m21 = np.conj(b), b
    k11 = 1j * eta + m22
    k12 = zeta + rho * m21
    k21 = np.conj(zeta) + rho * m12
    k22 = 1j * eta + m11
    r = np.stack([1.0 + k11 * m11 + k12 * m21, k11 * m12 + k12 * m22,
                  k21 * m11 + k22 * m21, 1.0 + k21 * m12 + k22 * m22])
    return np.max(np.abs(r), axis=0)


class Tracer:
    """Installs span-recording wrappers; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self.missing: dict[str, str] = {}
        self.wrapped: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()

    # -- span stack ---------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.run_id)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start

    def _wrap(self, name, fn, attrs=None, after=None, before=None):
        """Wrapper recording a span; `name` may be a callable of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, fn, args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            span = tracer._open(label)
            if attrs is not None:
                span.attrs = attrs(fn, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                t0 = time.perf_counter()
                after(span, fn, args, kwargs, out)
                if span.parent is not None:
                    span.parent.child += time.perf_counter() - t0
            return out

        return traced

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        by_id: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"ellipticlab.{layer}")
            if mod is None:
                self.missing[f"ellipticlab.{layer}"] = "module not loaded"
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    span_name = f"{layer}.{attr}"
                    by_id[id(obj)] = (obj, self._boundary(span_name, obj))
                    self.wrapped.add(span_name)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if inspect.isclass(cls) else None
                    span_name = f"{layer}.{cls_name}.{meth}"
                    if not inspect.isfunction(fn):
                        self.missing[span_name] = "method not found"
                        continue
                    self._patch(cls, meth, self._boundary(span_name, fn))
                    self.wrapped.add(span_name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ellipticlab"
                                   or mod_name.startswith("ellipticlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for mod_name in KERNEL_MODULES:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            for func in KERNEL_FUNCS:
                fn = getattr(mod, func, None)
                if fn is None:
                    continue
                self._patch(mod, func, self._wrap(_kernel_name(func), fn,
                                                  attrs=_kernel_attrs))
                self.wrapped.add(f"kernel:{mod_name}.{func}")
        for metric, span_name in EXPECTED.items():
            if span_name not in self.wrapped:
                self.missing.setdefault(metric, f"boundary {span_name} not found")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _boundary(self, span_name: str, fn):
        if span_name == "ensemble.sample":
            return self._wrap(span_name, fn, after=_after_sample)
        if span_name == "dyson.solve_dyson_grid":
            return self._wrap(span_name, fn, after=_after_dyson)
        if span_name == "quad2d.adaptive_quad2d":
            return self._wrap(span_name, fn, before=_wrap_integrand, after=_after_quad)
        if span_name in WRITERS:
            return self._wrap(span_name, fn, after=_after_write)
        if span_name.startswith("harness."):
            return self._wrap(span_name, fn, attrs=_cpu_start, after=_cpu_end)
        return self._wrap(span_name, fn)

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps([s.name, s.start, s.end, parent, s.thread, s.run]) + "\n")

    def layer_metrics(self, run_id: int) -> dict:
        return layer_metrics([s for s in self.spans if s.run == run_id])


# -- per-boundary hooks ------------------------------------------------------

def _kernel_name(func: str):
    def name(args, kwargs):
        a = np.asarray(args[0]) if args else None
        if func == "svd":
            uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
            if a is not None and a.ndim > 2:
                return "kernel.batched_svd"
            return "kernel.svd_uv" if uv else "kernel.svd"
        return f"kernel.{func}"
    return name


def _kernel_attrs(fn, args, kwargs) -> dict:
    a = np.asarray(args[0]) if args else np.zeros((0, 0))
    side = min(a.shape[-2:]) if a.ndim >= 2 else 0
    return {"bytes": int(a.nbytes), "side": int(side),
            "matrices": int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1}


def _after_sample(span, fn, args, kwargs, out) -> None:
    bound = _bind(fn, args, kwargs)
    span.attrs = {"key": (bound.get("spec"), int(bound.get("trial", 0))),
                  "mb": out.entries.nbytes / 1e6}


def _after_dyson(span, fn, args, kwargs, out) -> None:
    bound = _bind(fn, args, kwargs)
    v, b, _, iters = out
    zeta, eta = np.broadcast_arrays(np.asarray(bound["zeta"], dtype=complex),
                                    np.asarray(bound["eta"], dtype=float))
    zeta, eta, v, b = (np.ravel(a) for a in (zeta, eta, v, b))
    rho = float(bound["rho"])
    residual = 0.0
    for lo in range(0, v.size, 1 << 16):
        sl = slice(lo, lo + (1 << 16))
        residual = max(residual, float(np.max(mde_residual(zeta[sl], eta[sl], v[sl],
                                                           b[sl], rho))))
    attrs = {"points": int(v.size), "iterations": int(np.sum(iters)), "residual": residual}
    if any(p.layer == "potential" for p in span.ancestors()):
        attrs["nodes"] = np.stack([zeta.real, zeta.imag, eta], axis=1)
    span.attrs = attrs


def _wrap_integrand(tracer, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    func = bound["func"]

    def integrand(pts):
        span = tracer._open("quad2d.integrand")
        span.attrs = {"points": int(np.size(pts))}
        try:
            return func(pts)
        finally:
            tracer._close(span)

    bound["func"] = integrand
    return (), bound


def _after_quad(span, fn, args, kwargs, out) -> None:
    span.attrs = {"err": float(out[1])}


def _after_write(span, fn, args, kwargs, out) -> None:
    path = _bind(fn, args, kwargs).get("path")
    span.attrs = {"bytes": os.path.getsize(path) if path is not None else 0}


def _cpu_start(fn, args, kwargs) -> dict:
    return {"cpu0": time.process_time()}


def _cpu_end(span, fn, args, kwargs, out) -> None:
    span.attrs["cpu"] = time.process_time() - span.attrs["cpu0"]


# -- per-layer metrics ---------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of the spans of one traced workload iteration."""

    def named(*names):
        return [s for s in spans if s.name in names]

    def entries(layer):
        return [s for s in spans if s.layer == layer
                and (s.parent is None or s.parent.layer != layer)]

    def self_s(group):
        return sum(s.self_time for s in group)

    def layer_self(layer):
        return self_s([s for s in spans if s.layer == layer])

    out = {}
    samples = named("ensemble.sample")
    keys = {s.attrs["key"] for s in samples if s.attrs}
    out["ensemble.sample.calls"] = len(samples)
    out["ensemble.sample.self_s"] = self_s(samples)
    out["ensemble.sample.unique_ratio"] = _ratio(len(keys), len(samples))
    out["ensemble.sample.mb_computed"] = sum(s.attrs["mb"] for s in samples if s.attrs)

    kernels = [s for s in spans if s.layer == "kernel"]
    for k in KERNEL_NAMES:
        group = [s for s in kernels if s.name == f"kernel.{k}"]
        out[f"kernel.{k}.calls"] = len(group)
        out[f"kernel.{k}.self_s"] = self_s(group)
    factorizations = sum(1 for s in kernels if s.name != "kernel.batched_svd"
                         and s.attrs["side"] >= FACTORIZATION_MIN_SIDE)
    out["kernel.factorizations_per_sample"] = _ratio(factorizations, len(keys))
    out["kernel.input_mb_computed"] = sum(s.attrs["bytes"] for s in kernels) / 1e6
    batched = [s for s in kernels if s.name == "kernel.batched_svd"]
    out["kernel.batched_svd.matrices"] = sum(s.attrs["matrices"] for s in batched)
    out["kernel.batched_svd.self_s"] = self_s(batched)

    for group in ("error_matrix", "test_matrices", "error_matrix_norms"):
        out[f"spectral.{group}.self_s"] = self_s(named(*SPECTRAL_GROUPS[group]))
    solver = [s for s in spans if s.name.startswith("spectral.ResolventSolver.")]
    out["spectral.resolvent_solver.calls"] = sum(
        1 for s in solver if s.name.endswith("__init__"))
    out["spectral.resolvent_solver.self_s"] = self_s(solver)
    decs = named(*SPECTRAL_GROUPS["decompose"])
    out["spectral.decompose.calls"] = len(decs)
    out["spectral.decompose.self_s"] = self_s(decs)

    grids = [s for s in named("dyson.solve_dyson_grid") if s.attrs]
    points = sum(s.attrs["points"] for s in grids)
    out["dyson.calls"] = len(entries("dyson"))
    out["dyson.points"] = points
    out["dyson.self_s"] = layer_self("dyson")
    out["dyson.points_per_s"] = _ratio(points, out["dyson.self_s"])
    out["dyson.iterations_sum"] = sum(s.attrs["iterations"] for s in grids)
    out["dyson.max_residual"] = max((s.attrs["residual"] for s in grids), default=0.0)

    nodes = [s.attrs["nodes"] for s in grids if "nodes" in s.attrs]
    solved = sum(len(n) for n in nodes)
    distinct = len(np.unique(np.concatenate(nodes), axis=0)) if nodes else 0
    out["potential.calls"] = len(entries("potential"))
    out["potential.self_s"] = layer_self("potential")
    out["potential.dyson_points"] = solved
    out["potential.unique_ratio"] = _ratio(distinct, solved)

    out["stability.calls"] = len(entries("stability"))
    out["stability.self_s"] = layer_self("stability")

    quads = named("quad2d.adaptive_quad2d")
    integrands = named("quad2d.integrand")
    out["quad2d.calls"] = len(quads)
    out["quad2d.points"] = sum(s.attrs["points"] for s in integrands)
    out["quad2d.self_s"] = self_s(quads)
    out["quad2d.integrand_s"] = sum(s.duration for s in integrands)
    out["quad2d.err_estimate"] = max((s.attrs["err"] for s in quads if s.attrs), default=0.0)
    out["bumps.calls"] = len(entries("bumps"))
    out["bumps.self_s"] = layer_self("bumps")

    for exp in EXPERIMENTS:
        out[f"harness.{exp}.wall_s"] = sum(s.duration for s in named(f"harness.{exp}"))
    out["harness.self_s"] = layer_self("harness")
    top = [s for s in entries("harness") if s.attrs and "cpu" in s.attrs]
    out["harness.cpu_per_wall"] = _ratio(sum(s.attrs["cpu"] for s in top),
                                         sum(s.duration for s in top))

    writes = named(*WRITERS)
    out["cli.main.wall_s"] = sum(s.duration for s in named("cli.main"))
    out["cli.write_s"] = sum(s.duration for s in writes)
    out["cli.bytes_written"] = sum(s.attrs["bytes"] for s in writes if s.attrs)
    return {k: float(v) for k, v in out.items()}


# Counts repeat exactly for a given input; the rest are timings.
COUNT_METRICS = (
    "ensemble.sample.calls", "ensemble.sample.unique_ratio", "ensemble.sample.mb_computed",
    *(f"kernel.{k}.calls" for k in KERNEL_NAMES),
    "kernel.factorizations_per_sample", "kernel.input_mb_computed",
    "kernel.batched_svd.matrices", "spectral.resolvent_solver.calls",
    "spectral.decompose.calls", "dyson.calls", "dyson.points", "dyson.iterations_sum",
    "dyson.max_residual", "potential.calls", "potential.dyson_points",
    "potential.unique_ratio", "stability.calls", "quad2d.calls", "quad2d.points",
    "quad2d.err_estimate", "bumps.calls", "cli.bytes_written",
)

