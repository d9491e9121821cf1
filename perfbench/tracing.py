"""In-memory span tracing of vanspec's public functions, from outside the package.

`install(recorder)` replaces each traced function in every vanspec namespace
that holds it (``vanspec.spectral.build_vandermonde`` and
``vanspec.reconstruct.build_vandermonde`` alike) with a wrapper that records a
span (name, start, end, parent).  It returns the list of patches, and
`restore` puts every original back.  Nothing under ``src/`` is edited.

The wrappers keep one span stack, so a traced process must run serially
(``--threads 1``), as every benchmark workload does.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time

import numpy as np

MODULES = ("vanspec", "vanspec.cli", "vanspec.moments", "vanspec.partitions",
           "vanspec.reconstruct", "vanspec.sampling", "vanspec.scenarios",
           "vanspec.spectral", "vanspec.svgplot")

# (module, function) -> span name.  Functions are patched by identity in
# every module of MODULES that binds them.
FUNCTIONS = {
    ("vanspec.spectral", "eta_mixture"): "spectral.mixture",
    ("vanspec.spectral", "eta_u_table"): "spectral.eta_table_build",
    ("vanspec.spectral", "aesd"): "spectral.aesd",
    ("vanspec.spectral", "summarize_eigenvalues"): "spectral.summarize",
    ("vanspec.spectral", "build_vandermonde"): "spectral.build_vandermonde",
    ("vanspec.spectral", "gram_eigenvalues"): "spectral.gram",
    ("vanspec.reconstruct", "mse_monte_carlo"): "reconstruct.mse_monte_carlo",
    ("vanspec.reconstruct", "lmmse"): "reconstruct.lmmse",
    ("vanspec.reconstruct", "observe"): "reconstruct.observe",
    ("vanspec.reconstruct", "generate_spectrum"): "reconstruct.generate_spectrum",
    ("vanspec.partitions", "lattice_count"): "partitions.lattice_count",
    ("vanspec.partitions", "vandermonde_coefficient"): "partitions.coefficient",
    ("vanspec.moments", "moment_table"): "moments.moment_table",
    ("vanspec.moments", "density_power_integrals"): "moments.power_integrals",
    ("vanspec.cli", "write_table"): "cli.write_table",
    ("vanspec.svgplot", "line_plot_svg"): "svgplot.line_plot",
}

# Factories whose product carries a sampler (and, for fading, a g_x density)
# as a dataclass field: the product is re-built with traced callables.
# Their own time is the span "scenarios.profile".
DISTRIBUTION_FACTORIES = (
    ("vanspec.sampling", "uniform_distribution"),
    ("vanspec.scenarios", "hole_distribution"),
    ("vanspec.scenarios", "fading_distribution"),
    ("vanspec.scenarios", "fading_gx"),
    ("vanspec.scenarios", "csma_success_profile"),
)

ROOT = "cli.main"


class Recorder:
    """Spans kept in memory as [name, start, end, parent index] (parent -1 at the root)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.ill_conditioned = 0

    def span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced


def _patch(patches, owner, attr, new):
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


def _patch_everywhere(patches, modules, original, new):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                _patch(patches, mod, attr, new)


def install(rec: Recorder) -> list:
    """Wrap the traced functions; return the patches for `restore`."""
    modules = [importlib.import_module(m) for m in MODULES]
    spectral = importlib.import_module("vanspec.spectral")
    patches: list = []
    for (mod, fn_name), span_name in FUNCTIONS.items():
        original = getattr(importlib.import_module(mod), fn_name)
        wrapped = (_lmmse(rec, original) if fn_name == "lmmse"
                   else rec.wrap(span_name, original))
        _patch_everywhere(patches, modules, original, wrapped)
    for mod, fn_name in DISTRIBUTION_FACTORIES:
        original = getattr(importlib.import_module(mod), fn_name)
        _patch_everywhere(patches, modules, original, _factory(rec, original))
    _patch(patches, spectral.EtaUTable, "eta",
           rec.wrap("spectral.eta_lookup", spectral.EtaUTable.eta))
    _patch(patches, np.linalg, "eigvalsh", rec.wrap("spectral.eigvalsh", np.linalg.eigvalsh))
    return patches


def _lmmse(rec: Recorder, original):
    """Span plus a count of the results flagged ill-conditioned."""
    @functools.wraps(original)
    def lmmse(*args, **kwargs):
        res = rec.span("reconstruct.lmmse", original, *args, **kwargs)
        rec.ill_conditioned += bool(res.ill_conditioned)
        return res
    return lmmse


def _factory(rec: Recorder, original):
    @functools.wraps(original)
    def factory(*args, **kwargs):
        return _traced_product(rec, rec.span("scenarios.profile", original, *args, **kwargs))
    return factory


def _traced_product(rec: Recorder, out):
    from vanspec.sampling import GxClosedForm, SamplingDistribution
    from vanspec.scenarios import CsmaProfile

    if isinstance(out, GxClosedForm):
        return dataclasses.replace(out, density=rec.wrap("scenarios.gx_density", out.density))
    if isinstance(out, SamplingDistribution):
        return dataclasses.replace(out, sampler=rec.wrap("sampling.sampler", out.sampler))
    if isinstance(out, CsmaProfile):
        return dataclasses.replace(out, distribution=_traced_product(rec, out.distribution))
    raise TypeError(f"no traced form for {type(out).__name__}")


def restore(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, ill_conditioned: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced run (one ROOT span) in the units of BENCHMARK.json."""
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]

    def idx(name):
        return [i for i, n in enumerate(names) if n == name]

    def total(name, own=False):
        return float(sum((selfs if own else dur)[i] for i in idx(name)))

    def under(name, ancestor):
        """Spans called `name` that have an `ancestor` span above them."""
        count = 0
        for i in idx(name):
            p = spans[i][3]
            while p >= 0 and names[p] != ancestor:
                p = spans[p][3]
            count += p >= 0
        return count

    lookups = [dur[i] for i in idx("spectral.eta_lookup")]
    eig = [dur[i] for i in idx("spectral.eigvalsh")]
    lmmse = [dur[i] for i in idx("reconstruct.lmmse")]
    mixtures = len(idx("spectral.mixture"))
    coeffs = idx("partitions.coefficient")
    counted = {spans[i][3] for i in idx("partitions.lattice_count")}
    root = idx(ROOT)
    return {
        "spectral.eta_lookup_s": float(sum(lookups)),
        "spectral.eta_lookups": len(lookups),
        "spectral.eta_lookup_p50_us": _pct(lookups, 50) * 1e6,
        "spectral.eta_lookup_p99_us": _pct(lookups, 99) * 1e6,
        "spectral.mixture_s": total("spectral.mixture"),
        "spectral.mixture_self_s": total("spectral.mixture", own=True),
        "spectral.mixture_calls": mixtures,
        "spectral.lookups_per_mixture":
            under("spectral.eta_lookup", "spectral.mixture") / mixtures if mixtures else 0.0,
        "spectral.eta_table_build_s": total("spectral.eta_table_build"),
        "spectral.eta_table_builds": len(idx("spectral.eta_table_build")),
        "spectral.trials": under("spectral.gram", "spectral.aesd"),
        "spectral.aesd_s": total("spectral.aesd"),
        "spectral.summarize_s": total("spectral.summarize"),
        "sampling.sampler_s": total("sampling.sampler"),
        "sampling.sampler_calls": len(idx("sampling.sampler")),
        "spectral.build_vandermonde_s": total("spectral.build_vandermonde", own=True),
        "spectral.build_vandermonde_calls": len(idx("spectral.build_vandermonde")),
        "spectral.gram_s": total("spectral.gram", own=True),
        "spectral.eigvalsh_s": float(sum(eig)),
        "spectral.eigensolves": len(eig),
        "spectral.eigensolve_p50_ms": _pct(eig, 50) * 1e3,
        "spectral.eigensolve_p99_ms": _pct(eig, 99) * 1e3,
        "reconstruct.mse_monte_carlo_s": total("reconstruct.mse_monte_carlo"),
        "reconstruct.lmmse_s": float(sum(lmmse)),
        "reconstruct.lmmse_calls": len(lmmse),
        "reconstruct.lmmse_p50_ms": _pct(lmmse, 50) * 1e3,
        "reconstruct.observe_s": total("reconstruct.observe"),
        "reconstruct.generate_spectrum_s": total("reconstruct.generate_spectrum"),
        "reconstruct.ill_conditioned": ill_conditioned,
        "partitions.lattice_count_s": total("partitions.lattice_count"),
        "partitions.lattice_counts": len(idx("partitions.lattice_count")),
        "partitions.coefficient_calls": len(coeffs),
        "partitions.coefficient_counted_frac":
            sum(i in counted for i in coeffs) / len(coeffs) if coeffs else 0.0,
        "moments.moment_table_s": total("moments.moment_table"),
        "moments.power_integrals_s": total("moments.power_integrals"),
        "scenarios.profile_s": total("scenarios.profile", own=True) + total("scenarios.gx_density"),
        "scenarios.gx_density_evals": len(idx("scenarios.gx_density")),
        "cli.write_table_s": total("cli.write_table"),
        "svgplot.line_plot_s": total("svgplot.line_plot"),
        "trace.wall_s": float(sum(dur[i] for i in root)),
        "trace.other_s": float(sum(selfs[i] for i in root)),
    }
