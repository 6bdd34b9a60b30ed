"""Span tracing for the benchmark's traced run.

Wrappers are installed from the benchmark's own files, in a separate traced
process only, and wrap each function where its caller looks it up: modules
that import a function by name get their own wrapper of the same function.
:func:`install` returns a function that puts the originals back, so that the
traced process can alternate traced and untraced passes.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import time

import numpy as np

# span name -> per-layer metric reporting its summed self time
SELF_TIMES = {
    "cli.main": "cli.self_s",
    "qstate.haar_unitary_batch": "qstate.haar_unitary_batch_s",
    "qstate.ginibre_batch": "qstate.ginibre_batch_s",
    "samplers.sample_g_rejection_batch": "samplers.sample_g_rejection_batch_self_s",
    "samplers.eigvalsh": "samplers.eigvalsh_s",
    "samplers.audit_sup_density_ratio": "samplers.audit_sup_density_ratio_s",
    "samplers.invert_cdf_g2": "samplers.invert_cdf_g2_s",
    "samplers.hs_purity_batch": "samplers.hs_purity_batch_s",
    "eigendensities.c_g_monte_carlo": "eigendensities.c_g_monte_carlo_s",
    "eigendensities.c_g_series": "eigendensities.c_g_series_s",
    "eigendensities.c_g_quadrature": "eigendensities.c_g_quadrature_s",
    "eigendensities.density_grid_qutrit": "eigendensities.density_grid_qutrit_s",
    "statlab.chi_square_gof_simplex": "statlab.chi_square_gof_simplex_s",
    "statlab.simplex_quadrature": "statlab.simplex_quadrature_s",
    "statlab.ks_test": "statlab.ks_test_s",
    "statlab.mc_mean": "statlab.mc_mean_s",
    "similarity.fidelity": "similarity.fidelity_s",
    "similarity.superfidelity": "similarity.superfidelity_s",
    "verify.suite.metric": "verify.suite_s.metric",
    "verify.suite.density": "verify.suite_s.density",
    "verify.suite.sampler": "verify.suite_s.sampler",
    "verify.suite.purity": "verify.suite_s.purity",
}
REJECTION_DIMS = (3, 4, 5)
# counts the traced process records, read off return values
COUNTS = (
    ["qstate.bytes_computed", "eigendensities.cdf_g2_evals", "eigendensities.mc_discarded",
     "samplers.audit_max_over_bound"]
    + [f"samplers.{kind}.dim{d}" for kind in ("proposals", "accepted") for d in REJECTION_DIMS])


class _Override:
    """Stand-in for a module that replaces some attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans (name, start, end, parent, run id) and counts in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index or None]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def add(self, name: str, amount):
        self.counts[name] += amount

    def wrap(self, fn, name: str | None, count=None):
        """``fn`` under a span called ``name`` (None: count only)."""
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self.end(idx)
            if count is not None:
                count(self, result, sig.bind(*args, **kwargs).arguments)
            return result
        return traced

    def export(self) -> dict:
        return {"run_id": self.run_id, "counts": dict(self.counts),
                "spans": [{"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                          for n, s, e, p in self.spans]}


def _count_ginibre(tracer, result, args):
    tracer.add("qstate.bytes_computed", result.nbytes)


def _count_rejection(tracer, result, args):
    _, eigs, report = result
    dim = eigs.shape[1]
    tracer.add(f"samplers.proposals.dim{dim}", report.proposed)
    tracer.add(f"samplers.accepted.dim{dim}", report.accepted)


def _count_audit(tracer, result, args):
    ratio = result.max_ratio / result.bound
    tracer.counts["samplers.audit_max_over_bound"] = max(
        tracer.counts["samplers.audit_max_over_bound"], ratio)


def _count_cdf(tracer, result, args):
    tracer.add("eigendensities.cdf_g2_evals", int(np.size(result)))


def _count_mc(tracer, result, args):
    tracer.add("eigendensities.mc_discarded", args["samples"] - result.terms_or_samples)


def install(tracer: Tracer):
    """Wrap the public functions of each layer where their callers look them up.

    Returns a function that undoes the wrapping.
    """
    from superfid import eigendensities as ed
    from superfid import qstate, samplers, similarity, statlab, verify

    saved = []   # (module, attribute, original value)

    def patch(modules, attr, name, count=None):
        traced = tracer.wrap(getattr(modules[0], attr), name, count)
        for module in modules:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, traced)

    patch([qstate, samplers], "ginibre_batch", "qstate.ginibre_batch", _count_ginibre)
    patch([qstate, samplers], "haar_unitary_batch", "qstate.haar_unitary_batch")
    patch([samplers], "sample_g_rejection_batch", "samplers.sample_g_rejection_batch",
          _count_rejection)
    patch([samplers], "audit_sup_density_ratio", "samplers.audit_sup_density_ratio",
          _count_audit)
    patch([samplers], "invert_cdf_g2", "samplers.invert_cdf_g2")
    patch([samplers], "hs_purity_batch", "samplers.hs_purity_batch")
    patch([ed, samplers], "cdf_g2", None, _count_cdf)
    patch([ed], "c_g_monte_carlo", "eigendensities.c_g_monte_carlo", _count_mc)
    for attr in ("c_g_series", "c_g_quadrature", "density_grid_qutrit"):
        patch([ed], attr, f"eigendensities.{attr}")
    patch([statlab], "chi_square_gof_simplex", "statlab.chi_square_gof_simplex")
    patch([statlab, ed], "simplex_quadrature", "statlab.simplex_quadrature")
    patch([statlab], "ks_test", "statlab.ks_test")
    patch([statlab, ed], "mc_mean", "statlab.mc_mean")
    patch([similarity], "fidelity", "similarity.fidelity")
    patch([similarity], "superfidelity", "similarity.superfidelity")
    suites = dict(verify._SUITE_FUNCS)
    for suite, fn in suites.items():
        verify._SUITE_FUNCS[suite] = tracer.wrap(fn, f"verify.suite.{suite}")
    # samplers calls np.linalg.eigvalsh; only its lookup is redirected
    eigvalsh = tracer.wrap(np.linalg.eigvalsh, "samplers.eigvalsh")
    saved.append((samplers, "np", samplers.np))
    samplers.np = _Override(np, linalg=_Override(np.linalg, eigvalsh=eigvalsh))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        verify._SUITE_FUNCS.update(suites)
    return restore


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = {}
    for span, child in zip(spans, covered):
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["end"] - span["start"] - child
    return totals
