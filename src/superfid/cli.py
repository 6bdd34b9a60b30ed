"""Command-line front end.

Subcommands::

    superfid sample    --measure {hs,bures,g} --dim N --count K [--seed S]
                       [--format {csv,json}] [--out PATH]
                       [--full-matrix] [--max-proposals M]
    superfid estimate  --dim N --method {exact,jensen,series,mc,quadrature}
                       [--samples S] [--k-max K] [--seed S] [--format/--out]
    superfid grid      --measure {g,bures} --resolution R [--out PATH]
    superfid verify    {metric,density,sampler,purity,all} [--seed S] [--scale X]

The master seed falls back to the SUPERFID_SEED environment variable, then 0.
Outputs carry no timestamps and format floats via ``repr``, so a fixed
(command line, seed) pair reproduces byte-identical bytes: ``sample`` draws
every state in this process from the one stream ``RngStream(seed)``.
``sample`` and ``grid`` write their rows block by block (4096 rows per
block), each block through one ``%r`` template, so neither the whole output
text nor a per-record object is ever held; the JSON layout is exactly that
of ``json.dumps(indent=1)``.
Exit codes: 0 success, 1 verification failure, 2 usage error (an unwritable
``--out`` too), 3 sampling budget exhausted.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import eigendensities as ed
from . import samplers as sm
from . import verify as vf
from .errors import SamplingBudgetError, UnsupportedDimensionError
from .qstate import Measure
from .rng import RngStream, seed_from_env

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# --method value -> estimator; each looks its function up in ``ed`` at call time
ESTIMATORS = {
    "exact": lambda cfg: ed.c_g_exact(cfg.dim),
    "jensen": lambda cfg: ed.c_g_jensen_bound(cfg.dim),
    "series": lambda cfg: ed.c_g_series(cfg.dim, cfg.k_max, RngStream(cfg.seed),
                                        samples=cfg.samples),
    "mc": lambda cfg: ed.c_g_monte_carlo(cfg.dim, cfg.samples, RngStream(cfg.seed)),
    "quadrature": lambda cfg: ed.c_g_quadrature(cfg.dim),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters for one CLI command."""

    command: str
    measure: Measure = Measure.HILBERT_SCHMIDT
    dim: int = 2
    count: int = 1
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    full_matrix: bool = False
    resolution: int = 400
    method: str = "exact"
    samples: int = 100_000
    k_max: int = 20
    suite: str = "all"
    max_proposals: int = sm.DEFAULT_MAX_PROPOSALS
    scale: float = 1.0
    verify_dim: int | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.verify_dim is not None and self.verify_dim < 2:
            raise ValueError("dim must be >= 2")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and > 0")


def _fmt(x: float) -> str:
    return repr(float(x))


def _emit(chunks: Iterable[str], out: str | None):
    """Write ``chunks`` in order to the file ``out``, or to stdout when it is None."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _rows(table: np.ndarray, template: str, sep: str) -> Iterator[str]:
    """The rows of a 2-D float table as text, one block of rows per chunk.

    Each row fills ``template``, which holds one ``%r`` per column (so every
    float prints as its ``repr``, as ``json.dumps`` prints it too), and rows
    are joined by ``sep``, also across blocks.  A block costs one
    ``tolist()`` and one ``%`` call.
    """
    for start in range(0, len(table), sm._BLOCK):
        block = table[start:start + sm._BLOCK]
        text = sep.join([template] * len(block)) % tuple(block.ravel().tolist())
        yield sep + text if start else text


def cmd_sample(cfg: RunConfig) -> int:
    try:
        batch, mats, report = sm.sample_batch(cfg.measure, cfg.dim, cfg.count,
                                              RngStream(cfg.seed),
                                              max_proposals=cfg.max_proposals,
                                              keep_matrices=cfg.full_matrix)
    except SamplingBudgetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    write = _sample_csv if cfg.format == "csv" else _sample_json
    _emit(write(cfg, batch.eigen_records, batch.purity_records, mats, report), cfg.out)
    return EXIT_OK


def _report_dict(report):
    return {
        "proposed": report.proposed,
        "accepted": report.accepted,
        "bound_constant": report.bound_constant,
        "empirical_rate": report.empirical_rate,
    }


def _sample_csv(cfg, eigs, purity, mats, report) -> Iterator[str]:
    lines = [
        f"# superfid sample schema_version={SCHEMA_VERSION}",
        f"# measure={cfg.measure.value} dim={cfg.dim} count={cfg.count} "
        f"seed={cfg.seed}",
    ]
    if report is not None:
        lines.append(f"# rejection proposed={report.proposed} accepted={report.accepted} "
                     f"bound_constant={_fmt(report.bound_constant)} "
                     f"empirical_rate={_fmt(report.empirical_rate)}")
    header = [f"lambda_{k + 1}" for k in range(cfg.dim)] + ["purity"]
    columns = [eigs, purity[:, None]]
    if mats is not None:
        for i in range(cfg.dim):
            for j in range(cfg.dim):
                header += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
        columns.append(mats.reshape(len(purity), -1).view(float))
    lines.append(",".join(header))
    yield "\n".join(lines) + "\n"
    yield from _rows(np.hstack(columns), ",".join(["%r"] * len(header)) + "\n", "")


def _json_list(items: list[str], depth: int) -> str:
    """A JSON list of already formatted ``items`` nested ``depth`` levels deep, indent=1."""
    pad = "\n" + " " * depth
    return "[" + pad + ("," + pad).join(items) + pad[:-1] + "]"


def _sample_json(cfg, eigs, purity, mats, report) -> Iterator[str]:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "sample",
        "measure": cfg.measure.value,
        "dim": cfg.dim,
        "count": cfg.count,
        "seed": cfg.seed,
        "rejection": _report_dict(report) if report is not None else None,
        "records": [],
    }
    head, tail = (json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)
                  + "\n").split('"records": []')
    # one record as json.dumps(indent=1) lays it out at depth 2, keys sorted
    fields = ['"eigenvalues": ' + _json_list(["%r"] * cfg.dim, 4)]
    columns = [eigs]
    if mats is not None:
        fields.append('"matrix_re_im": '
                      + _json_list([_json_list(["%r", "%r"], 5)] * cfg.dim ** 2, 4))
        columns.append(mats.reshape(len(purity), -1).view(float))
    fields.append('"purity": %r')
    columns.append(purity[:, None])
    record = "  {\n   " + ",\n   ".join(fields) + "\n  }"
    yield head + '"records": [\n'
    yield from _rows(np.hstack(columns), record, ",\n")
    yield "\n ]" + tail


def cmd_estimate(cfg: RunConfig) -> int:
    try:
        est = ESTIMATORS[cfg.method](cfg)
    except (UnsupportedDimensionError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "dim": est.dim,
        "method": est.method,
        "value": est.value,
        "std_error": est.std_error,
        "terms_or_samples": est.terms_or_samples,
        "seed": cfg.seed,
    }
    if est.method == "jensen-upper-bound":
        doc["kind"] = "upper_bound"
    if est.truncation_last_term is not None:
        doc["truncation_last_term"] = est.truncation_last_term
    if est.truncation_tail is not None:
        doc["truncation_tail"] = est.truncation_tail
    _emit([json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"], cfg.out)
    return EXIT_OK


def cmd_grid(cfg: RunConfig) -> int:
    if cfg.measure is Measure.HILBERT_SCHMIDT:
        sys.stderr.write("error: grid supports --measure g or bures\n")
        return EXIT_USAGE
    try:
        grid = ed.density_grid_qutrit(cfg.resolution, cfg.measure)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    head = (f"# superfid grid schema_version={SCHEMA_VERSION}\n"
            f"# measure={cfg.measure.value} dim=3 resolution={cfg.resolution}\n"
            "lambda_1,lambda_2,density\n")
    # non-finite densities are NaN, which %r prints as nan
    table = np.column_stack([grid.lambda1, grid.lambda2, grid.density])
    _emit(chain([head], _rows(table, "%r,%r,%r\n", "")), cfg.out)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = vf.run_suite(cfg.suite, cfg.seed, cfg.scale, dim=cfg.verify_dim)
    failures = [r for r in results if not r.passed]
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.suite}/{r.name}: {r.detail}")
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed"
                 + (f"; failures: {', '.join(r.name for r in failures)}" if failures else ""))
    human = "\n".join(lines) + "\n"
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "suite": cfg.suite,
        "seed": cfg.seed,
        "checks": [{"suite": r.suite, "name": r.name, "passed": r.passed,
                    "detail": r.detail} for r in results],
        "passed": not failures,
    }
    doc_json = json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    if cfg.out is not None:
        # human summary on stdout, machine-readable report to the file
        _emit([doc_json], cfg.out)
        sys.stdout.write(human)
    elif cfg.format == "json":
        sys.stdout.write(doc_json)
    else:
        sys.stdout.write(human)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="superfid",
                                     description="Random density matrices under the "
                                                 "superfidelity-induced measure.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: SUPERFID_SEED env var, else 0)")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    p = sub.add_parser("sample", help="draw random states and write eigenvalues/purity")
    p.add_argument("--measure", choices=[m.value for m in Measure], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--full-matrix", action="store_true",
                   help="also emit row-major re,im matrix entries")
    p.add_argument("--max-proposals", type=int, default=sm.DEFAULT_MAX_PROPOSALS,
                   help="rejection budget per accepted sample (superfidelity, dim >= 3)")
    common(p)

    p = sub.add_parser("estimate", help="estimate the superfidelity normalization constant")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--method", choices=list(ESTIMATORS), required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--k-max", type=int, default=20)
    common(p)

    p = sub.add_parser("grid", help="emit a qutrit eigenvalue-density grid as CSV")
    p.add_argument("--measure", choices=[m.value for m in Measure], default="g")
    p.add_argument("--resolution", type=int, default=400)
    common(p)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", choices=list(vf.SUITE_NAMES))
    p.add_argument("--dim", type=int, default=None,
                   help="restrict the purity suite to one dimension")
    p.add_argument("--scale", type=float, default=1.0,
                   help="sample-size multiplier for the checks")
    p.add_argument("--format", choices=["text", "json"], default="text")
    common(p)
    return parser


def _config_from_args(args) -> RunConfig:
    seed = args.seed if args.seed is not None else seed_from_env()
    fields = {"command": args.command, "seed": seed, "out": args.out}
    if args.command == "sample":
        fields.update(measure=Measure(args.measure), dim=args.dim, count=args.count,
                      format=args.format, full_matrix=args.full_matrix,
                      max_proposals=args.max_proposals)
    elif args.command == "estimate":
        fields.update(dim=args.dim, method=args.method, samples=args.samples,
                      k_max=args.k_max, format="json")
    elif args.command == "grid":
        fields.update(measure=Measure(args.measure), resolution=args.resolution)
    elif args.command == "verify":
        fields.update(suite=args.suite, scale=args.scale, format=args.format,
                      verify_dim=args.dim)
    return RunConfig(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    handler = {
        "sample": cmd_sample,
        "estimate": cmd_estimate,
        "grid": cmd_grid,
        "verify": cmd_verify,
    }[cfg.command]
    try:
        return handler(cfg)
    except OSError as exc:   # e.g. an --out path that cannot be opened for writing
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
