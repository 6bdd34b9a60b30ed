"""Output checks for the benchmark's CLI commands.

Each checker takes a :class:`workloads.Command` and the text it wrote, raises
:class:`CheckError` (or fails to parse) when the output is wrong, and returns
what the metrics need: the record count and, for estimates, the value and
standard error.  The statistical checks (KS, chi-square) run on one pass per
run only, so that their false-alarm rate stays that of one test.
"""
from __future__ import annotations

import json
import re
from functools import lru_cache

import numpy as np

from superfid import eigendensities as ed
from superfid import statlab as st
from superfid.qstate import Measure, check_density_matrix
from superfid.rng import RngStream

P_MIN = 1e-3               # goodness-of-fit tests reject below this p-value
SUM_TOL = 1e-12            # eigenvalues sum to one
PURITY_TOL = 1e-14         # purity equals the sum of squared eigenvalues
ESTIMATE_RTOL = 0.01       # MC and series estimates agree
QUADRATURE_RTOL = 1e-8     # quadrature matches the closed form
REFERENCE_SAMPLES = 10 ** 5
REFERENCE_STREAM = 9001    # keeps reference estimates off the workload's own draws


class CheckError(Exception):
    """An output failed its check."""


def _expect(ok, message: str):
    if not ok:
        raise CheckError(message)


def _check_records(eigs: np.ndarray, purity: np.ndarray):
    _expect(np.all(np.diff(eigs, axis=1) <= 0.0), "eigenvalues not in descending order")
    worst = float(np.max(np.abs(eigs.sum(axis=1) - 1.0)))
    _expect(worst <= SUM_TOL, f"eigenvalues sum to 1 only within {worst:.2e}")
    worst = float(np.max(np.abs(purity - np.sum(eigs ** 2, axis=1))))
    _expect(worst <= PURITY_TOL, f"purity differs from sum of squares by {worst:.2e}")


def _gof(measure: str, eigs: np.ndarray, seed: int):
    if measure != "g" or eigs.shape[1] not in (2, 3):
        return
    if eigs.shape[1] == 2:
        # the larger qubit eigenvalue has CDF 2 F(t) - 1 on [1/2, 1]
        res = st.ks_test(eigs[:, 0], lambda t: 2.0 * np.asarray(ed.cdf_g2(t)) - 1.0)
        name = "KS test against cdf_g2"
    else:
        res = st.chi_square_gof_simplex(eigs, ed.normalized_density(Measure.SUPERFIDELITY, 3),
                                        rng=RngStream(seed, REFERENCE_STREAM))
        name = "chi-square test against the normalized G density"
    _expect(res.p_value > P_MIN, f"{name}: p = {res.p_value:.2e}")


def sample_csv(cmd, text: str, stats: bool, seed: int) -> dict:
    dim = int(cmd.option("--dim"))
    count = int(cmd.option("--count"))
    measure = cmd.option("--measure")
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    header = [f"lambda_{k + 1}" for k in range(dim)] + ["purity"]
    _expect(lines[len(meta)] == ",".join(header), "unexpected column header")
    body = lines[len(meta) + 1:]
    _expect(len(body) == count, f"{len(body)} records, expected {count}")
    data = np.array(",".join(body).split(","), dtype=float).reshape(count, dim + 1)
    eigs = data[:, :dim]
    _check_records(eigs, data[:, dim])
    if measure == "g" and dim >= 3:
        found = [re.match(r"# rejection proposed=(\d+) accepted=(\d+) ", line) for line in meta]
        found = [m for m in found if m]
        _expect(len(found) == 1, "missing rejection header")
        proposed, accepted = map(int, found[0].groups())
        _expect(proposed >= accepted == count,
                f"rejection header proposed={proposed} accepted={accepted}")
    if stats:
        _gof(measure, eigs, seed)
    return {"records": count}


def sample_json(cmd, text: str, stats: bool, seed: int) -> dict:
    dim = int(cmd.option("--dim"))
    count = int(cmd.option("--count"))
    records = json.loads(text)["records"]
    _expect(len(records) == count, f"{len(records)} records, expected {count}")
    eigs = np.array([r["eigenvalues"] for r in records], dtype=float).reshape(count, dim)
    _check_records(eigs, np.array([r["purity"] for r in records], dtype=float))
    if "--full-matrix" in cmd.argv:
        for r in records:
            re_im = np.array(r["matrix_re_im"], dtype=float)
            check_density_matrix((re_im[:, 0] + 1j * re_im[:, 1]).reshape(dim, dim))
    if stats:
        _gof(cmd.option("--measure"), eigs, seed)
    return {"records": count}


@lru_cache(maxsize=None)
def _reference(method: str, dim: int, seed: int) -> float:
    rng = RngStream(seed, REFERENCE_STREAM)
    if method == "series":
        return ed.c_g_series(dim, 20, rng, samples=REFERENCE_SAMPLES).value
    return ed.c_g_monte_carlo(dim, REFERENCE_SAMPLES, rng).value


def _estimate(cmd, text: str, method: str) -> tuple[dict, int]:
    doc = json.loads(text)
    dim = int(cmd.option("--dim"))
    _expect(doc["method"] == method and doc["dim"] == dim, "wrong method or dimension")
    _expect(np.isfinite(doc["value"]) and doc["value"] > 0, f"value {doc['value']}")
    return doc, dim


def estimate_mc(cmd, text: str, stats: bool, seed: int) -> dict:
    doc, dim = _estimate(cmd, text, "monte-carlo")
    value = doc["value"]
    bound = ed.c_g_jensen_bound(dim).value
    _expect(value < bound, f"MC value {value} not below the Jensen bound {bound}")
    ref = _reference("series", dim, seed)
    _expect(abs(value / ref - 1.0) <= ESTIMATE_RTOL, f"MC value {value} vs series {ref}")
    _expect(doc["std_error"] > 0, "MC standard error not positive")
    return {"records": 1, "value": value, "std_error": doc["std_error"]}


def estimate_series(cmd, text: str, stats: bool, seed: int) -> dict:
    doc, dim = _estimate(cmd, text, "series")
    _expect(doc["terms_or_samples"] == int(cmd.option("--k-max")), "wrong number of terms")
    ref = _reference("mc", dim, seed)
    _expect(abs(doc["value"] / ref - 1.0) <= ESTIMATE_RTOL,
            f"series value {doc['value']} vs MC {ref}")
    return {"records": 1, "value": doc["value"]}


def estimate_quadrature(cmd, text: str, stats: bool, seed: int) -> dict:
    doc, dim = _estimate(cmd, text, "quadrature")
    exact = ed.c_g_exact(dim).value
    _expect(abs(doc["value"] / exact - 1.0) <= QUADRATURE_RTOL,
            f"quadrature {doc['value']} vs closed form {exact}")
    return {"records": 1, "value": doc["value"]}


def grid(cmd, text: str, stats: bool, seed: int) -> dict:
    res = int(cmd.option("--resolution"))
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    expected = (res + 1) * (res + 2) // 2
    _expect(len(rows) == expected, f"{len(rows)} grid rows, expected {expected}")
    _expect(all(row.count(",") == 2 for row in rows), "grid rows need three columns")
    return {"records": len(rows)}


def verify(cmd, text: str, stats: bool, seed: int) -> dict:
    last = text.splitlines()[-1]
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", last)
    _expect(m is not None and m.group(1) == m.group(2), f"verify reported {last!r}")
    return {"records": int(m.group(2))}


CHECKS = {f.__name__: f for f in (sample_csv, sample_json, estimate_mc, estimate_series,
                                  estimate_quadrature, grid, verify)}
