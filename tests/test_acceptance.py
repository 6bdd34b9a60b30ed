"""Acceptance run: every ``superfid verify`` check at ``ACCEPTANCE_SCALE``.

The claims are implemented once, in :mod:`superfid.verify`.  This module lists
the checks each suite must report, runs each suite once at the smallest scale
at which every sample size is at least its acceptance size, and bounds the
time each suite takes.  ``pytest tests/test_acceptance.py -s`` prints one
PASS/FAIL line per check.  The numbered tests assert the checks that carry
acceptance criteria 1-13; criterion 14 is ``test_cli.py::TestDeterminism``.
"""
import time

import pytest

from superfid import verify

ACCEPTANCE_SCALE = 20
ACCEPTANCE_SEED = 2011  # fixed before the first run; a failing check is investigated, not re-seeded

# suite/check names of the checks that carry each numbered acceptance criterion
CRITERIA = {
    "c01_superfidelity_equals_fidelity_on_qubits": ["metric/fidelity-equals-superfidelity-qubits"],
    "c02_superfidelity_upper_bounds_fidelity": ["metric/fidelity-below-superfidelity"],
    "c03_metric_axioms": ["metric/triangle-inequality", "metric/zero-self-distance"],
    "c04_line_element_checks": ["metric/line-element-fd-match", "metric/line-element-fd-second-order",
                                "metric/qubit-line-elements-coincide"],
    "c05_normalization_constants_by_quadrature": ["density/qubit-g-normalization",
                                                  "density/qutrit-g-normalization"],
    "c06_monte_carlo_identity": ["purity/reciprocal-radical-expectation"],
    "c07_jensen_bound": ["density/jensen-upper-bound"],
    "c08_purity_statistics": ["purity/hs-purity-moments-n2", "purity/hs-purity-moments-n3"],
    "c09_series_estimator_at_k20": ["density/series-monotone-partial-sums",
                                    "density/series-estimate-within-1pct"],
    "c10_qubit_sampler": ["sampler/g-qubit-inverse-cdf-law", "sampler/g-qubit-matches-bures",
                          "sampler/g-qubit-lambda-max-law"],
    "c11_rejection_sampler_qutrit": ["sampler/envelope-audit-qutrit", "sampler/rejection-gof-qutrit",
                                     "purity/g-qutrit-purity-exceeds-hs"],
    "c12_rejection_constant": ["sampler/rejection-constant-factorization",
                               "sampler/rejection-constant-grows"],
    "c13_density_grids": ["density/qutrit-grid-integrates-to-one",
                          "density/qutrit-grid-permutation-symmetric"],
}
# the checks no numbered criterion names
OTHER_CHECKS = [
    "metric/symmetry", "metric/unitary-invariance", "density/qubit-bures-normalization",
    "density/qubit-hs-normalization", "density/qutrit-hs-normalization",
    "density/qubit-g-measure-equals-bures", "density/qubit-pdf-is-cdf-derivative",
    "density/qubit-cdf-monotone", "sampler/hs-qubit-eigenvalue-law",
    "sampler/bures-qubit-eigenvalue-law", "sampler/sampled-states-valid",
    "sampler/unitary-invariance-of-measure", "purity/g-qubit-mean-purity",
    "purity/hs-second-purity-moment",
]
CHECKS = [check for checks in CRITERIA.values() for check in checks] + OTHER_CHECKS

# seconds per suite: the smallest time limit among the criteria it carries
LIMIT_S = {"metric": 5, "density": 60, "sampler": 10, "purity": 120}


@pytest.fixture(scope="module")
def report():
    """Runs each suite once, on first use: suite -> ({check name: result}, seconds)."""
    runs = {}

    def run(suite):
        if suite not in runs:
            t0 = time.perf_counter()
            results = verify.run_suite(suite, ACCEPTANCE_SEED, ACCEPTANCE_SCALE)
            runs[suite] = ({r.name: r for r in results}, time.perf_counter() - t0)
        return runs[suite]
    return run


def _result(report, check):
    suite, name = check.split("/")
    return report(suite)[0][name]


@pytest.mark.parametrize("check", CHECKS)
def test_check(report, check):
    result = _result(report, check)
    print(f"{'PASS' if result.passed else 'FAIL'} {check}: {result.detail}")
    assert result.passed, result.detail


@pytest.mark.parametrize("suite", LIMIT_S)
def test_suite_reports_the_listed_checks_in_time(report, suite):
    results, seconds = report(suite)
    print(f"{suite}: {len(results)} checks in {seconds:.1f} s (bound {LIMIT_S[suite]} s)")
    assert sorted(results) == sorted(c.split("/")[1] for c in CHECKS if c.startswith(suite + "/"))
    assert seconds < LIMIT_S[suite]


def _criterion_test(checks):
    def test(report):
        assert all(_result(report, check).passed for check in checks), checks
    return test


for _name, _checks in CRITERIA.items():  # test_c01_... through test_c13_...
    globals()[f"test_{_name}"] = _criterion_test(_checks)
