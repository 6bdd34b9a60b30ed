"""``verify.run_suite``: the helper thread of ``all``, its error semantics and its memory."""
import threading
import time
import types

import pytest

from conftest import traced_peak
from superfid import verify

SUITES = [s for s in verify.SUITE_NAMES if s != "all"]


def _fake_suite(name, delay=0.0, error=None, log=None):
    """A stand-in suite that sleeps, then raises ``error`` or returns one result."""
    def run(seed, scale, dims=None):
        time.sleep(delay)
        if log is not None:
            log.append(name)
        if error is not None:
            raise error
        return [verify.CheckResult(name, f"{name}-{seed}", True, f"dims={dims}")]
    return run


@pytest.fixture
def fake_suites(monkeypatch):
    """Replace every suite in ``_SUITE_FUNCS``; returns a function that installs one."""
    def install(name, **kwargs):
        monkeypatch.setitem(verify._SUITE_FUNCS, name, _fake_suite(name, **kwargs))
    for name in SUITES:
        install(name)
    return install


class TestHelperThread:
    @pytest.mark.parametrize("sampler_delay", [0.0, 0.2])
    def test_results_come_back_in_suite_order(self, fake_suites, sampler_delay):
        # the helper's suite finishes first or last; the order stays fixed
        fake_suites("sampler", delay=sampler_delay)
        fake_suites("metric", delay=0.2 - sampler_delay)
        before = threading.active_count()
        results = verify.run_suite("all", 5, dim=3)
        assert [r.suite for r in results] == SUITES
        assert [r.detail for r in results] == ["dims=None"] * 3 + ["dims=(3,)"]
        assert threading.active_count() == before

    def test_suites_are_looked_up_at_call_time(self, fake_suites):
        log = []
        for name in SUITES:
            fake_suites(name, log=log)
        verify.run_suite("all", 0)
        assert sorted(log) == sorted(SUITES)

    @pytest.mark.parametrize("failing, raised", [
        (("sampler",), "sampler"),
        (("density", "sampler"), "density"),
        (("sampler", "purity"), "sampler"),
        (("purity",), "purity"),
        (("metric", "sampler", "purity"), "metric"),
    ])
    def test_the_first_failing_suite_in_order_raises(self, fake_suites, failing, raised):
        for name in failing:
            fake_suites(name, error=RuntimeError(name))
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            verify.run_suite("all", 0)
        assert str(info.value) == raised
        assert threading.active_count() == before

    def test_a_failure_waits_for_the_helper(self, fake_suites):
        log = []
        fake_suites("metric", error=RuntimeError("metric"))
        fake_suites("sampler", delay=0.3, log=log)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="metric"):
            verify.run_suite("all", 0)
        assert log == ["sampler"]
        assert threading.active_count() == before

    def test_a_failure_stops_the_remaining_suites_of_the_caller(self, fake_suites):
        log = []
        fake_suites("density", error=RuntimeError("density"))
        fake_suites("purity", log=log)
        with pytest.raises(RuntimeError, match="density"):
            verify.run_suite("all", 0)
        assert log == []

    @pytest.mark.parametrize("suite", SUITES)
    def test_one_suite_starts_no_thread(self, fake_suites, monkeypatch, suite):
        def no_thread(*args, **kwargs):
            raise AssertionError("a single suite started a thread")
        monkeypatch.setattr(verify, "threading", types.SimpleNamespace(Thread=no_thread))
        assert [r.suite for r in verify.run_suite(suite, 0)] == [suite]


class TestDeterminism:
    @pytest.mark.parametrize("seed, dim", [(1, None), (7, None), (1, 3)])
    def test_all_equals_the_suites_run_one_by_one(self, seed, dim):
        together = verify.run_suite("all", seed, 0.05, dim=dim)
        alone = [r for s in SUITES for r in verify.run_suite(s, seed, 0.05, dim=dim)]
        assert [(r.suite, r.name, r.passed, r.detail) for r in together] == \
            [(r.suite, r.name, r.passed, r.detail) for r in alone]


def test_the_sampler_suite_stays_within_6_mb():
    # the helper thread's own high-water mark is what ``all`` adds to the peak RSS
    verify._sampler_checks(0, 0.01)   # first-use imports and the envelope audit gate
    assert traced_peak(verify._sampler_checks, 0, 1.0) <= 6 * 2 ** 20
