"""Tests of the benchmark in smoke mode (tiny sizes).

Not part of the package's test suite (pytest's testpaths is ``tests``); run
them with ``python3 -m pytest perfbench/test_smoke.py``.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SEED = 3
sys.path.insert(0, str(run.SRC))


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = run.declared_metrics()[trace]
    assert result["metrics"] == {name: {"value": result["metrics"][name]["value"], "unit": unit}
                                 for name, unit in declared.items()}
    for name in declared:  # every metric is also printed by name with its unit
        assert any(line.split()[:1] == [name] and line.split()[2] == declared[name]
                   for line in proc.stdout.splitlines()), name
    assert "fail_ratio" in proc.stdout


def test_fails_without_result_where_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "export", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _swap_first_row(text):
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    cells = lines[row].rstrip("\n").split(",")
    cells[0], cells[1] = cells[1], cells[0]
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


def _drop_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _skew_first_matrix(text):
    doc = json.loads(text)
    doc["records"][0]["matrix_re_im"][1][0] += 1e-6   # rho_01 no longer conj(rho_10)
    return json.dumps(doc)


def _overstate_acceptance(text):
    return re.sub(r"# rejection proposed=\d+", "# rejection proposed=1", text)


def _fail_a_check(text):
    lines = text.splitlines()
    done, total = lines[-1].split()[0].split("/")
    lines[-1] = lines[-1].replace(f"{done}/{total}", f"{int(done) - 1}/{total}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload, command, corrupt", [
    ("rejection", "dim3", _swap_first_row),
    ("rejection", "dim4", _drop_last_row),
    ("rejection", "dim5", _overstate_acceptance),
    ("export", "qubit", _drop_last_row),
    ("export", "hs3_json", _skew_first_matrix),
    ("constants", "verify", _fail_a_check),
])
def test_corrupted_output_counts_in_fail_ratio(tmp_path, workload, command, corrupt):
    report = run.run_worker("time", workload, SEED, 0.0, tmp_path / "out", smoke=True)
    clean = run.evaluate(workload, report, SEED, smoke=True)
    assert run.fail_ratio(clean) == 0

    target = next(c for c in report["passes"][1]["commands"] if c["name"] == command)
    with open(target["path"], encoding="utf-8") as fh:
        text = fh.read()
    with open(target["path"], "w", encoding="utf-8") as fh:
        fh.write(corrupt(text))
    outcomes = run.evaluate(workload, report, SEED, smoke=True)
    failed = [(o["name"], o["path"]) for o in outcomes if not o["ok"]]
    assert failed == [(command, target["path"])]
    assert run.fail_ratio(outcomes) == 1 / len(outcomes)
