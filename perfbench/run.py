"""Benchmark of the superfid command line: three closed-loop workloads.

    python3 perfbench/run.py --workload {rejection,export,constants} --seed N
                             --seconds S --trace {0,1} [--smoke]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload runs in a fresh worker process (worker.py) with
BLAS threads pinned to one, as a closed loop with one client: its commands
go through ``superfid.cli.main`` one after another, pass after pass, for
``--seconds`` (at least two passes).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``setup_s``
(median over fresh set-up processes, half run before the timed worker and
half after it) and ``ref_wall_s`` (a typical pass), both rescaled to the
reference speed of the calibration kernel in calibrate.py, and
``peak_rss_mb`` (of the worker, which runs only that workload).  ``--trace 1`` runs a separate
traced worker instead and reports the per-layer metrics.  Human-readable
lines, including each workload's own throughput figures, precede the last
line, which is one JSON object.  Every command's output is checked after the
worker has ended; a command that exits nonzero, raises or fails its check
counts as failed, and any failure makes the exit code 1.

``--smoke`` runs tiny sizes, for the tests in test_smoke.py.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 6
WORKER_TIMEOUT_S = 150
# The matrices are at most 5x5: BLAS threads only add scheduler noise.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def environment() -> dict:
    """Interpreter, library versions and the BLAS thread pin of the workers."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "nproc": os.cpu_count(), "blas_pin": BLAS_PIN}


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per trace mode, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_worker(mode: str, workload: str, seed: int, seconds: float, outdir: Path,
               smoke: bool) -> dict:
    """Run one worker process writing into ``outdir``; returns its report."""
    outdir.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "SUPERFID_SEED"}
    env.update(BLAS_PIN)
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
            str(seconds), str(outdir)] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=sys.__stderr__,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchmarkError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited with code {proc.returncode}")
    return dict(json.loads((outdir / f"{mode}.json").read_text()), outdir=str(outdir))


def evaluate(workload: str, report: dict, seed: int, smoke: bool) -> list[dict]:
    """Check every command a worker ran; one outcome per command.

    The statistical checks run on pass 0 only.
    """
    import checks

    groups = [("setup", workloads.setup_commands(workload), report["setup"])]
    groups += [(p["index"],
                workloads.commands(workload, seed, p["index"], report["outdir"], smoke),
                p["commands"]) for p in report["passes"]]
    outcomes = []
    for tag, cmds, results in groups:
        for cmd, res in zip(cmds, results, strict=True):
            outcome = dict(res, ok=False, info={}, pass_index=tag)
            if res["error"] is not None or res["rc"] != 0:
                reason = res["error"] or f"exit code {res['rc']}"
            else:
                try:
                    text = Path(res["path"]).read_text(encoding="utf-8")
                    outcome["info"] = checks.CHECKS[cmd.check](cmd, text, tag == 0, seed)
                    outcome["ok"] = True
                except Exception:  # any malformed output is a failed check
                    reason = traceback.format_exc(limit=1)
            if not outcome["ok"]:
                sys.stderr.write(f"FAILED {workload} pass {tag} {cmd.name}: {reason}\n")
            outcomes.append(outcome)
    return outcomes


def fail_ratio(outcomes: list[dict]) -> float:
    """Commands that exited nonzero, raised or failed their check, per command run."""
    return sum(not o["ok"] for o in outcomes) / len(outcomes)


def _median_of(outcomes: list[dict], name: str, fn) -> float:
    values = [fn(o) for o in outcomes if o["name"] == name and o["ok"]]
    return statistics.median(values) if values else float("nan")


def workload_figures(workload: str, outcomes: list[dict], smoke: bool) -> dict:
    """Each workload's own end-to-end figures: (value, unit), medians over passes."""
    n = workloads.SIZES[smoke]
    passes = [o for o in outcomes if not o["name"].startswith("setup.")]
    figs = {}
    if workload == "rejection":
        for d in (3, 4, 5):
            figs[f"states_per_s.dim{d}"] = (
                _median_of(passes, f"dim{d}", lambda o: n[f"dim{d}"] / o["wall_s"]), "states/s")
    elif workload == "export":
        figs["states_per_s.qubit"] = (
            _median_of(passes, "qubit", lambda o: n["qubit"] / o["wall_s"]), "states/s")
        figs["out_mb_per_s"] = (
            _median_of(passes, "hs3_json", lambda o: o["out_bytes"] / 1e6 / o["wall_s"]), "MB/s")
    else:
        # MC wall time scaled to a relative standard error of 1e-4
        figs["mc5_cost_s"] = (_median_of(passes, "mc5", lambda o: o["wall_s"] * (
            o["info"]["std_error"] / o["info"]["value"] / 1e-4) ** 2), "s")
        figs["verify_s"] = (_median_of(passes, "verify", lambda o: o["wall_s"]), "s")
    return figs


def command_s(result: dict, at_reference: bool) -> float:
    """A command's wall time, or with ``at_reference`` its wall time at the
    reference speed: scaled by the calibration kernel's reference time over
    its time measured around that command."""
    if not at_reference:
        return result["wall_s"]
    return result["wall_s"] * calibrate.REFERENCE_S / result["kernel_s"]


def typical_pass_s(passes: list[dict], at_reference: bool = True) -> float:
    """Wall time of a typical pass: each command's median over passes, summed.

    Timing on a shared machine drifts between fast and slow phases lasting
    seconds to minutes.  Rescaling each command by the kernel timed around it
    removes most of that drift; a per-command median keeps one slow command
    from moving the figure more than a whole-pass median of a few passes
    would.
    """
    per_command = zip(*(p["commands"] for p in passes))
    return sum(statistics.median(command_s(c, at_reference) for c in runs)
               for runs in per_command)


def layer_metrics(traced: dict, traced_outcomes: list[dict]) -> dict:
    """Per-layer figures of the traced worker: self times and counts over set-up
    plus pass 0, and the tracing overhead: the typical traced pass after pass 0
    against the typical untraced pass, both from the worker's alternating
    passes and both at the reference speed, so that drift of the machine's
    speed affects both alike."""
    import tracing

    times = tracing.self_times(traced["trace"]["spans"])
    metrics = {metric: times.get(span, 0.0) for span, metric in tracing.SELF_TIMES.items()}
    counts = traced["trace"]["counts"]
    metrics.update(counts)
    for d in tracing.REJECTION_DIMS:
        proposed = counts[f"samplers.proposals.dim{d}"]
        metrics[f"samplers.accept_ratio.dim{d}"] = (
            counts[f"samplers.accepted.dim{d}"] / proposed if proposed else 0.0)
    metrics["cli.import_s"] = traced["import_s"]
    first = [o for o in traced_outcomes if o["pass_index"] in ("setup", 0)]
    metrics["cli.out_bytes"] = sum(o["out_bytes"] for o in first)
    metrics["cli.records"] = sum(o["info"].get("records", 0) for o in first)
    base_wall = typical_pass_s([p for p in traced["passes"] if not p["traced"]])
    traced_wall = typical_pass_s([p for p in traced["passes"][1:] if p["traced"]])
    metrics["trace.base_ref_wall_s"] = base_wall
    metrics["trace.overhead_ratio"] = traced_wall / base_wall - 1.0
    return metrics


def run(args, outdir: Path) -> tuple[dict, list[dict], list[str]]:
    """Run the workload; returns (metric values, outcomes, human-readable lines)."""
    go = lambda mode, i=0: run_worker(mode, args.workload, args.seed, args.seconds,
                                      outdir / f"{mode}{i}", args.smoke)
    check = lambda report: evaluate(args.workload, report, args.seed, args.smoke)
    lines = []
    if args.trace == 0:
        # set-up processes before and after the timed worker, so that their
        # median spans the run rather than one moment of it
        n_setup = 2 if args.smoke else SETUP_RUNS
        setups = [go("setup", i) for i in range(n_setup // 2)]
        timed = go("time")
        setups += [go("setup", i) for i in range(n_setup // 2, n_setup)]
        outcomes = [o for r in setups + [timed] for o in check(r)]
        walls = [p["wall_s"] for p in timed["passes"]]
        kernel_s = statistics.median(c["kernel_s"] for p in timed["passes"]
                                     for c in p["commands"])
        raw_setup_s = statistics.median(r["import_s"] + r["first_use_s"] for r in setups)
        metrics = {
            # the set-up processes run around the timed worker, so the kernel's
            # median there stands for the machine's speed during them
            "setup_s": raw_setup_s * calibrate.REFERENCE_S / kernel_s,
            "ref_wall_s": typical_pass_s(timed["passes"]),
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        split = {"raw_setup_s": raw_setup_s,
                 "cli.import_s": statistics.median(r["import_s"] for r in setups),
                 "first_use_s": statistics.median(r["first_use_s"] for r in setups),
                 "raw_wall_s": typical_pass_s(timed["passes"], at_reference=False)}
        lines += [f"{name:<40} {value:>16.6f} s" for name, value in split.items()]
        lines.append(f"# setup_s and raw_setup_s: median of {len(setups)} fresh processes, "
                     f"with and without rescaling; ref_wall_s and raw_wall_s: each "
                     f"command's median over {len(walls)} passes, summed, with and without "
                     f"rescaling; whole passes took {min(walls):.4f} to {max(walls):.4f} s; "
                     f"the calibration kernel took {kernel_s:.6f} s, median over the passes "
                     f"(reference {calibrate.REFERENCE_S} s)")
        for name, (value, unit) in workload_figures(args.workload, outcomes, args.smoke).items():
            lines.append(f"{name:<40} {value:>16.6f} {unit}")
    else:
        traced = go("trace")
        outcomes = check(traced)
        metrics = layer_metrics(traced, outcomes)
        n_traced = sum(p["traced"] for p in traced["passes"][1:])
        lines.append(f"# traced run {traced['trace']['run_id']}: "
                     f"{len(traced['trace']['spans'])} spans over set-up plus pass 0; "
                     f"overhead from {len(traced['passes']) - 1 - n_traced} untraced and "
                     f"{n_traced} traced later passes")
    failed = sum(not o["ok"] for o in outcomes)
    lines.append(f"{'fail_ratio':<40} {fail_ratio(outcomes):>16.6f} fraction "
                 f"({failed} of {len(outcomes)} commands)")
    return metrics, outcomes, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally: the running worker is killed and reaped,
    # and the output directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "superfid" / "cli.py").is_file():
        sys.stderr.write(f"error: no superfid source under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    units = declared_metrics()[str(args.trace)]
    outdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True)
    try:
        metrics, outcomes, lines = run(args, outdir)
    except BenchmarkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            outdir.parent.rmdir()

    failed = sum(not o["ok"] for o in outcomes)
    print(f"# superfid benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={args.smoke}")
    print(f"# environment: {json.dumps(environment())}")
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>16.6f} {unit}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
