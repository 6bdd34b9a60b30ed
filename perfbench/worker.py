"""Workload process of the benchmark: runs one workload through superfid.cli.main.

Started by run.py in a fresh interpreter with BLAS threads pinned to one::

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS OUTDIR [--smoke]

MODE is ``setup`` (import plus the workload's first-use costs, nothing
else), ``time`` (untraced passes: at least two, and more while a pass of
average length still ends within SECONDS) or ``trace`` (span wrappers
installed for set-up and pass 0, whose spans and counts are reported; then
at least two more passes, alternately untraced and traced, which time the
tracing overhead).  In the passes the calibration kernel (calibrate.py) is
timed between every two commands, outside their timed region; each command
records the mean of the kernel's times right before and right after it.
Command outputs go to files in OUTDIR and the report to OUTDIR/MODE.json;
run.py checks the outputs after this process has ended.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def run_command(cli, cmd, tag: str, outdir: str, tracer=None) -> dict:
    """Run one command, timing only the ``cli.main`` call, and save its output."""
    buf = io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    span = tracer.begin("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception:  # recorded as a failed command, the loop goes on
        error = traceback.format_exc()
    finally:
        if span is not None:
            tracer.end(span)
    wall = time.perf_counter() - t0
    path = cmd.out
    if path is None:
        path = f"{outdir}/{tag}_{cmd.name}.out"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    return {"name": cmd.name, "wall_s": wall, "rc": rc, "error": error, "path": path,
            "out_bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "time", "trace"))
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("outdir")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import superfid.cli as cli
    import_s = time.perf_counter() - t0
    report = {"import_s": import_s}

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        restore = tracing.install(tracer)

    t0 = time.perf_counter()
    span = tracer.begin("setup") if tracer else None
    report["setup"] = [run_command(cli, cmd, "setup", args.outdir, tracer)
                       for cmd in workloads.setup_commands(args.workload)]
    if args.workload == "constants":
        cli.ed.c_bures_quadrature(3)
    if span is not None:
        tracer.end(span)
    report["first_use_s"] = time.perf_counter() - t0

    passes = []
    if args.mode != "setup":
        kernel = calibrate.Kernel()
        kernel.time()  # warm-up
        before = kernel.time()
        start = time.perf_counter()
        min_passes = 2 if tracer is None else 3
        # a pass starts only if a pass of average length still ends in time
        while len(passes) < min_passes or (time.perf_counter() - start) * (len(passes) + 1) \
                / len(passes) <= args.seconds:
            p = len(passes)
            traced = tracer is not None and p % 2 == 0
            if tracer is not None and p > 0:  # odd passes untraced, even passes traced
                if traced:
                    restore = tracing.install(tracer)
                else:
                    restore()
            cmds = workloads.commands(args.workload, args.seed, p, args.outdir, args.smoke)
            results = []
            for cmd in cmds:
                results.append(run_command(cli, cmd, f"p{p}", args.outdir,
                                           tracer if traced else None))
                after = kernel.time()
                results[-1]["kernel_s"] = (before + after) / 2
                before = after
            passes.append({"index": p, "traced": traced,
                           "wall_s": sum(r["wall_s"] for r in results), "commands": results})
            if tracer is not None and p == 0:
                report["trace"] = tracer.export()   # set-up plus pass 0
    report["passes"] = passes
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(f"{args.outdir}/{args.mode}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
