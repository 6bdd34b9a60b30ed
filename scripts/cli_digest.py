#!/usr/bin/env python3
"""Print a SHA-256 digest of the output bytes of a fixed list of CLI commands.

    PYTHONPATH=<checkout>/src python scripts/cli_digest.py > digests.txt

Each command runs in this process through ``superfid.cli.main`` and prints
one line ``name exit sha256``.  The digest covers stdout, stderr and the file
that a command writes with ``--out``.  To see which outputs a change moved,
run this script once with each checkout's ``src`` on ``PYTHONPATH`` and
``diff`` the two listings.

The list covers ``sample`` for every measure at N = 2..5 and for G at N = 6
(CSV and JSON, with and without ``--full-matrix``, at odd counts, and every
command shape of the benchmark's ``rejection`` and ``export`` workloads at
small counts, outputs that span several writer chunks of at most
``cli._REPR_CHUNK`` floats, one of them with 56 floats per row, qubit runs
that span three ``samplers._BLOCK`` blocks of the inverse CDF, with and
without matrices, and one rejection run of ~10^4 proposals, which spans
several proposal blocks and trims the overshoot of its last one), three runs
with matrices over two whole keyed blocks and a partial third (HS in 4096-
and Bures in 1024-state blocks at N = 3, G over ~2.5 proposal blocks), which
pin the blocks that the streamed ``sample`` reproduces, and three JSON runs
with matrices whose ``,\n`` record separators cross block boundaries (three
qubit blocks, three Bures blocks at N = 3, several proposal blocks at N = 4),
``estimate`` with every method wherever it is supported at N = 2..5,
``estimate --method mc`` and ``--method series`` at an odd sample count that
spans three ``samplers._BLOCK`` blocks of HS purities,
``grid`` for both measures at resolution 40, each within one
``eigendensities._GRID_BLOCK`` block of lattice points, and the benchmark's
``constants`` grid (Bures at resolution 400), which spans 20 such blocks and
~30 writer chunks,
``verify all`` at scale 0.01 (once with ``--dim 3``) and at the benchmark's
scale 1 (text and JSON), nine usage errors, four of them rejected by the
argument parser, and one rejection run that exhausts its proposal budget.
"""
from __future__ import annotations

import hashlib
import io
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from superfid import cli

OUT = "{out}"   # replaced by a fresh file path; its bytes join the digest


def _sample(measure, dim, count, *extra):
    return ["sample", "--measure", measure, "--dim", str(dim), "--count", str(count),
            "--seed", "11", *extra]


def _estimate(dim, method, *extra):
    return ["estimate", "--dim", str(dim), "--method", method, "--seed", "12", *extra]


COMMANDS: list[tuple[str, list[str]]] = [
    ("sample-hs-2-csv", _sample("hs", 2, 200)),
    ("sample-hs-3-json-full", _sample("hs", 3, 50, "--format", "json", "--full-matrix")),
    ("sample-hs-4-csv-full", _sample("hs", 4, 50, "--full-matrix")),
    ("sample-hs-5-csv-101", _sample("hs", 5, 101)),
    ("sample-bures-2-json", _sample("bures", 2, 100, "--format", "json")),
    ("sample-bures-3-csv-full", _sample("bures", 3, 50, "--full-matrix")),
    ("sample-bures-4-csv-101", _sample("bures", 4, 101)),
    ("sample-bures-5-csv", _sample("bures", 5, 100)),
    ("sample-g-2-json-full", _sample("g", 2, 100, "--format", "json", "--full-matrix")),
    ("sample-g-3-csv-201", _sample("g", 3, 201)),
    ("sample-g-3-csv-full", _sample("g", 3, 50, "--full-matrix")),
    ("sample-g-4-json", _sample("g", 4, 50, "--format", "json")),
    ("sample-g-6-csv", _sample("g", 6, 20)),
    # the rejection workload's commands, at small counts
    ("sample-g-3-csv", _sample("g", 3, 600)),
    ("sample-g-4-csv", _sample("g", 4, 100)),
    ("sample-g-5-csv", _sample("g", 5, 5, "--max-proposals", "100000")),
    # the export workload's commands, at small counts
    ("sample-g-2-out", _sample("g", 2, 2000, "--out", OUT)),
    ("sample-hs-3-json-full-out",
     _sample("hs", 3, 200, "--full-matrix", "--format", "json", "--out", OUT)),
    # several writer chunks, so the seams between chunks are covered
    ("sample-hs-3-json-full-5000", _sample("hs", 3, 5000, "--format", "json", "--full-matrix")),
    ("sample-g-2-csv-9000", _sample("g", 2, 9000)),
    ("sample-g-2-csv-full-9000", _sample("g", 2, 9000, "--full-matrix")),
    # 400 rows of 56 floats: three writer chunks of 146, 146 and 108 rows
    ("sample-bures-5-json-full-400",
     _sample("bures", 5, 400, "--full-matrix", "--format", "json")),
    # ~10^4 proposals: several 4096-proposal blocks and the overshoot trim
    ("sample-g-3-csv-5000", _sample("g", 3, 5000)),
    # the keyed-block contract: two whole blocks and a partial third, with matrices
    ("sample-hs-3-csv-full-8197", _sample("hs", 3, 2 * 4096 + 5, "--full-matrix")),
    ("sample-bures-3-csv-full-2053", _sample("bures", 3, 2 * 1024 + 5, "--full-matrix")),
    ("sample-g-3-csv-full-5000", _sample("g", 3, 5000, "--full-matrix")),
    # the same seams in JSON, where the ",\n" between records crosses block boundaries
    ("sample-g-2-json-full-8197", _sample("g", 2, 2 * 4096 + 5, "--format", "json",
                                          "--full-matrix")),
    ("sample-bures-3-json-full-2053", _sample("bures", 3, 2 * 1024 + 5, "--format", "json",
                                              "--full-matrix")),
    ("sample-g-4-json-full-5000", _sample("g", 4, 5000, "--format", "json", "--full-matrix")),
    ("estimate-exact-2", _estimate(2, "exact")),
    ("estimate-exact-3", _estimate(3, "exact")),
    *[(f"estimate-jensen-{d}", _estimate(d, "jensen")) for d in (2, 3, 4, 5)],
    *[(f"estimate-mc-{d}", _estimate(d, "mc", "--samples", "20000")) for d in (2, 3, 4, 5)],
    *[(f"estimate-series-{d}", _estimate(d, "series", "--samples", "5000"))
      for d in (2, 3, 4, 5)],
    *[(f"estimate-quadrature-{d}", _estimate(d, "quadrature")) for d in (2, 3, 4, 5)],
    ("estimate-mc-3-out", _estimate(3, "mc", "--samples", "5000", "--out", OUT)),
    # the benchmark's mc and series dimensions at an odd count: three HS-purity
    # blocks, the last one partial, so both threads of the purity draw work
    ("estimate-mc-5-10001", _estimate(5, "mc", "--samples", "10001")),
    ("estimate-series-4-10001", _estimate(4, "series", "--samples", "10001")),
    ("grid-g-40", ["grid", "--measure", "g", "--resolution", "40"]),
    ("grid-bures-40", ["grid", "--measure", "bures", "--resolution", "40"]),
    # the constants workload's grid: 80601 lattice points in 20 blocks
    ("grid-bures-400", ["grid", "--measure", "bures", "--resolution", "400"]),
    ("verify-all", ["verify", "all", "--seed", "0", "--scale", "0.01"]),
    # the constants workload's verify command, its JSON form and the purity filter
    ("verify-all-scale-1", ["verify", "all", "--seed", "0", "--scale", "1"]),
    ("verify-all-scale-1-json", ["verify", "all", "--seed", "0", "--scale", "1",
                                 "--format", "json"]),
    ("verify-all-dim-3", ["verify", "all", "--seed", "0", "--scale", "0.01", "--dim", "3"]),
    ("exit2-exact-4", _estimate(4, "exact")),
    ("exit2-grid-hs", ["grid", "--measure", "hs", "--resolution", "40"]),
    ("exit2-sample-workers", _sample("hs", 2, 10, "--workers", "2")),
    ("exit2-sample-dim-1", _sample("hs", 1, 10)),
    ("exit2-sample-count-0", _sample("hs", 2, 0)),
    ("exit2-exact-1", _estimate(1, "exact")),
    ("exit2-verify-scale-nan", ["verify", "purity", "--scale", "nan"]),
    ("exit2-sample-measure-xx", _sample("xx", 2, 10)),
    ("exit2-grid-seed", ["grid", "--measure", "g", "--resolution", "40", "--seed", "1"]),
    ("exit3-sample-budget", _sample("g", 3, 5, "--max-proposals", "1")),
]


def digest_line(name: str, argv: list[str]) -> str:
    """Run one command and return ``name exit sha256`` for its output bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [str(out) if arg == OUT else arg for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings():
            # every warning is printed, not only its first occurrence in the process
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse rejects the command line
                code = exc.code
        parts = [stdout.getvalue().encode(), stderr.getvalue().encode(),
                 out.read_bytes() if out.exists() else b""]
    sha = hashlib.sha256()
    for part in parts:
        sha.update(len(part).to_bytes(8, "little"))
        sha.update(part)
    return f"{name} {code} {sha.hexdigest()}"


def main():
    for name, argv in COMMANDS:
        print(digest_line(name, argv), flush=True)


if __name__ == "__main__":
    main()
