"""The CLI commands each benchmark workload runs, at full and smoke sizes.

Every workload is a closed loop with one client: its commands run one after
another through ``superfid.cli.main`` in one process, each starting when the
previous one has finished.  A pass is one run over the workload's commands;
pass ``p`` of a run with seed ``s`` draws with the CLI seed ``1000 s + p``,
so the same run seed always gives the same inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("rejection", "export", "constants")

# Full sizes are the stated input sizes of each workload; smoke sizes only
# exercise every command and metric.
SIZES = {
    False: {"dim3": 20_000, "dim4": 4_000, "dim5": 200, "qubit": 200_000, "hs3": 20_000,
            "mc5": 1_000_000, "series4": 100_000, "grid": 400, "verify_scale": "1.0"},
    True: {"dim3": 600, "dim4": 100, "dim5": 5, "qubit": 2_000, "hs3": 200,
           "mc5": 20_000, "series4": 5_000, "grid": 40, "verify_scale": "0.01"},
}

# `verify all` keeps its own fixed seed: its statistical checks reject at
# p < 0.01, so a fresh seed per run would fail by chance in about one run
# out of ten although the program is correct.
VERIFY_SEED = "0"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the output check that applies to it.

    ``check`` names the checker in :mod:`checks`; ``out`` is the file the
    command writes, or None when its output goes to stdout.
    """

    name: str
    check: str
    argv: tuple[str, ...]
    out: str | None = None

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


def pass_seed(seed: int, pass_index: int) -> int:
    return 1000 * seed + pass_index


def setup_commands(workload: str) -> list[Command]:
    """First-use costs a workload pays once per process.

    Each rejection dimension runs its envelope audit gate on first use, so a
    one-state sample per dimension pays it; ``constants`` pays the gate at
    N = 3 inside ``verify`` and the cached Bures quadrature constant inside
    ``grid`` (the worker adds the latter).
    """
    dims = {"rejection": (3, 4, 5), "constants": (3,)}.get(workload, ())
    return [Command(f"setup.dim{d}", "sample_csv",
                    ("sample", "--measure", "g", "--dim", str(d), "--count", "1",
                     "--seed", "0", "--max-proposals", "100000"))
            for d in dims]


def commands(workload: str, seed: int, pass_index: int, outdir: str,
             smoke: bool = False) -> list[Command]:
    """The commands of one pass of ``workload``."""
    n = SIZES[smoke]
    s = str(pass_seed(seed, pass_index))
    prefix = f"{outdir}/p{pass_index}"
    if workload == "rejection":
        return [Command(f"dim{d}", "sample_csv",
                        ("sample", "--measure", "g", "--dim", str(d),
                         "--count", str(n[f"dim{d}"]), "--seed", s) + extra)
                for d, extra in ((3, ()), (4, ()), (5, ("--max-proposals", "100000")))]
    if workload == "export":
        qubit = f"{prefix}_qubit.csv"
        hs3 = f"{prefix}_hs3.json"
        return [
            Command("qubit", "sample_csv",
                    ("sample", "--measure", "g", "--dim", "2", "--count", str(n["qubit"]),
                     "--seed", s, "--out", qubit), out=qubit),
            Command("hs3_json", "sample_json",
                    ("sample", "--measure", "hs", "--dim", "3", "--count", str(n["hs3"]),
                     "--full-matrix", "--format", "json", "--seed", s, "--out", hs3), out=hs3),
        ]
    if workload == "constants":
        return [
            Command("mc5", "estimate_mc",
                    ("estimate", "--dim", "5", "--method", "mc",
                     "--samples", str(n["mc5"]), "--seed", s)),
            Command("series4", "estimate_series",
                    ("estimate", "--dim", "4", "--method", "series", "--k-max", "20",
                     "--samples", str(n["series4"]), "--seed", s)),
            Command("quad3", "estimate_quadrature",
                    ("estimate", "--dim", "3", "--method", "quadrature")),
            Command("grid", "grid",
                    ("grid", "--measure", "bures", "--resolution", str(n["grid"]))),
            Command("verify", "verify",
                    ("verify", "all", "--seed", VERIFY_SEED, "--scale", n["verify_scale"])),
        ]
    raise ValueError(f"unknown workload {workload!r}")
