"""Command-line front end.

Subcommands::

    superfid sample    --measure {hs,bures,g} --dim N --count K [--seed S]
                       [--format {csv,json}] [--out PATH]
                       [--full-matrix] [--max-proposals M]
    superfid estimate  --dim N --method {exact,jensen,series,mc,quadrature}
                       [--samples S] [--k-max K] [--seed S] [--out PATH]
    superfid grid      --measure {g,bures} --resolution R [--out PATH]
    superfid verify    {metric,density,sampler,purity,all} [--dim N] [--scale X]
                       [--seed S] [--format {text,json}] [--out PATH]

Importing this module loads the superfid modules that ``sample`` runs
(errors, qstate, rng, statlab, eigendensities, samplers) and no other:
``grid`` and ``estimate`` need no more of them, and ``verify`` imports
``superfid.verify``, and with it ``superfid.similarity``, when it starts.
The master seed falls back to the SUPERFID_SEED environment variable, then 0.
The parsed arguments go straight to the command's handler; each value is
checked by the library function that uses it.
Outputs carry no timestamps and format floats via ``repr``, so a fixed
(command line, seed) pair reproduces byte-identical bytes: ``sample`` and
``estimate --method mc|series`` draw from the keyed PCG64 blocks of the
stream ``RngStream(seed)``, each block's values depending only on (seed,
sampler, block), so the records of each whole block are the same for every
``sample --count`` that covers it.  The estimates' HS purity blocks are split
between this thread and one helper thread, which does not change a byte, and
each block is reduced (to its moments, or to its power sums for ``series``)
on the thread that drew it, so ``estimate``'s memory does not grow with
``--samples`` beyond a few numbers per block of 4096 purities.
``sample`` and ``grid`` write their rows chunk by chunk (at most 4096 floats
per chunk), each chunk through one row template, so neither the whole output
text nor a per-record object is ever held; the JSON layout is exactly that
of ``json.dumps(indent=1)``.  ``sample`` streams: each block of states goes
from its sampler to the writer before the next one is drawn, so its memory
does not grow with ``--count``, except for G at N >= 3, whose rejection
totals head the output and whose spectra (and matrices) are therefore held
until every state is drawn.  Floats still print as their ``repr``, but
numpy finds those digits and lays out the text as bytes: a float in
1e-4 <= |v| < 1, or an exact ±0.0, goes into a fixed 28-byte slot as a
NUL-padded prefix such as ``"0.00"`` and five 4-digit groups from a table,
its leading positions blanked, and only the other floats go through
``repr``, whose bytes fill their slot.  Each row is the template's literal
pieces, NUL-padded to 4 bytes, with one slot per float between them, and one
``bytes.translate`` per chunk deletes the NULs.
``verify all`` runs the sampler suite on one helper thread beside the other
three suites; its output is the same bytes as a serial run, whatever the
scheduling, and the helper's allocations stay below 6 MB at scale 1, in a
fresh process too (``tracemalloc`` reads ~5.2 MB cold, ~3.7 MB warm).
Exit codes: 0 success, 1 verification failure, 2 usage error (a rejected
value, or an ``--out`` that cannot be opened for writing), 3 sampling budget
exhausted, 4 a numerical self-check failed closed (the envelope audit, a
quadrature rule's two orders, a finite-difference step or the inverse CDF's
residual).  ``--out`` is opened for appending before any work, so a bad path
costs nothing.  The output is written to a temporary file in the same
directory, which replaces ``--out`` only when the run finishes and is
removed when it fails, so a failed run leaves an existing file unchanged
(one it created stays empty).  ``--out`` naming something other than a
regular file, such as a device, is written in place.  Without ``--out``, a
run that fails while streaming may leave part of its output on stdout.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from itertools import chain

import numpy as np

from . import eigendensities as ed
from . import samplers as sm
from .errors import (EnvelopeAuditError, InverseCDFError, QuadratureError,
                     SamplingBudgetError, StepSizeError)
from .qstate import Measure
from .rng import RngStream, seed_from_env

SCHEMA_VERSION = 2
# the suites of superfid.verify, in the order of its report; named here so
# that offering them does not import verify
SUITE_NAMES = ("metric", "density", "sampler", "purity", "all")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_FAIL_CLOSED = 4
# the numerical self-checks whose failure stops a run (exit 4)
FAIL_CLOSED_ERRORS = (EnvelopeAuditError, InverseCDFError, QuadratureError, StepSizeError)

# --method value -> estimator; each looks its function up in ``ed`` at call time
ESTIMATORS = {
    "exact": lambda args: ed.c_g_exact(args.dim),
    "jensen": lambda args: ed.c_g_jensen_bound(args.dim),
    "series": lambda args: ed.c_g_series(args.dim, args.k_max, RngStream(args.seed),
                                         samples=args.samples),
    "mc": lambda args: ed.c_g_monte_carlo(args.dim, args.samples, RngStream(args.seed)),
    "quadrature": lambda args: ed.c_g_quadrature(args.dim),
}


def _fmt(x: float) -> str:
    return repr(float(x))


def _emit(chunks: Iterable[str], out: str | None):
    """Write ``chunks`` in order to the file ``out``, or to stdout when it is None.

    A regular file is replaced only once every chunk is written: the chunks
    go to a temporary file beside it, with its permissions, which is renamed
    over it at the end and removed if anything fails first.  Anything else,
    such as a device, is written in place.
    """
    if out is None:
        sys.stdout.writelines(chunks)
        return
    target = os.path.realpath(out)   # a symlink keeps pointing at the new file
    if not os.path.isfile(target):
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".superfid-",
                               suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            os.chmod(tmp, os.stat(target).st_mode & 0o777)
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


# _repr_digits: the text before the digits of a v with 10^e <= |v| < 10^(e + 1),
# at index e + 4, plus 4 when v is negative
_PREFIXES = ("0.000", "0.00", "0.0", "0.", "-0.000", "-0.00", "-0.0", "-0.")
_SCALES = np.array([1e20, 1e19, 1e18, 1e17])   # 10^(16 - e), at the same index
_POW10 = 10 ** np.arange(17, dtype=np.int64)
_SLOT = 28   # bytes of text per float: an 8-byte prefix and 20 digit positions
_REPR_CHUNK = 4096   # floats per chunk of _rows, which bounds its temporaries


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of each float into two halves of at most 26 bits."""
    c = 134217729.0 * v   # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _scaled(a: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact product a * scale as (d, f): an int64 d plus a float f in [0, 1).

    Dekker's two-product gives it as hi + lo, with hi = fl(a * scale).
    """
    hi = a * scale
    ah, al = _split(a)
    sh, sl = _split(scale)
    lo = ((ah * sh - hi) + ah * sl + al * sh) + al * sl
    lo_int = np.floor(lo)
    return hi.astype(np.int64) + lo_int.astype(np.int64), lo - lo_int


def _shortest_exponent(below: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The largest j <= 16 at which a multiple of 10^j lies in (below, top].

    Entries with below == top get 0 and, once they are all that is left, end
    the loop.
    """
    j = np.zeros(len(top), dtype=np.intp)
    for _ in range(16):
        below = below // 10
        top = top // 10
        more = top > below
        if not more.any():
            break
        j += more
    return j


def _repr_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(prefix, digits, lead, found)``: ``repr``'s text of each float of ``x``.

    Where ``found``, ``repr(v)`` is ``_PREFIXES[prefix]`` followed by the
    decimal digits of the int64 ``digits``, of which there are 20 - ``lead``.
    For 1e-4 <= |v| < 1, ``repr`` prints "0.", -e - 1 zeros
    (10^e <= |v| < 10^(e + 1)) and the fewest significant digits that read
    back as v, the ones nearest v when several are that short (Steele &
    White 1990).  The prefix is looked up, and the digits are found exactly
    in float64 and int64:

    - e comes from comparisons with 0.1, 0.01 and 0.001; each of these
      doubles lies above its decimal value, so the comparisons are exact.
    - y = |v| 10^(16 - e) lies in (10^16, 10^17).  Dekker's two-product
      gives it exactly as hi + lo, and it is held as d + f, with the int64
      d = hi + floor(lo) and f = lo - floor(lo) in [0, 1).
    - Every real within h = spacing(v) 10^(16 - e) / 2 of y reads back as v.
      The ends y ± h are never integers: v ± spacing(v) / 2 has at least 54
      decimals, and 10^(16 - e) <= 10^20 leaves at least 34 of them, so
      whether the ends count does not matter.  f and h are multiples of
      2^-47, so their sums below 64 are exact, and so is each ``floor``.
    - The digits are y rounded to the nearest multiple of 10^j, for the
      largest j at which such a multiple lies within h of y; they are
      17 - j digits, so lead = 3 + j.

    An exact zero is found too, as "0." or "-0." and the one digit 0 (lead
    19).  Every other float is not found, and its digits are 0: |v| >= 1,
    0 < |v| < 1e-4, nan and inf, powers of two (the gap below them is half
    the gap above), ties at the rounding step, and digits that end in 0.
    """
    bits = x.view(np.uint64)
    a = np.abs(x)
    zero = a == 0.0
    with np.errstate(all="ignore"):   # nan and inf are left to repr
        k = (a >= 0.001).astype(np.intp) + (a >= 0.01) + (a >= 0.1)   # e + 4
        k[zero] = 3   # a zero's prefix is "0." or "-0."
        scale = _SCALES[k]
        d, f = _scaled(a, scale)
        h = np.spacing(a) * scale * 0.5
        candidate = (a >= 1e-4) & (a < 1.0) & ((bits & 0xFFFFFFFFFFFFF) != 0)
        # the integers within h of y = d + f are d + floor(f - h) + 1 .. d + floor(f + h);
        # other floats get an empty range, so that zeros cannot keep the loop going
        below = d + np.floor(f - h).astype(np.int64)
        top = np.where(candidate, d + np.floor(f + h).astype(np.int64), below)
        j = _shortest_exponent(below, top)
        p = _POW10[j]
        r = d % p
        half = (p - 2 * r) * 0.5   # y rounds up to the next multiple of p when f > half
        digits = d // p + (f > half)   # 0 for a zero: d = 0 and f = 0 < half
        found = (candidate & (f != half) & (digits % 10 != 0)) | zero
    digits[~found] = 0
    lead = j + 3
    lead[zero] = 19
    return k + 4 * (bits >> 63).astype(np.intp), digits, lead, found


@functools.cache
def _slot_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(prefixes, groups, masks)``, the words that ``_fill_slots`` writes.

    Column i of ``prefixes`` is ``_PREFIXES[i]``, NUL-padded to 8 bytes;
    ``groups[g]`` is the 4 digits of g < 10^4 with leading zeros; column
    ``lead`` of ``masks`` keeps the last 20 - lead of 20 bytes and zeroes
    the rest.  All are uint32 words of ASCII bytes in memory order, built on
    first use, in numpy.
    """
    prefixes = np.array(_PREFIXES, dtype="S8").view(np.uint32).reshape(8, 2).T
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)   # groups[a, b, c, d] = "abcd"
    for place in range(4):
        groups[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    masks = (np.arange(20) >= np.arange(21)[:, None]).astype(np.uint8) * np.uint8(0xFF)
    return (np.ascontiguousarray(prefixes), groups.view(np.uint32).ravel(),
            np.ascontiguousarray(masks.view(np.uint32).T))


def _fill_slots(words: np.ndarray, at: np.ndarray, x: np.ndarray) -> None:
    """Write ``repr`` of each float of ``x`` into its ``_SLOT``-byte slot of ``words``.

    The slot of ``x[i]`` is the uint32 words ``words[at[i]:at[i] + 7]``,
    which its text fills from the first byte on, NUL-padded.  A found float
    (``_repr_digits``) gets its prefix in the first 8 bytes and its digits
    right-aligned in the last 20, as five 4-digit groups with the leading
    positions blanked; every other float gets its ``repr``, at most 24
    bytes, at the start.
    """
    prefix, digits, lead, found = _repr_digits(x)
    prefixes, groups, masks = _slot_tables()
    for k in range(2):   # words[k:][at] is word k of each slot
        words[k:][at] = prefixes[k][prefix]
    for i in range(4, -1, -1):   # the last group first: digits % 10^4
        above = digits // 10 ** 4
        words[2 + i:][at] = groups[digits - 10 ** 4 * above] & masks[i][lead]
        digits = above
    rest = np.flatnonzero(~found)
    if len(rest):
        text = np.array(list(map(repr, x[rest].tolist())), dtype=f"S{_SLOT}")
        words[at[rest, None] + np.arange(_SLOT // 4)] = text.view(np.uint32).reshape(
            len(rest), -1)


def _padded_words(text: str) -> np.ndarray:
    """The ASCII bytes of ``text``, NUL-padded to a multiple of 4, as uint32 words."""
    data = text.encode("ascii")
    return np.frombuffer(data.ljust(-(-len(data) // 4) * 4, b"\0"), dtype=np.uint32)


def _rows(blocks: Iterable[list[np.ndarray]], template: str, sep: str) -> Iterator[str]:
    """The rows of a stream of blocks of a float table as text, in chunks of whole rows.

    Each block is a list of 2-D arrays with as many rows each, whose columns
    lie side by side in the table.  A chunk holds as many rows as fit in
    ``_REPR_CHUNK`` floats, and at least one, wherever the blocks end: the
    rows of a block that do not fill a chunk wait for the next block.  Each
    row fills ``template``, which holds one ``%r`` per column and otherwise
    literal ASCII text, and rows are joined by ``sep``, also across chunks.
    Every float prints as its ``repr``, as ``json.dumps`` prints it too.

    A chunk is built as bytes: each row is a fixed run of uint32 words, the
    template's literal pieces (``sep`` folded into the first) NUL-padded to
    4 bytes, with one ``_fill_slots`` slot per float between them.  One
    ``translate`` then deletes every NUL, and the bytes decode as ASCII.
    """
    texts = template.split("%r")
    columns, width = len(texts) - 1, _SLOT // 4
    step = max(1, _REPR_CHUNK // columns)   # rows per chunk
    pieces = [_padded_words(sep + texts[0])] + [_padded_words(text) for text in texts[1:]]
    # a row: each piece but the last, then a slot (zeros for now), and the last piece
    row = np.concatenate([part for piece in pieces[:-1]
                          for part in (piece, np.zeros(width, np.uint32))] + [pieces[-1]])
    starts = np.cumsum([len(piece) for piece in pieces[:-1]]) + width * np.arange(columns)
    # the first word of each slot of a chunk, row by row
    at = ((np.arange(step) * len(row))[:, None] + starts).ravel()
    waiting, held = [], 0   # rows of the table not yet in a chunk, fewer than a chunk's
    head = True   # the first chunk drops the sep before its first row

    def chunk():
        table = waiting[0] if len(waiting) == 1 else np.concatenate(waiting)
        buf = bytearray(4 * len(table) * len(row))
        words = np.frombuffer(buf, dtype=np.uint32)
        words.reshape(len(table), -1)[:] = row
        _fill_slots(words, at[:table.size], table.ravel())
        text = buf.translate(None, b"\0").decode("ascii")
        return text[len(sep):] if head else text

    for block in blocks:
        start, rows = 0, len(block[0])
        while start < rows:
            stop = min(rows, start + step - held)
            waiting.append(np.hstack([part[start:stop] for part in block]))
            held += stop - start
            start = stop
            if held == step:
                yield chunk()
                head, waiting, held = False, [], 0
    if waiting:
        yield chunk()


def cmd_sample(args: argparse.Namespace) -> int:
    report, blocks = sm.sample_blocks(args.measure, args.dim, args.count,
                                      RngStream(args.seed),
                                      max_proposals=args.max_proposals,
                                      keep_matrices=args.full_matrix)
    write = _sample_csv if args.format == "csv" else _sample_json
    _emit(write(args, blocks, report), args.out)
    return EXIT_OK


def _record_columns(blocks, purity_last: bool) -> Iterator[list[np.ndarray]]:
    """Each ``(matrices_or_None, eigs)`` block as the column groups of its records.

    The groups are the eigenvalues, the purity and, when there are matrices,
    their row-major (re, im) entries; the purity comes second, or last when
    ``purity_last``.
    """
    for mats, eigs in blocks:
        purity = np.sum(eigs ** 2, axis=-1)[:, None]
        entries = [] if mats is None else [mats.reshape(len(eigs), -1).view(float)]
        yield [eigs, *entries, purity] if purity_last else [eigs, purity, *entries]


def _report_dict(report):
    return {
        "proposed": report.proposed,
        "accepted": report.accepted,
        "bound_constant": report.bound_constant,
        "empirical_rate": report.empirical_rate,
    }


def _sample_csv(args, blocks, report) -> Iterator[str]:
    lines = [
        f"# superfid sample schema_version={SCHEMA_VERSION}",
        f"# measure={args.measure} dim={args.dim} count={args.count} "
        f"seed={args.seed}",
    ]
    if report is not None:
        lines.append(f"# rejection proposed={report.proposed} accepted={report.accepted} "
                     f"bound_constant={_fmt(report.bound_constant)} "
                     f"empirical_rate={_fmt(report.empirical_rate)}")
    header = [f"lambda_{k + 1}" for k in range(args.dim)] + ["purity"]
    if args.full_matrix:
        for i in range(args.dim):
            for j in range(args.dim):
                header += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    lines.append(",".join(header))
    yield "\n".join(lines) + "\n"
    yield from _rows(_record_columns(blocks, purity_last=False),
                     ",".join(["%r"] * len(header)) + "\n", "")


def _json_list(items: list[str], depth: int) -> str:
    """A JSON list of already formatted ``items`` nested ``depth`` levels deep, indent=1."""
    pad = "\n" + " " * depth
    return "[" + pad + ("," + pad).join(items) + pad[:-1] + "]"


def _sample_json(args, blocks, report) -> Iterator[str]:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "sample",
        "measure": args.measure,
        "dim": args.dim,
        "count": args.count,
        "seed": args.seed,
        "rejection": _report_dict(report) if report is not None else None,
        "records": [],
    }
    head, tail = (json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)
                  + "\n").split('"records": []')
    # one record as json.dumps(indent=1) lays it out at depth 2, keys sorted
    fields = ['"eigenvalues": ' + _json_list(["%r"] * args.dim, 4)]
    if args.full_matrix:
        fields.append('"matrix_re_im": '
                      + _json_list([_json_list(["%r", "%r"], 5)] * args.dim ** 2, 4))
    fields.append('"purity": %r')
    record = "  {\n   " + ",\n   ".join(fields) + "\n  }"
    yield head + '"records": [\n'
    yield from _rows(_record_columns(blocks, purity_last=True), record, ",\n")
    yield "\n ]" + tail


def cmd_estimate(args: argparse.Namespace) -> int:
    est = ESTIMATORS[args.method](args)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "dim": est.dim,
        "method": est.method,
        "value": est.value,
        "std_error": est.std_error,
        "terms_or_samples": est.terms_or_samples,
        "seed": args.seed,
    }
    if est.method == "jensen-upper-bound":
        doc["kind"] = "upper_bound"
    if est.truncation_last_term is not None:
        doc["truncation_last_term"] = est.truncation_last_term
    if est.truncation_tail is not None:
        doc["truncation_tail"] = est.truncation_tail
    _emit([json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"], args.out)
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    grid = ed.density_grid_qutrit(args.resolution, args.measure)
    head = (f"# superfid grid schema_version={SCHEMA_VERSION}\n"
            f"# measure={args.measure} dim=3 resolution={args.resolution}\n"
            "lambda_1,lambda_2,density\n")
    # non-finite densities are NaN, which %r prints as nan
    columns = [grid.lambda1[:, None], grid.lambda2[:, None], grid.density[:, None]]
    _emit(chain([head], _rows([columns], "%r,%r,%r\n", "")), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify   # the only command that needs verify and similarity
    results = verify.run_suite(args.suite, args.seed, args.scale, dim=args.dim)
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
        "suite": args.suite,
        "seed": args.seed,
        "checks": [{"suite": r.suite, "name": r.name, "passed": r.passed,
                    "detail": r.detail} for r in results],
        "passed": not failures,
    }
    doc_json = json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    if args.out is not None:
        # human summary on stdout, machine-readable report to the file
        _emit([doc_json], args.out)
        sys.stdout.write(human)
    elif args.format == "json":
        sys.stdout.write(doc_json)
    else:
        sys.stdout.write(human)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="superfid",
                                     description="Random density matrices under the "
                                                 "superfidelity-induced measure.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        if seed:
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
    p.add_argument("--measure", choices=[Measure.SUPERFIDELITY.value, Measure.BURES.value],
                   default="g")
    p.add_argument("--resolution", type=int, default=400)
    common(p, seed=False)   # a grid draws nothing

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", choices=list(SUITE_NAMES))
    p.add_argument("--dim", type=int, default=None,
                   help="restrict the purity suite to one dimension")
    p.add_argument("--scale", type=float, default=1.0,
                   help="sample-size multiplier for the checks")
    p.add_argument("--format", choices=["text", "json"], default="text")
    common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "sample": cmd_sample,
        "estimate": cmd_estimate,
        "grid": cmd_grid,
        "verify": cmd_verify,
    }[args.command]
    try:
        if "seed" in args and args.seed is None:
            args.seed = seed_from_env()
        if args.out is not None:
            # fail before the work; "a" creates a missing file but truncates none
            open(args.out, "a", encoding="utf-8").close()
        return handler(args)
    except SamplingBudgetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except FAIL_CLOSED_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL_CLOSED
    except (ValueError, OSError) as exc:   # a rejected value, or an --out that cannot be opened
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
