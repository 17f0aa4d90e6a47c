"""Command-line frontend: sweeps, CSV/SVG artifacts, and JSON run manifests.

Every command runs inside one lifecycle, ``_run``: it owns the output
directory ($RESIDUEVC_OUT/<command> or ./out/<command> by default) and
the run's ``RunManifest``, which records parameters, timestamps, per-item
status, the artifacts in the order the run creates them, the environment
(Python, numpy, CPUs) and, at each save, the CPU time and peak memory of
the process and of its ``--jobs`` workers.  The manifest
is saved as ``complete`` when the command returns, and as ``interrupted``
(with the files written so far) when Ctrl-C stops it; any other error
saves none and leaves the previous manifest in place.  Each command does
the work that can fail on its arguments before it opens its first output,
so a refused run leaves earlier outputs byte-identical.  CSV rows are
written incrementally, a flush after each item, so an interrupted sweep
resumes from its rows with --resume.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

from . import __version__
from .errors import Infeasible, ResidueVCError
from .field import ZeroConvention, character_table, make_field
from .montecarlo import interface_primes, interface_scan
from .primes import primes_in_range
from .search import _usable_cpus, longest_shattered_ap, sweep, vc_dimension
from .svgplot import scatter_svg
from .weil import verify_equidistribution, verify_shattering_theorem, verify_weil


def _environment() -> dict:
    """Python and numpy versions, and the CPUs there are and may be used."""
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "usable_cpus": _usable_cpus()}


def _resources() -> dict:
    """CPU seconds and peak resident memory so far, of this process and
    of its finished child processes (the ``--jobs`` workers)."""
    import resource
    # ru_maxrss counts bytes on macOS and KiB elsewhere
    rss_unit = 1 if sys.platform == "darwin" else 1024
    use = {}
    for who, flag in (("self", resource.RUSAGE_SELF),
                      ("children", resource.RUSAGE_CHILDREN)):
        r = resource.getrusage(flag)
        use[who] = {"cpu_s": round(r.ru_utime + r.ru_stime, 3),
                    "peak_rss_mb": round(r.ru_maxrss * rss_unit / 2**20, 1)}
    return use


@dataclass
class RunManifest:
    command: str
    parameters: dict
    tool_version: str = __version__
    started_at: str = ""
    finished_at: str = ""
    #: "complete", or "interrupted" when a KeyboardInterrupt stopped the run.
    status: str = "complete"
    items: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    environment: dict = field(default_factory=_environment)
    #: ``_resources()`` as of the last save.
    resources: dict = field(default_factory=dict)

    def save(self, out_dir: Path) -> Path:
        """Write ``manifest.json`` atomically: a failed write leaves the
        previous manifest in place.  The fields hold only JSON values, so
        a shallow dict of them dumps as ``asdict`` would, without its deep
        copy of every item."""
        self.resources = _resources()
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        path = out_dir / "manifest.json"
        tmp = out_dir / ".manifest.json.tmp"
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(json.dumps(data, indent=2) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _out_dir(args, command: str) -> Path:
    base = args.out_dir or os.environ.get("RESIDUEVC_OUT") or "out"
    path = Path(base)
    if args.out_dir is None:
        path = path / command
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like LO:HI")
    try:
        a, b = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from exc
    if a > b:
        raise argparse.ArgumentTypeError("range low end exceeds high end")
    return a, b


def _at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
    return value


def _positive_int(text: str) -> int:
    return _at_least(1, text)


def _non_negative_int(text: str) -> int:
    return _at_least(0, text)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text}")
    return value


def _index_list(text: str) -> list[int]:
    """Comma-separated subgroup indices, each at least 2, none repeated."""
    indices = [_at_least(2, v) for v in text.split(",")]
    if len(set(indices)) < len(indices):
        raise argparse.ArgumentTypeError(f"repeats an index: {text}")
    return indices


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"bad flag {text!r}")
    return text == "true"


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(";")] if text else []


def _read_rows(path: Path, fields: dict) -> list[dict]:
    """Parsed rows of a checkpoint CSV written with header ``list(fields)``.

    A row is trusted only when its line is complete, every header field is
    present and parses with its converter; any other row is dropped, so
    its item is redone.  So a partial last line, left by an interrupted
    write, is ignored here and cut off by ``_Csv`` on resume.
    """
    if not path.exists():
        return []
    with path.open(newline="", encoding="utf-8") as fh:
        text = fh.read()
    reader = csv.DictReader(io.StringIO(text[:text.rfind("\n") + 1],
                                        newline=""))
    if reader.fieldnames is not None and reader.fieldnames != list(fields):
        raise ValueError(f"{path} has columns {reader.fieldnames}, "
                         f"expected {list(fields)}")
    rows = []
    for raw in reader:
        if None in raw or None in raw.values():
            continue  # more or fewer fields than the header
        try:
            rows.append({k: parse(raw[k]) for k, parse in fields.items()})
        except (TypeError, ValueError):
            continue
    return rows


def _checkpointed(path: Path, fields: dict, conv: ZeroConvention) -> set[int]:
    """Primes already in a checkpoint CSV, which must hold only rows of
    convention ``conv``; mixing conventions in one file is refused."""
    rows = _read_rows(path, fields)
    foreign = sorted({row["convention"].value for row in rows} - {conv.value})
    if foreign:
        raise ValueError(f"{path} holds rows of convention "
                         f"{', '.join(foreign)}, not {conv.value}")
    return {row["q"] for row in rows}


class _Csv:
    """Append-mode CSV writer that flushes after every row; a context
    manager that closes the file.

    On resume, a partial last line left by an interrupted write is cut
    off first, so every appended row starts on a fresh line.
    """

    def __init__(self, path: Path, header: list[str], resume: bool):
        if resume and path.exists():
            with path.open("r+b") as fh:
                data = fh.read()
                fh.truncate(data.rfind(b"\n") + 1)
        fresh = not (resume and path.exists() and path.stat().st_size > 0)
        self.fh = path.open("w" if fresh else "a", newline="", encoding="utf-8")
        self.writer = csv.writer(self.fh)
        if fresh:
            self.writer.writerow(header)
            self.fh.flush()

    def __enter__(self) -> "_Csv":
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def row(self, values) -> None:
        self.writer.writerow(values)
        self.fh.flush()


@contextmanager
def _run(args, command: str, parameters: dict):
    """Lifecycle of one command run; yields (output directory, manifest).

    The body appends each artifact to ``manifest.outputs`` when it creates
    it.  The manifest is saved with status ``complete`` when the body
    returns, and with status ``interrupted`` when a KeyboardInterrupt
    stops it, which is then re-raised.  Any other exception saves nothing,
    so the previous run's manifest stays in place.
    """
    out = _out_dir(args, command)
    manifest = RunManifest(command=command, parameters=parameters,
                           started_at=_now())
    try:
        yield out, manifest
    except KeyboardInterrupt:
        manifest.status = "interrupted"
        manifest.finished_at = _now()
        manifest.save(out)
        raise
    manifest.finished_at = _now()
    manifest.save(out)


def _sweep(args, command: str, fields: dict, params: dict, solve, jobs: int,
           row, plot_key: str, curves: list, **svg) -> int:
    """Run a checkpointed per-prime sweep over the primes of ``args.range``
    from 5 on.

    The primes not already checkpointed are mapped through
    ``search.sweep`` with ``solve(q, conv)`` and ``jobs``: results come in
    ascending order, and a failed prime becomes an ``error`` item of the
    manifest.  ``row(r, conv)`` gives a result's CSV values and the fields
    of its manifest item after q and status.  The rows go to
    <command>.csv, with ``fields`` as header and checkpoint parsers; the
    figure plots column ``plot_key`` of every row against q, with
    ``curves`` (functions f drawn over the range's primes) and
    ``svg`` passed on to ``scatter_svg``.  An interrupted sweep's rows are
    complete, so --resume picks up from them.
    """
    conv = ZeroConvention.parse(args.convention)
    q_lo, q_hi = args.range
    parameters = {"range": list(args.range), "convention": conv.value,
                  **params, "resume": args.resume,
                  "deterministic": "no RNG used by this command"}
    with _run(args, command, parameters) as (out, manifest):
        csv_path = out / f"{command}.csv"
        done = _checkpointed(csv_path, fields, conv) if args.resume else set()
        qs = primes_in_range(max(q_lo, 5), q_hi)
        for q in sorted(done):
            manifest.items.append({"q": q, "status": "checkpointed"})

        def on_error(q, exc):
            manifest.items.append({"q": q, "status": "error",
                                   "detail": str(exc)})

        with _Csv(csv_path, list(fields), args.resume) as sheet:
            manifest.outputs.append(str(csv_path))
            for r in sweep(partial(solve, conv=conv),
                           [q for q in qs if q not in done], jobs, on_error):
                values, item = row(r, conv)
                sheet.row(values)
                manifest.items.append({"q": r.q, "status": "ok", **item})
        points = sorted((r["q"], r[plot_key])
                        for r in _read_rows(csv_path, fields))
        svg_path = out / f"{command}.svg"
        scatter_svg(svg_path, points,
                    curves=[[(q, f(q)) for q in qs or [5, 7]]
                            for f in curves], **svg)
        manifest.outputs.append(str(svg_path))
    return 0


# ---------------------------------------------------------------------------
# vcdim
# ---------------------------------------------------------------------------

VCDIM_FIELDS = {"q": int, "vcdim": int, "exact": _flag, "alpha_q": float,
                "witness": _int_list, "convention": ZeroConvention.parse,
                "elapsed_ms": float}


def cmd_vcdim(args) -> int:
    def row(r, conv):
        return ([r.q, r.vcdim, str(r.exact).lower(), f"{r.alpha_q:.6f}",
                 ";".join(str(y) for y in r.witness), r.convention.value,
                 f"{r.elapsed_ms:.1f}"],
                {"vcdim": r.vcdim, "exact": r.exact, "nodes": r.nodes,
                 "cells": r.cells, "pair_cells": r.pair_cells,
                 "nodes_by_depth": r.nodes_by_depth})

    if args.resume and not args.early_exit:
        # an exact sweep must not keep an early-exit run's lower bounds
        path = _out_dir(args, "vcdim") / "vcdim.csv"
        inexact = [str(r["q"]) for r in _read_rows(path, VCDIM_FIELDS)
                   if not r["exact"]]
        if inexact:
            raise ValueError(f"{path} holds early-exit lower bounds "
                             f"(exact=false) for q = {', '.join(inexact)}; "
                             f"add --early-exit or drop --resume")
    return _sweep(args, "vcdim", VCDIM_FIELDS,
                  {"early_exit": args.early_exit, "jobs": args.jobs},
                  partial(vc_dimension, early_exit=args.early_exit),
                  args.jobs, row, "vcdim", [math.log2],
                  x_label="prime q", y_label="largest shattered size",
                  title=f"VC dimension, convention {args.convention}")


# ---------------------------------------------------------------------------
# ap
# ---------------------------------------------------------------------------

AP_FIELDS = {"q": int, "longest": int, "log2_q": float, "ratio": float,
             "convention": ZeroConvention.parse}


def cmd_ap(args) -> int:
    def row(r, conv):
        return ([r.q, r.longest, f"{math.log2(r.q):.6f}", f"{r.ratio:.6f}",
                 conv.value], {"longest": r.longest})

    return _sweep(args, "ap", AP_FIELDS, {}, longest_shattered_ap, 1, row,
                  "longest", [math.log2, lambda q: math.log2(q) / 2],
                  x_label="prime q (log scale)",
                  y_label="longest shattered progression", log_x=True,
                  title=f"Shattered initial segments, convention "
                        f"{args.convention}")


# ---------------------------------------------------------------------------
# prob
# ---------------------------------------------------------------------------

PROB_HEADER = ["n", "q", "ratio", "trials", "hits", "p_hat", "seed",
               "convention"]


def cmd_prob(args) -> int:
    conv = ZeroConvention.parse(args.convention)
    n_lo, n_hi = args.n
    parameters = {"n": list(args.n), "trials": args.trials,
                  "density": args.density, "seed": args.seed,
                  "ratio_lo": args.ratio_lo, "ratio_hi": args.ratio_hi,
                  "convention": conv.value,
                  "rng": "numpy PCG64; per-point seeds derived from "
                         "(seed, n, q)"}
    scan = (args.ratio_lo, args.ratio_hi, args.density, args.trials,
            args.seed)
    with _run(args, "prob", parameters) as (out, manifest):
        # Listing every n's primes raises any argument error before the
        # first output is opened; ``interface_scan`` lists them again.
        for n in range(n_lo, n_hi + 1):
            interface_primes(n, *scan)
        for n in range(n_lo, n_hi + 1):
            points = interface_scan(n, *scan, conv=conv)
            csv_path = out / f"prob_n{n}.csv"
            with _Csv(csv_path, PROB_HEADER, resume=False) as sheet:
                manifest.outputs.append(str(csv_path))
                for p in points:
                    sheet.row([p.n, p.q, f"{p.ratio:.6f}", p.trials, p.hits,
                               f"{p.p_hat:.6f}", p.seed, conv.value])
                    manifest.items.append({"n": p.n, "q": p.q, "status": "ok",
                                           "p_hat": p.p_hat})
            svg_path = out / f"prob_n{n}.svg"
            scatter_svg(svg_path, [(p.ratio, p.p_hat) for p in points],
                        x_label="n / log2 q", y_label="estimated probability",
                        x_range=(args.ratio_lo, args.ratio_hi),
                        y_range=(0.0, 1.0),
                        title=f"Shattering probability, n = {n}")
            manifest.outputs.append(str(svg_path))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_HEADER = ["check", "q", "r", "params", "instances", "violations",
                 "max_quantity", "bound_form", "status"]


def _weil_check(F, r: int, args):
    w = verify_weil(F, character_table(F, r), args.n_max,
                    samples=args.samples, seed=args.seed)
    return (f"n_max={args.n_max}", w.instances, w.violations,
            f"{w.max_ratio:.6f}")


def _equidistribution_check(F, r: int, args):
    e = verify_equidistribution(F, r, args.n_max, samples=args.samples,
                                seed=args.seed)
    return (f"n_max={args.n_max}", e.instances, e.violations,
            f"{e.max_normalized:.6f}")


def _shattering_check(F, r: int, args):
    t = verify_shattering_theorem(F, r, args.epsilon)
    return f"epsilon={args.epsilon};n_star={t.n_star}", t.checked, t.failures, ""


# (check, bound_form, run); run returns (params, instances, violations,
# max_quantity) or raises Infeasible when over its operation budget, which
# only the shattering check has.
VERIFY_CHECKS = [("weil", "(n-1)sqrt(q)", _weil_check),
                 ("equidistribution", "n/sqrt(q)+n/q", _equidistribution_check),
                 ("shattering", "all subsets shattered", _shattering_check)]


def cmd_verify(args) -> int:
    parameters = {"q_max": args.q_max, "r": args.r, "n_max": args.n_max,
                  "epsilon": args.epsilon, "samples": args.samples,
                  "seed": args.seed}
    qs = primes_in_range(5, args.q_max)
    if not any((q - 1) % r == 0 for q in qs for r in args.r):
        # a run that checks nothing must not read as passed
        raise ValueError(f"no prime q in [5, {args.q_max}] has an index in "
                         f"--r dividing q - 1, so nothing would be checked")
    total_violations = 0
    with _run(args, "verify", parameters) as (out, manifest):
        csv_path = out / "verify.csv"
        with _Csv(csv_path, VERIFY_HEADER, resume=False) as sheet:
            manifest.outputs.append(str(csv_path))
            for q in qs:
                F = make_field(q)
                for r in args.r:
                    if (q - 1) % r != 0:
                        manifest.items.append(
                            {"q": q, "r": r, "status": "skipped",
                             "detail": "r does not divide q-1"})
                        continue
                    item = {"q": q, "r": r, "status": "ok"}
                    for check, bound_form, run in VERIFY_CHECKS:
                        try:
                            params, instances, violations, quantity = run(
                                F, r, args)
                        except Infeasible as exc:
                            sheet.row([check, q, r, "", "", "", "", bound_form,
                                       "skipped"])
                            item["status"] = "partial"
                            item.setdefault("skipped", {})[check] = str(exc)
                            continue
                        sheet.row([check, q, r, params, instances, violations,
                                   quantity, bound_form,
                                   "ok" if violations == 0 else "FAIL"])
                        total_violations += violations
                    manifest.items.append(item)
        manifest.parameters["violations"] = total_violations
    print(f"verify: {total_violations} violation(s)")
    return 0 if total_violations == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="residuevc",
        description="VC dimension of power-residue sets under translation: "
                    "sweeps, probability scans, and character-sum checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_conv: str):
        p.add_argument("--convention", default=default_conv,
                       choices=[c.value for c in ZeroConvention],
                       help="treatment of 0 and of translates hitting the "
                            f"subset (default: {default_conv})")
        p.add_argument("--out-dir", default=None,
                       help="output directory (default: $RESIDUEVC_OUT/<cmd> "
                            "or ./out/<cmd>)")

    p = sub.add_parser("vcdim", help="exact VC dimension per prime in a range",
                       epilog="vcdim.csv columns: " + ", ".join(VCDIM_FIELDS))
    p.add_argument("--range", type=_parse_range, required=True,
                   metavar="LO:HI")
    p.add_argument("--early-exit", action="store_true",
                   help="stop each prime once a set of size "
                        "floor(log2 q) - 1 is found (result is a lower bound)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="processes solving primes, at most one per prime "
                        "and per usable CPU (default: 1)")
    p.add_argument("--resume", action="store_true",
                   help="keep existing CSV rows and compute only missing primes")
    add_common(p, ZeroConvention.ZERO_IN.value)
    p.set_defaults(func=cmd_vcdim)

    p = sub.add_parser("ap", help="longest shattered prefix {0, ..., n-1} "
                                  "per prime; it stands for every arithmetic "
                                  "progression under strict, and under the "
                                  "other conventions when q = 3 (mod 4)",
                       epilog="ap.csv columns: " + ", ".join(AP_FIELDS))
    p.add_argument("--range", type=_parse_range, required=True,
                   metavar="LO:HI")
    p.add_argument("--resume", action="store_true")
    add_common(p, ZeroConvention.ZERO_IN.value)
    p.set_defaults(func=cmd_ap)

    p = sub.add_parser("prob", help="shattering probability scans per subset "
                                    "size",
                       epilog="prob_n<k>.csv columns: " + ", ".join(PROB_HEADER))
    p.add_argument("--n", type=_parse_range, required=True, metavar="LO:HI")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--density", type=_finite_float, default=100,
                   help="expected number of sampled primes per plot")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--ratio-lo", type=_finite_float, default=0.7)
    p.add_argument("--ratio-hi", type=_finite_float, default=0.85)
    add_common(p, ZeroConvention.ZERO_IN.value)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("verify", help="run the character-sum verification "
                                      "suite",
                       epilog="verify.csv columns: " + ", ".join(VERIFY_HEADER))
    p.add_argument("--q-max", type=int, default=101)
    p.add_argument("--r", type=_index_list, default="2",
                   help="comma-separated subgroup indices, each at least 2")
    p.add_argument("--n-max", type=_positive_int, default=2)
    p.add_argument("--epsilon", type=_finite_float, default=0.1)
    p.add_argument("--samples", type=_positive_int, default=500)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ResidueVCError) as exc:
        print(f"residuevc: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
