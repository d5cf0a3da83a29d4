"""Command-line front end.

Exit codes: 0 success, 2 usage error (argparse default), 3 verification
failure, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .counting import CountReport, count_points, default_threads, positive_threads
from .curves import Family, genus, hermitian_cover_analysis, params_from_s
from .gf import SUPPORTED_DEGREES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

FAMILIES = [f.value for f in Family]


def _record(command: str, inputs: dict, results: dict, started: float, modulus=None,
            **extra) -> str:
    """One JSON record.  `results` holds only deterministic values; the
    timings, and the `extra` keys, sit beside it at the top level, so two
    identical runs differ only there."""
    rec = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing": round(time.perf_counter() - started, 6),
        "version": __version__,
        "modulus": list(modulus) if modulus is not None else None,
        **extra,
    }
    return json.dumps(rec, sort_keys=True)


def count_results(report: CountReport) -> dict:
    """The deterministic `results` of a count record."""
    return {
        "family": report.family.value,
        "s": report.params.s,
        "ext": report.r,
        "ell": report.ell,
        "n_points": report.n_points,
        "hasse_weil_target": report.hw_target,
        "is_maximal": report.is_maximal,
        "t0_affine": report.t0_affine,
        "elements_evaluated": report.elements_evaluated,
        "note": report.note,
    }


def cmd_genus(args) -> int:
    started = time.perf_counter()
    params = params_from_s(args.family, args.s)
    g = genus(params)
    results = {"genus": g, "q0": params.q0, "q": params.q, "m": params.m}
    if args.json:
        print(_record("genus", {"family": args.family, "s": args.s}, results, started))
    else:
        print(g)
    return EXIT_OK


def cmd_count(args) -> int:
    started = time.perf_counter()
    family = Family(args.family)
    params = params_from_s(family, args.s)
    threads = (default_threads() if args.threads is None
               else positive_threads(args.threads, "--threads"))
    report = count_points(family, params, args.ext, threads=threads)
    print(_record("count", {"family": family.value, "s": args.s, "ext": args.ext},
                  count_results(report), started, report.modulus,
                  wall_time=round(report.wall_time, 6), threads=report.threads,
                  stages={k: round(v, 6) for k, v in report.stages.items()}))
    if args.verify_maximal and not report.is_maximal:
        return EXIT_VERIFY
    return EXIT_OK


def _load_baseline(path: str) -> set[int]:
    """The genera of a baseline file: one nonnegative integer per line, `#`
    comments and blank lines ignored.  Raises ValueError (a usage error) when
    the file cannot be read or a line is not such an integer."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read baseline {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ValueError(f"cannot read baseline {path}: not UTF-8 text") from None
    values: set[int] = set()
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"baseline {path} line {lineno}: {text!r} is not a nonnegative integer")
        values.add(int(text))
    return values


PROGRESS_AFTER_S = 2.0  # a spectrum sweep this old reports each kind it finishes on stderr


def _spectrum_progress(kind: str, n_subgroups: int, n_records: int, elapsed: float) -> None:
    if elapsed >= PROGRESS_AFTER_S:
        print(f"spectrum: {kind} swept, {n_subgroups} H and {n_records} records so far, {elapsed:.1f} s",
              file=sys.stderr, flush=True)


def cmd_spectrum(args) -> int:
    from .catalog import TABLE1_PARAMS, spectrum, table1_check

    started = time.perf_counter()
    family = Family(args.family)
    params = params_from_s(family, args.s)
    # bad input ends the command before the sweep, so no record is printed
    baseline = _load_baseline(args.baseline) if args.baseline else None
    label = None
    if args.check_table1:
        label = next(
            (lab for lab, (fam, s) in TABLE1_PARAMS.items() if fam is family and s == args.s),
            None,
        )
        if label is None:
            print("error: no bundled reference row for this family and s", file=sys.stderr)
            return EXIT_USAGE

    res = spectrum(family, params, progress=_spectrum_progress)
    genera = res.genera()
    new_genera = None if baseline is None else sorted(set(genera) - baseline)
    table1 = None
    if label is not None:
        contained, missing = table1_check(label, genera)
        table1 = {"field": label, "contained": contained, "missing": missing}

    if args.format == "csv":
        print("kind,params,order,delta,genus")
        for rec in res.records:
            pstr = ";".join(f"{k}={v}" for k, v in rec.spec.args)
            print(f"{rec.spec.kind},{pstr},{rec.order},{rec.delta},{rec.genus}")
        if new_genera is not None:
            for g in new_genera:
                print(g, file=sys.stderr)
        if table1 is not None:
            print(f"table1: {json.dumps(table1)}", file=sys.stderr)
    else:
        results = {
            "genera": genera,
            "n_subgroups": res.n_subgroups,
            "n_specs": res.n_specs,
            "n_records": len(res.records),
            "n_mismatches": len(res.mismatches),
            "n_unexplained_mismatches": len(res.unexplained_mismatches),
            "records": [
                {
                    "kind": rec.spec.kind,
                    "params": dict(rec.spec.args),
                    "order": rec.order,
                    "delta": rec.delta,
                    "genus": rec.genus,
                    "genus_closed": rec.genus_closed,
                    "certified": rec.certified,
                    "mismatch": rec.mismatch,
                    "note": rec.note,
                }
                for rec in res.records
            ],
        }
        if new_genera is not None:
            results["new_vs_baseline"] = new_genera
        if table1 is not None:
            results["table1"] = table1
        print(_record("spectrum", {"family": family.value, "s": args.s}, results, started,
                      stages={k: round(v, 6) for k, v in res.stages.items()}))
    return EXIT_VERIFY if table1 is not None and not table1["contained"] else EXIT_OK


def cmd_verify_group(args) -> int:
    from .action import verify_group

    started = time.perf_counter()
    if args.s != 1:
        print("error: group verification is desk scale; only --s 1 is supported", file=sys.stderr)
        return EXIT_USAGE
    rows, stages, modulus = verify_group(params_from_s(Family.SUZUKI_COVER, args.s))
    ok = all(r["ok"] for r in rows)
    if args.json:
        print(_record("verify-group", {"s": args.s}, {"rows": rows, "all_ok": ok}, started,
                      modulus, stages={k: round(v, 6) for k, v in stages.items()}))
    else:
        for r in rows:
            mark = "ok " if r["ok"] else "FAIL"
            print(f"[{mark}] {r['check']}: {r['measured']} (expected {r['expected']})")
        print("all checks passed" if ok else "verification FAILED")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_hermitian(args) -> int:
    started = time.perf_counter()
    family = Family(args.family)
    params = params_from_s(family, args.s)
    rec = hermitian_cover_analysis(family, params, args.group_order)
    results = {
        "delta": rec.delta,
        "in_window": rec.in_window,
        "excluded": rec.excluded,
        "window": list(rec.window),
        "genus_from_delta": rec.genus_from_delta,
    }
    print(_record("hermitian", {"family": family.value, "s": args.s,
                                "group_order": args.group_order}, results, started))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxcurve",
        description="Point counts, automorphism actions, and quotient-genus "
        "spectra for the Skabelund maximal curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", help="closed-form genus of a curve family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("count", help="orbit-reduced rational-point count")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--ext", required=True, type=int,
                   help="extension degree r over F_q, with (2s+1)*r at most "
                        f"{SUPPORTED_DEGREES[2]} for Suzuki and {SUPPORTED_DEGREES[3]} for Ree families")
    p.add_argument("--verify-maximal", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("spectrum", help="quotient-genus spectrum sweep")
    p.add_argument("--family", required=True, choices=[Family.SUZUKI_COVER.value, Family.REE_COVER.value])
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--baseline", help="file of known genera, one integer per line")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--check-table1", action="store_true",
                   help="check containment of the bundled reference genera")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify-group", help="brute-force verification of the q=8 action")
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify_group)

    p = sub.add_parser("hermitian", help="different degree for an ambient Hermitian covering")
    p.add_argument("--family", required=True, choices=[Family.SUZUKI_COVER.value, Family.REE_COVER.value])
    p.add_argument("--s", required=True, type=int)
    p.add_argument("--group-order", required=True, type=int)
    p.set_defaults(fn=cmd_hermitian)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (AssertionError, RuntimeError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
