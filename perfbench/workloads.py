"""Workloads of the maxcurve benchmark: the jobs of one pass, the outputs
pinned for each job, and the comparator that checks them.

Every job calls the package's public API in-process at threads=1.  A job's
``run`` is the timed call; its ``observe`` turns the result into a plain
dict of deterministic outputs (no timing fields), which ``compare`` checks
field by field against ``pinned``.  One pinned field is one check.

The pins are the values computed at the commit that added the benchmark.
They include the three documented refutations: the reference rows for
F_2^12 and F_2^20 miss genus 13 resp. 247 while F_3^18 is contained, and the
order-5 tau-product pattern is [5, 5, 5, 5].  A change that makes a published
row "pass" therefore reads as a wrong output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Callable

# -- metric names (shared by run.py, worker.py and the tests) ---------------

END_TO_END = {
    "setup_s": "s",
    "pass_rel": "ref",
    "pass_tail_rel": "ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

COUNT_JOBS = (
    ("suzuki-cover", 1, 1),
    ("suzuki-cover", 1, 2),
    ("suzuki-cover", 1, 4),
    ("suzuki-base", 1, 4),
    ("suzuki-cover", 2, 4),
    ("suzuki-base", 2, 4),
    ("ree-cover", 1, 1),
    ("ree-cover", 1, 2),
    ("ree-cover", 1, 3),
    ("ree-base", 1, 3),
)
TABLE1_ROWS = (("suzuki-cover", 1, "F_2^12"), ("suzuki-cover", 2, "F_2^20"), ("ree-cover", 1, "F_3^18"))
WIDE_SWEEPS = (("suzuki-cover", 7), ("ree-cover", 3))
SPECTRUM_SWEEPS = tuple((f, s) for f, s, _ in TABLE1_ROWS) + WIDE_SWEEPS

PER_LAYER = {
    "gf.default_modulus_s": "s",
    "gf.tables_s": "s",
    "gf.table_bytes": "bytes",
    "gf.scalar_pow_calls": "count",
    "gf.scalar_mul_calls": "count",
    "gf.self_s": "s",
    **{f"counting.count_points_s.{f}.s{s}.r{r}": "s" for f, s, r in COUNT_JOBS},
    "counting.elems_evaluated": "count",
    "counting.elems_per_s": "1/s",
    "counting.self_s": "s",
    "action.build_places_s": "s",
    "action.default_generators_s": "s",
    "action.find_element_of_order_s": "s",
    "action.element_order_calls": "count",
    "action.verify_orbits_s": "s",
    "action.stabilizer_subgroup_order_s": "s",
    "action.self_s": "s",
    "ramification.delta_from_composition_calls": "count",
    "ramification.delta_calls_per_record": "calls/record",
    "ramification.self_s": "s",
    "catalog.divisors_s": "s",
    "catalog.divisors_calls": "count",
    "catalog.specs_swept": "count",
    "catalog.records": "count",
    "catalog.valid_ratio": "ratio",
    **{f"catalog.spectrum_s.{f}.s{s}": "s" for f, s in SPECTRUM_SWEEPS},
    "catalog.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
}

# -- pinned outputs -----------------------------------------------------------


def _count_pin(n_points, hw_target, is_maximal, t0_affine, modulus):
    return {"n_points": n_points, "hw_target": hw_target, "is_maximal": is_maximal,
            "t0_affine": t0_affine, "modulus": list(modulus)}


_M8 = (1, 1, 0, 1)
_M64 = (1, 1, 0, 0, 0, 0, 1)
_M4096 = (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1)
_M2_20 = (1, 0, 0, 1) + (0,) * 16 + (1,)
_M27 = (1, 2, 0, 1)
_M729 = (2, 1, 0, 0, 0, 0, 1)
_M3_9 = (1, 0, 1, 2, 0, 0, 0, 0, 0, 1)

COUNT_PINS = {
    ("suzuki-cover", 1, 1): _count_pin(65, None, False, 64, _M8),
    ("suzuki-cover", 1, 2): _count_pin(65, 3201, False, 64, _M64),
    ("suzuki-cover", 1, 4): _count_pin(29185, 29185, True, 64, _M4096),
    ("suzuki-base", 1, 4): _count_pin(5889, 5889, True, 64, _M4096),
    ("suzuki-cover", 2, 4): _count_pin(32538625, 32538625, True, 1024, _M2_20),
    ("suzuki-base", 2, 4): _count_pin(1302529, 1302529, True, 1024, _M2_20),
    ("ree-cover", 1, 1): _count_pin(19684, None, False, 19683, _M27),
    ("ree-cover", 1, 2): _count_pin(19684, 13287484, False, 19683, _M729),
    ("ree-cover", 1, 3): _count_pin(19684, None, False, 19683, _M3_9),
    ("ree-base", 1, 3): _count_pin(19684, None, False, 19683, _M3_9),
}


def _spectrum_pin(n_records, digest, n_mismatches, n_unexplained):
    return {"n_records": n_records, "rows_sha256": digest,
            "n_mismatches": n_mismatches, "n_unexplained_mismatches": n_unexplained}


SPECTRUM_PINS = {
    ("suzuki-cover", 1): _spectrum_pin(
        54, "1e5fd81bdeecc14a83de25dc3d2c608ee81200704d12c3e670af313ddec62ceb", 0, 0),
    ("suzuki-cover", 2): _spectrum_pin(
        118, "9cfd6dd70f3fe868b62b7e2d4d2010f3daf17b64b9c4c9ccfb5057268c7011a9", 0, 0),
    ("ree-cover", 1): _spectrum_pin(
        327, "b4c9ea94d4ac43d4c31e7d3b805991b368423870c40a10bc3f425ab41575e428", 96, 0),
    ("suzuki-cover", 7): _spectrum_pin(
        1796, "afe0854d0467d287d735b6a12c6c7c412b3e1aad14fd94402c49f6a9daf77366", 0, 0),
    ("ree-cover", 3): _spectrum_pin(
        3204, "bac3c5fadc66831f8d630d7ce7cd71c4682cce1dea533355c79d1fae8321b2e2", 1311, 0),
}

# table1_check as computed: the published F_2^12 and F_2^20 rows are refuted.
TABLE1_PINS = {
    "F_2^12": {"table1_contained": False, "table1_missing": [13]},
    "F_2^20": {"table1_contained": False, "table1_missing": [247]},
    "F_3^18": {"table1_contained": True, "table1_missing": []},
}


def _vg_row(measured, expected):
    return [measured, expected, measured == expected]


VERIFY_GROUP_PIN = {
    "exit_code": 0,
    "all_ok": True,
    "modulus": list(_M4096),
    "row:place count": _vg_row(29185, 29185),
    "row:small-field places": _vg_row(65, 65),
    "row:t=0 affine places": _vg_row(64, 64),
    "row:tau fixed places (all powers)": _vg_row([65] * 4, [65] * 4),
    "row:involution fixed places": _vg_row(1, 1),
    "row:involution order": _vg_row(2, 2),
    "row:order-4 fixed places": _vg_row(1, 1),
    "row:order-7 fixed places": _vg_row(2, 2),
    "row:order-7 tau products": _vg_row([2] * 4, [2] * 4),
    "row:order-13 fixed places": _vg_row(0, 0),
    "row:order-13 tau products": _vg_row([0] * 4, [0] * 4),
    "row:order-5 fixed places": _vg_row(0, 0),
    "row:order-5 tau products (aggregate)": _vg_row(20, 20),
    # the measured spread of 5 fixed places at each of the four tau powers,
    # not the concentration at a single power that the paper states
    "row:order-5 tau products (pattern)": _vg_row([5] * 4, [5] * 4),
    "row:orbit sizes": _vg_row([65, 29120], [65, 29120]),
    "row:stabilizer closure order": _vg_row(448, 448),
}


# -- jobs -----------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    observe: Callable[[object], dict]
    pinned: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: tuple[tuple[int, int], ...]  # (p, k) of every field a pass touches
    jobs: Callable[[], list[Job]]        # builds the jobs; imports maxcurve lazily


def compare(pinned: dict, observed: dict) -> list[str]:
    """Names of the pinned fields whose observed value is wrong or missing."""
    missing = object()
    return [key for key, want in pinned.items() if observed.get(key, missing) != want]


def spectrum_rows_digest(records) -> str:
    """sha256 of the (kind, args, order, delta, genus, genus_closed) rows."""
    rows = [[r.spec.kind, [list(a) for a in r.spec.args], r.order, r.delta, r.genus, r.genus_closed]
            for r in records]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def observe_count(report) -> dict:
    return {"n_points": report.n_points, "hw_target": report.hw_target,
            "is_maximal": report.is_maximal, "t0_affine": report.t0_affine,
            "modulus": list(report.modulus)}


def observe_spectrum(res) -> dict:
    return {"n_records": len(res.records), "rows_sha256": spectrum_rows_digest(res.records),
            "n_mismatches": len(res.mismatches),
            "n_unexplained_mismatches": len(res.unexplained_mismatches)}


def observe_verify_group(out: tuple[int, str]) -> dict:
    code, text = out
    rec = json.loads(text)
    obs = {"exit_code": code, "all_ok": rec["results"]["all_ok"], "modulus": rec["modulus"]}
    for row in rec["results"]["rows"]:
        obs["row:" + row["check"]] = [row["measured"], row["expected"], row["ok"]]
    return obs


def _char(family: str) -> int:
    return 2 if family.startswith("suzuki") else 3


# Jobs look the package's functions up at call time, as module attributes,
# so that the traced run sees the rebound wrappers.


def _count_jobs(char: int) -> list[Job]:
    from maxcurve import counting
    from maxcurve.curves import params_from_s

    return [Job(f"count.{fam}.s{s}.r{r}",
                lambda fam=fam, params=params_from_s(fam, s), r=r: counting.count_points(
                    fam, params, r, threads=1),
                observe_count, COUNT_PINS[(fam, s, r)])
            for fam, s, r in COUNT_JOBS if _char(fam) == char]


def _table1_jobs() -> list[Job]:
    from maxcurve import catalog
    from maxcurve.curves import params_from_s

    def run(fam, s, label):
        res = catalog.spectrum(fam, params_from_s(fam, s))
        return res, catalog.table1_check(label, res.genera())

    def observe(out):
        res, (contained, missing) = out
        return {**observe_spectrum(res), "table1_contained": contained, "table1_missing": missing}

    return [Job(f"spectrum.{fam}.s{s}", lambda a=(fam, s, label): run(*a), observe,
                {**SPECTRUM_PINS[(fam, s)], **TABLE1_PINS[label]})
            for fam, s, label in TABLE1_ROWS]


def _wide_jobs() -> list[Job]:
    from maxcurve import catalog
    from maxcurve.curves import params_from_s

    return [Job(f"spectrum.{fam}.s{s}", lambda fam=fam, s=s: catalog.spectrum(fam, params_from_s(fam, s)),
                observe_spectrum, SPECTRUM_PINS[(fam, s)])
            for fam, s in WIDE_SWEEPS]


def _verify_group_jobs() -> list[Job]:
    from maxcurve import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify-group", "--s", "1", "--json"])
        return code, buf.getvalue()

    return [Job("verify-group.s1", run, observe_verify_group, VERIFY_GROUP_PIN)]


def _count_fields(char: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(char, (2 * s + 1) * r) for f, s, r in COUNT_JOBS if _char(f) == char}))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("counts_suzuki",
                 "char-2 counts s=1 r=1,2,4 and s=2 r=4 (F_2^20), warm: gf tables and the table/XOR kernel",
                 _count_fields(2), lambda: _count_jobs(2)),
        Workload("counts_ree",
                 "char-3 counts s=1 r=1,2,3 (F_3^9), warm: the digit kernel; degree-6 Ree (~44 CPU-h) left out",
                 _count_fields(3), lambda: _count_jobs(3)),
        Workload("group_q8",
                 "maxcurve verify-group --s 1 --json in-process: action layer and scalar gf arithmetic",
                 ((2, 12),), _verify_group_jobs),
        Workload("spectra_table1",
                 "spectra and table1_check of the three reference rows: catalog and ramification, divisors cheap",
                 (), _table1_jobs),
        Workload("spectra_wide",
                 "wide spectra suzuki-cover s=7, ree-cover s=3: catalog with divisors() at 62% of the time",
                 (), _wide_jobs),
    )
}
