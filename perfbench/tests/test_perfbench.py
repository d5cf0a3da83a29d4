"""Tests of the benchmark itself (not of maxcurve).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (COUNT_PINS, END_TO_END, PER_LAYER, SPECTRUM_PINS, WORKLOADS,  # noqa: E402
                       compare, observe_count, observe_spectrum)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


# -- comparator ------------------------------------------------------------------


def test_comparator_flags_perturbed_n_points():
    from maxcurve.counting import count_points
    from maxcurve.curves import params_from_s

    report = count_points("suzuki-cover", params_from_s("suzuki-cover", 1), 4, threads=1)
    pin = COUNT_PINS[("suzuki-cover", 1, 4)]
    assert compare(pin, observe_count(report)) == []
    bad = dataclasses.replace(report, n_points=report.n_points + 1)
    assert compare(pin, observe_count(bad)) == ["n_points"]


def test_comparator_flags_perturbed_genus():
    from maxcurve.catalog import spectrum
    from maxcurve.curves import params_from_s

    res = spectrum("suzuki-cover", params_from_s("suzuki-cover", 1))
    pin = SPECTRUM_PINS[("suzuki-cover", 1)]
    assert compare(pin, observe_spectrum(res)) == []
    rec = res.records[7]
    records = list(res.records)
    records[7] = dataclasses.replace(rec, genus_delta=rec.genus_delta + 1)
    assert compare(pin, observe_spectrum(dataclasses.replace(res, records=records))) == ["rows_sha256"]


def test_comparator_counts_missing_fields_as_wrong():
    assert compare({"a": 1, "b": None}, {"a": 1}) == ["b"]


# -- span arithmetic -----------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["catalog.spectrum.x.s1", -1, 0.0, 10.0],
        ["ramification.delta_from_composition", 0, 1.0, 4.0],
        ["ramification.genus_from_rh", 1, 2.0, 3.0],
        ["catalog.divisors", 0, 5.0, 9.0],
        ["catalog.divisors", 3, 6.0, 7.0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]
    m = tracing.pass_metrics(spans, Counter(), pass_time=12.0)
    assert m["catalog.self_s"] == 7.0
    assert m["ramification.self_s"] == 3.0
    assert m["bench.self_s"] == 2.0
    assert m["catalog.divisors_s"] == 4.0  # the nested call is not counted twice
    assert m["catalog.divisors_calls"] == 2
    assert m["catalog.spectrum_s.x.s1"] == 10.0


def test_union_length_merges_overlaps():
    assert tracing.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)]) == 4.0


def test_tail_is_p90_with_its_sample_count():
    assert run.tail([float(i) for i in range(1, 102)]) == (91.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (2.8, 1)
    assert run.tail([5.0]) == (5.0, 0)


def test_tracer_sees_cross_module_calls_and_restores_bindings():
    from maxcurve import cli, counting

    original = counting.count_points
    tracer = tracing.Tracer()
    tracer.install("maxcurve")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["count", "--family", "suzuki-cover", "--s", "1", "--ext", "4"]) == 0
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    child = names.index("counting.count_points.suzuki-cover.s1.r4")
    assert tracer.spans[child][1] == 0
    assert tracer.counts["counting.elems_evaluated"] == 4096
    assert counting.count_points is original and cli.count_points is original


# -- BENCHMARK.json and the printed result -------------------------------------------


def test_metric_names_and_units_are_well_formed():
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    for w in SPEC["workloads"]:
        assert NAME.fullmatch(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_benchmark_json_lists_what_the_code_defines():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_command_prints_the_listed_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "counts_ree", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
