import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(root, *args):
    return subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


def test_checkout_id_names_the_measured_sources(bench_record, tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "README").write_text("r\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "c")
    index = (tmp_path / ".git" / "index").read_bytes()
    clean = bench_record.checkout_id(tmp_path)
    assert clean == {"sha": _git(tmp_path, "rev-parse", "HEAD"), "dirty": False,
                     "src_tree": _git(tmp_path, "rev-parse", "HEAD:src")}
    # a change outside src/ leaves the measured sources as they are
    (tmp_path / "README").write_text("changed\n")
    assert bench_record.checkout_id(tmp_path) == clean
    # an edited and an untracked source both count; the index is untouched
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    edited = bench_record.checkout_id(tmp_path)
    (tmp_path / "src" / "b.py").write_text("y = 1\n")
    added = bench_record.checkout_id(tmp_path)
    assert edited["dirty"] and added["dirty"]
    assert len({clean["src_tree"], edited["src_tree"], added["src_tree"]}) == 3
    assert (tmp_path / ".git" / "index").read_bytes() == index


def test_record_names_keep_a_control_of_the_same_sources(bench_record):
    parent = {"sha": "a" * 40, "dirty": False, "src_tree": "b" * 40}
    change = {"sha": "a" * 40, "dirty": True, "src_tree": "c" * 40}
    assert bench_record.record_names([parent, parent, change]) == ["a" * 12, "a" * 12 + "-root2",
                                                                    "a" * 12 + "+" + "c" * 12]
    assert bench_record.record_names([change, parent]) == ["a" * 12 + "+" + "c" * 12, "a" * 12]


def test_summarize_takes_medians_and_sums_checks(bench_record):
    def run(value, failed):
        return {"result": {"attempted": 4, "failed": failed,
                           "metrics": {"pass_rel": {"value": value, "unit": "ref"}}}}

    assert bench_record.summarize([run(3.0, 0), run(1.0, 1), run(2.0, 0)]) == {
        "checks_attempted": 12,
        "checks_failed": 1,
        "metrics": {"pass_rel": {"median": 2.0, "unit": "ref", "runs": [3.0, 1.0, 2.0]}},
    }


def test_versus_first_root_on_synthetic_runs(bench_record):
    def workloads(pass_rel, ok_ratio):
        runs = [{"result": {"attempted": 1, "failed": 0,
                            "metrics": {"pass_rel": {"value": p, "unit": "ref"},
                                        "ok_ratio": {"value": o, "unit": "ratio"},
                                        "extra": {"value": 1.0, "unit": "s"}}}}
                for p, o in zip(pass_rel, ok_ratio)]
        return {"w": {"end_to_end": bench_record.summarize(runs)}}

    parent = workloads([2.0, 4.0, 3.0, 5.0], [1.0, 1.0, 0.5, 1.0])
    change = workloads([1.0, 4.0, 2.0, 6.0], [1.0, 0.9, 1.0, 1.0])
    better = {"pass_rel": "lower", "ok_ratio": "higher"}
    # pass_rel: lower on seeds 1 and 3, a tie on seed 2; ok_ratio: higher
    # on seed 3 only; a metric not in BENCHMARK.json is left out
    assert bench_record.versus(parent, change, better) == {"w": {
        "pass_rel": {"ratio": 3.0 / 3.5, "better_seeds": 2, "seeds": 4},
        "ok_ratio": {"ratio": 1.0, "better_seeds": 1, "seeds": 4},
    }}
    assert bench_record.versus(parent, parent, better)["w"]["pass_rel"] == {"ratio": 1.0, "better_seeds": 0,
                                                                            "seeds": 4}


def test_stage_medians_of_verify_group_records(bench_record):
    def rec(timing, places, rows, cpu_s, minflt):
        return {"timing": timing, "stages": {"places": places, "rows": rows}, "cpu_s": cpu_s, "minflt": minflt}

    assert bench_record.stage_medians([rec(0.03, 0.002, 0.001, 0.04, 500), rec(0.01, 0.004, 0.003, 0.01, 300),
                                       rec(0.02, 0.003, 0.002, 0.02, 900)]) == {
        "runs": 3,
        "timing": 0.02,
        "cpu_s": 0.02,
        "minflt": 500,
        "stages": {"places": 0.003, "rows": 0.002},
    }


def test_stage_records_alternate_roots_round_by_round(bench_record, monkeypatch):
    calls = []

    def command_runs(root, command, runs):
        calls.append((root, command[0]))
        return [{"timing": len(calls), "stages": {"s": 0.0}, "cpu_s": 0.0, "minflt": 0}] * runs

    monkeypatch.setattr(bench_record, "command_runs", command_runs)
    commands = [("one", None, ["a"]), ("many", "x", ["b"]), ("many", "y", ["c"])]
    got = bench_record.stage_records(["P", "C"], commands, 3, 2)
    first = ["P", "C", "P"]
    assert calls == [(root, cmd) for i in range(3) for cmd in "abc"
                     for root in (first[i], "C" if first[i] == "P" else "P")]
    assert sorted(got["P"]) == ["many", "one"] and sorted(got["P"]["many"]) == ["x", "y"]
    # the runs of all rounds pooled: "a" ran 1st, 8th and 13th for P
    assert got["P"]["one"] == {"runs": 6, "timing": 8, "cpu_s": 0.0, "minflt": 0, "stages": {"s": 0.0}}
    assert got["C"]["many"]["y"]["timing"] == 11


# record key -> (names within it, None for one command's medians; stages)
STAGE_RECORDS = {
    "verify_group_stages": ([None], ["closure", "generators", "orbits", "order_search", "places", "rows"]),
    "spectrum_stages": (["ree-cover s=1", "ree-cover s=3", "suzuki-cover s=7"], ["sort", "sweep"]),
    "count_stages": (["ree-base s=1 ext=6", "ree-cover s=1 ext=6"], ["kernel", "reduction", "tables"]),
}


@pytest.mark.parametrize("key", list(STAGE_RECORDS))
def test_stages_of_this_checkout(bench_record, key):
    names, stages = STAGE_RECORDS[key]
    root = SCRIPT.parents[1]
    commands = [command for command in bench_record.STAGE_COMMANDS if command[0] == key]
    got = bench_record.stage_records([root], commands, 2, 1)[root]
    assert list(got) == [key]
    records = {None: got[key]} if names == [None] else got[key]
    assert sorted(records, key=str) == names
    for record in records.values():
        assert record["runs"] == 2  # one run in each of two rounds
        assert sorted(record["stages"]) == stages
        assert 0 < sum(record["stages"].values()) <= record["timing"] + 1e-5  # each value is rounded to 6 decimals
        assert isinstance(record["minflt"], (int, float)) and record["minflt"] >= 0
        assert isinstance(record["cpu_s"], (int, float)) and record["cpu_s"] >= 0
