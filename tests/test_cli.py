import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxcurve
from maxcurve import cli, counting, gf
from maxcurve.catalog import KINDS, divisors, spectrum
from maxcurve.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from maxcurve.curves import params_from_s

SRC = str(Path(maxcurve.__file__).resolve().parents[1])  # the directory holding the package


def results_digest(results: dict) -> str:
    """The first 12 hex digits of the sha256 of a record's `results`."""
    return hashlib.sha256((json.dumps(results, sort_keys=True) + "\n").encode()).hexdigest()[:12]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenus:
    def test_suzuki_cover(self, capsys):
        code, out, _ = run(capsys, "genus", "--family", "suzuki-cover", "--s", "1")
        assert code == EXIT_OK and out.strip() == "196"

    def test_ree_cover(self, capsys):
        code, out, _ = run(capsys, "genus", "--family", "ree-cover", "--s", "1")
        assert code == EXIT_OK and out.strip() == "246051"

    def test_suzuki_base(self, capsys):
        code, out, _ = run(capsys, "genus", "--family", "suzuki-base", "--s", "1")
        assert code == EXIT_OK and out.strip() == "14"

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "genus", "--family", "suzuki-cover", "--s", "2", "--json")
        rec = json.loads(out)
        assert rec["results"]["genus"] == 15376
        assert rec["command"] == "genus"

    def test_bad_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["genus", "--family", "hermitian", "--s", "1"])
        assert exc.value.code == EXIT_USAGE


class TestCount:
    def test_verify_maximal_ok(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "suzuki-cover", "--s", "1",
                           "--ext", "4", "--verify-maximal")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["results"]["n_points"] == 29185
        assert rec["results"]["is_maximal"] is True

    def test_ree_quadratic(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "ree-cover", "--s", "1", "--ext", "2")
        rec = json.loads(out)
        assert code == EXIT_OK and rec["results"]["n_points"] == 19684

    def test_degree_five_unsupported(self, capsys):
        # ree-cover at s = 1 counts in GF(3^(3 ext)); gf stops at GF(3^18)
        for ext in (7, 0, -1):
            code, out, err = run(capsys, "count", "--family", "ree-cover", "--s", "1", "--ext", str(ext))
            assert code == EXIT_USAGE and out == ""
            assert err.splitlines() == [f"error: unsupported field GF(3^{3 * ext})"]

    def test_elements_evaluated_in_results(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "ree-cover", "--s", "1", "--ext", "3")
        assert code == EXIT_OK
        assert json.loads(out)["results"]["elements_evaluated"] == 29

    def test_verify_maximal_failure_exit(self, capsys):
        # base-field count of the cover is not at the bound
        code, out, _ = run(capsys, "count", "--family", "suzuki-cover", "--s", "1",
                           "--ext", "2", "--verify-maximal")
        assert code == EXIT_VERIFY

    def test_json_round_trip_and_determinism(self, capsys):
        _, out1, _ = run(capsys, "count", "--family", "suzuki-cover", "--s", "1", "--ext", "1")
        _, out2, _ = run(capsys, "count", "--family", "suzuki-cover", "--s", "1", "--ext", "1")
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["wall_time"] >= 0
        for rec in (r1, r2):
            del rec["timing"]
            del rec["wall_time"]
            del rec["stages"]
        assert r1 == r2

    def test_threads_and_stages_beside_results(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "ree-cover", "--s", "1", "--ext", "3",
                           "--threads", "2")
        rec = json.loads(out)
        assert code == EXIT_OK and rec["threads"] == 2
        assert sorted(rec["stages"]) == ["kernel", "reduction", "tables"]
        assert all(v >= 0 for v in rec["stages"].values())
        assert sum(rec["stages"].values()) <= rec["wall_time"] + 1e-5
        assert not {"threads", "stages"} & set(rec["results"])

    @pytest.mark.parametrize("family,s,ext,digest", [
        ("suzuki-cover", 1, 1, "09d06881a5d4"),
        ("suzuki-cover", 1, 2, "53dbe6cae35b"),
        ("suzuki-cover", 1, 4, "edaff7d417c2"),
        ("suzuki-base", 1, 4, "89fce44cb293"),
        ("suzuki-cover", 2, 4, "4f4d54a495e5"),
        ("suzuki-base", 2, 4, "a8d8ab6790eb"),
        ("ree-cover", 1, 1, "276d5319ae30"),
        ("ree-cover", 1, 2, "ebf6b5a41b2b"),
        ("ree-cover", 1, 3, "9baf59df27d2"),
        ("ree-base", 1, 3, "42608289004f"),
    ])
    def test_results_pinned(self, capsys, family, s, ext, digest):
        """The count `results` rest on the field tables: a changed table
        changes these hashes (the degree-6 ones are in test_counting)."""
        code, out, _ = run(capsys, "count", "--family", family, "--s", str(s), "--ext", str(ext))
        assert code == EXIT_OK
        assert results_digest(json.loads(out)["results"]) == digest

    def test_hasse_weil_breach_is_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "hasse_weil_target", lambda ell, g: 0)
        code, out, err = run(capsys, "count", "--family", "suzuki-cover", "--s", "1", "--ext", "4")
        assert code == EXIT_INTERNAL and out == ""
        assert "exceeds the Hasse-Weil bound" in err


class TestThreads:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_flag(self, capsys, value):
        code, out, err = run(capsys, "count", "--family", "suzuki-cover", "--s", "1",
                             "--ext", "1", "--threads", value)
        assert code == EXIT_USAGE and out == ""
        assert err.splitlines() == [f"error: --threads must be a positive integer, got {int(value)}"]

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_environment(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MAXCURVE_THREADS", value)
        code, out, err = run(capsys, "count", "--family", "suzuki-cover", "--s", "1", "--ext", "1")
        assert code == EXIT_USAGE and out == ""
        assert err.splitlines() == [f"error: MAXCURVE_THREADS must be a positive integer, got {value!r}"]

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXCURVE_THREADS", "abc")
        code, out, _ = run(capsys, "count", "--family", "suzuki-cover", "--s", "1",
                           "--ext", "1", "--threads", "1")
        assert code == EXIT_OK and json.loads(out)["results"]["n_points"] == 65

    @pytest.mark.parametrize("flag,env,message", [
        (["--threads", "0"], None, "error: --threads must be a positive integer, got 0"),
        ([], "abc", "error: MAXCURVE_THREADS must be a positive integer, got 'abc'"),
    ])
    def test_run_counts_script(self, flag, env, message):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_counts.py"
        environ = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        environ.pop("MAXCURVE_THREADS", None)
        if env is not None:
            environ["MAXCURVE_THREADS"] = env
        proc = subprocess.run([sys.executable, str(script), *flag], capture_output=True, text=True, env=environ)
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert proc.stderr.splitlines() == [message]


class TestSpectrum:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "suzuki-cover", "--s", "1",
                           "--format", "csv")
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert lines[0] == "kind,params,order,delta,genus"
        assert any(line.startswith("SZ-B2,") for line in lines[1:])
        row = lines[1].split(",")
        assert len(row) == 5 and row[2].isdigit() and row[4].isdigit()

    def test_csv_baseline_genera_on_stderr(self, capsys, tmp_path):
        baseline = tmp_path / "known.txt"
        baseline.write_text("# already known\n196\n14\n0\n1\n2\n3\n")
        _, csv, _ = run(capsys, "spectrum", "--family", "suzuki-cover", "--s", "1", "--format", "csv")
        code, out, err = run(capsys, "spectrum", "--family", "suzuki-cover", "--s", "1",
                             "--format", "csv", "--baseline", str(baseline))
        assert code == EXIT_OK and out == csv
        assert err.splitlines() == ["6", "8", "16", "19", "28", "40", "45", "92"]

    @pytest.mark.parametrize("family,line,exit_code", [
        ("suzuki-cover", 'table1: {"field": "F_2^12", "contained": false, "missing": [13]}', EXIT_VERIFY),
        ("ree-cover", 'table1: {"field": "F_3^18", "contained": true, "missing": []}', EXIT_OK),
    ])
    def test_csv_table_check_on_stderr(self, capsys, family, line, exit_code):
        _, csv, _ = run(capsys, "spectrum", "--family", family, "--s", "1", "--format", "csv")
        code, out, err = run(capsys, "spectrum", "--family", family, "--s", "1",
                             "--format", "csv", "--check-table1")
        assert code == exit_code and out == csv
        assert err.splitlines() == [line]

    def test_json_with_table_check_ree(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "ree-cover", "--s", "1",
                           "--check-table1")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["results"]["table1"]["contained"] is True
        assert rec["results"]["table1"]["missing"] == []

    def test_table_check_failure_exit(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "suzuki-cover", "--s", "1",
                           "--check-table1")
        rec = json.loads(out)
        assert code == EXIT_VERIFY
        assert rec["results"]["table1"]["missing"] == [13]

    def test_baseline_difference(self, capsys, tmp_path):
        baseline = tmp_path / "known.txt"
        baseline.write_text("# already known\n196\n14\n0\n1\n2\n3\n")
        code, out, _ = run(capsys, "spectrum", "--family", "suzuki-cover", "--s", "1",
                           "--baseline", str(baseline))
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["results"]["new_vs_baseline"] == [6, 8, 16, 19, 28, 40, 45, 92]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("make,message", [
        (lambda path: None, "cannot read baseline"),
        (lambda path: path.mkdir(), "cannot read baseline"),
        (lambda path: path.write_text("196\n14x\n"), "line 2: '14x' is not a nonnegative integer"),
        (lambda path: path.write_text("# known\n196\n\n-3\n"), "line 4: '-3' is not a nonnegative integer"),
        (lambda path: path.write_bytes(b"196\n\xff\n"), "not UTF-8 text"),
    ], ids=["missing", "directory", "malformed", "negative", "binary"])
    def test_bad_baseline_before_sweep(self, capsys, monkeypatch, tmp_path, fmt, make, message):
        from maxcurve import catalog

        baseline = tmp_path / "known.txt"
        make(baseline)

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the baseline was read")

        monkeypatch.setattr(catalog, "spectrum", no_sweep)
        code, out, err = run(capsys, "spectrum", "--family", "suzuki-cover", "--s", "1",
                             "--format", fmt, "--baseline", str(baseline))
        assert code == EXIT_USAGE and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err

    def test_stages_beside_results(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "ree-cover", "--s", "1")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert sorted(rec["stages"]) == ["sort", "sweep"]
        assert all(v >= 0 for v in rec["stages"].values())
        assert sum(rec["stages"].values()) <= rec["timing"] + 1e-5
        assert "stages" not in rec["results"]

    @pytest.mark.parametrize("family,s,n_subgroups,n_specs,n_records", [
        ("suzuki-cover", 1, 33, 66, 54),
        ("suzuki-cover", 7, 1133, 9064, 1796),
        ("ree-cover", 3, 1261, 7566, 3204),
    ])
    def test_json_counts_what_was_swept(self, capsys, family, s, n_subgroups, n_specs, n_records):
        # every H meets every divisor n of m, and a spec is a record or rejected
        code, out, _ = run(capsys, "spectrum", "--family", family, "--s", str(s))
        results = json.loads(out)["results"]
        assert code == EXIT_OK
        assert (results["n_subgroups"], results["n_specs"], results["n_records"]) == (n_subgroups, n_specs, n_records)
        params = params_from_s(family, s)
        assert n_specs == n_subgroups * len(divisors(params.m))
        assert n_specs == n_records + len(spectrum(family, params).invalid)
        _, again, _ = run(capsys, "spectrum", "--family", family, "--s", str(s))
        assert json.loads(again)["results"] == results

    @pytest.mark.parametrize("family,s,digest", [
        ("suzuki-cover", 1, "4f1f0a8e42f0"),
        ("suzuki-cover", 2, "5f2ca1c7e3f1"),
        ("suzuki-cover", 7, "358e47a8a064"),
        ("ree-cover", 1, "5441aa139fa8"),
        ("ree-cover", 3, "abe5bd0f3480"),
    ])
    def test_csv_bytes_pinned(self, capsys, family, s, digest):
        code, out, _ = run(capsys, "spectrum", "--family", family, "--s", str(s), "--format", "csv")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest()[:12] == digest

    def test_sweep_spectra_script_bytes_pinned(self, tmp_path):
        # the only output with the certified and mismatch columns
        script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_spectra.py"
        environ = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, str(script), "--out", str(tmp_path)],
                              capture_output=True, text=True, env=environ)
        assert proc.returncode == 0, proc.stderr
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == {
            "f212.csv": "4ce071b7ce48c689d6c350d087024bcd649db1687a19222e5d1eca6b9a7b219a",
            "f220.csv": "a628ec70de4d2529cb72e486e926a172991204d34b971705bbdfc81aa9851ba7",
            "f318.csv": "d0b86b6e515fb5f7a4f45318b9437e9ee65630e4f41f439237bb7bfad444e7c4",
        }

    def test_same_bytes_under_optimize(self):
        # python -O strips assert statements: accepting or rejecting a spec
        # must not rest on one
        environ = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        entry = "import sys; from maxcurve.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["spectrum", "--family", "ree-cover", "--s", "1", "--format", "csv"]
        plain, optimized = (subprocess.run([sys.executable, *flags, "-c", entry, *argv],
                                           capture_output=True, env=environ)
                            for flags in ([], ["-O"]))
        assert plain.returncode == optimized.returncode == EXIT_OK, optimized.stderr
        assert plain.stdout == optimized.stdout
        assert hashlib.sha256(plain.stdout).hexdigest()[:12] == "5441aa139fa8"

    @pytest.mark.parametrize("argv,digest", [
        (["count", "--family", "ree-cover", "--s", "1", "--ext", "3"], "9baf59df27d2"),
        (["verify-group", "--s", "1", "--json"], "c399470caabc"),
    ])
    def test_same_results_under_optimize(self, argv, digest):
        # a count and the group's rows must not rest on an assert statement
        # either; their timings differ from run to run, their results do not
        environ = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        entry = "import sys; from maxcurve.cli import main; sys.exit(main(sys.argv[1:]))"
        plain, optimized = (subprocess.run([sys.executable, *flags, "-c", entry, *argv],
                                           capture_output=True, env=environ)
                            for flags in ([], ["-O"]))
        assert plain.returncode == optimized.returncode == EXIT_OK, optimized.stderr
        results = json.loads(plain.stdout)["results"]
        assert json.loads(optimized.stdout)["results"] == results
        assert results_digest(results) == digest

    @pytest.mark.parametrize("family,n_kinds", [("suzuki-cover", 11), ("ree-cover", 21)])
    def test_progress_per_kind_past_the_threshold(self, capsys, monkeypatch, family, n_kinds):
        # a sweep under PROGRESS_AFTER_S prints nothing on stderr; past it,
        # one line per kind, and stdout is the same
        _, quiet, err = run(capsys, "spectrum", "--family", family, "--s", "1", "--format", "csv")
        assert err == ""
        monkeypatch.setattr(cli, "PROGRESS_AFTER_S", 0.0)
        code, out, err = run(capsys, "spectrum", "--family", family, "--s", "1", "--format", "csv")
        assert code == EXIT_OK and out == quiet
        params = params_from_s(family, 1)
        kinds = [kind.id for kind in KINDS.values() if kind.char == params.p]
        lines = err.splitlines()
        assert len(lines) == len(kinds) == n_kinds
        assert [line.split()[1] for line in lines] == kinds
        res = spectrum(family, params)
        assert lines[-1].startswith(f"spectrum: {kinds[-1]} swept, {res.n_subgroups} H and "
                                    f"{len(res.records)} records so far, ")
        assert lines[-1].endswith(" s")

    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--family", "suzuki-cover", "--s", "1", "--threads", "2"])
        assert exc.value.code == EXIT_USAGE

    def test_no_reference_row_for_s3(self, capsys):
        code, _, err = run(capsys, "spectrum", "--family", "suzuki-cover", "--s", "3",
                           "--check-table1")
        assert code == EXIT_USAGE


class TestVerifyGroup:
    def test_desk_scale_guard(self, capsys):
        code, _, err = run(capsys, "verify-group", "--s", "2")
        assert code == EXIT_USAGE
        assert "desk scale" in err

    def test_full_run_json(self, capsys):
        code, out, _ = run(capsys, "verify-group", "--s", "1", "--json")
        rec = json.loads(out)
        assert code == EXIT_OK
        assert rec["results"]["all_ok"] is True
        checks = {row["check"]: row for row in rec["results"]["rows"]}
        assert checks["orbit sizes"]["measured"] == [65, 29120]
        assert checks["stabilizer closure order"]["measured"] == 448
        assert checks["order-5 tau products (aggregate)"]["measured"] == 20
        # the rows are deterministic; the stage times sit beside them
        assert results_digest(rec["results"]) == "c399470caabc"
        assert sorted(rec["stages"]) == ["closure", "generators", "orbits", "order_search", "places", "rows"]
        assert all(v >= 0 for v in rec["stages"].values())
        assert sum(rec["stages"].values()) <= rec["timing"] + 1e-5

    def test_text_rows(self, capsys):
        code, out, err = run(capsys, "verify-group", "--s", "1")
        lines = out.splitlines()
        assert code == EXIT_OK and err == ""
        assert len(lines) == 17  # the 16 rows of the JSON record, then the verdict
        assert all(line.startswith("[ok ] ") for line in lines[:-1])
        assert lines[0] == "[ok ] place count: 29185 (expected 29185)"
        assert lines[-2] == "[ok ] stabilizer closure order: 448 (expected 448)"
        assert lines[-1] == "all checks passed"

    def test_same_rows_without_tables(self, capsys, monkeypatch):
        # the action layer reads no exp/log table: on digit arithmetic, where
        # FieldSpec.tables() raises, the rows are unchanged
        monkeypatch.setattr(gf, "TABLE_LIMIT", 0)
        code, out, _ = run(capsys, "verify-group", "--s", "1", "--json")
        assert code == EXIT_OK
        assert results_digest(json.loads(out)["results"]) == "c399470caabc"


class TestHermitian:
    def test_suzuki(self, capsys):
        code, out, _ = run(capsys, "hermitian", "--family", "suzuki-cover", "--s", "1",
                           "--group-order", "9")
        rec = json.loads(out)
        assert rec["results"]["delta"] == 520
        assert rec["results"]["in_window"] is True

    def test_ree_rh_identity(self, capsys):
        code, out, _ = run(capsys, "hermitian", "--family", "ree-cover", "--s", "1",
                           "--group-order", "784")
        rec = json.loads(out)
        assert rec["results"]["delta"] == 1594404
        assert rec["results"]["genus_from_delta"] == 246051
        assert rec["results"]["excluded"] is True

    @pytest.mark.parametrize("family,s,first,last,digest", [
        ("suzuki-cover", 1, 1, 8 + 3, "c961dda9c59a"),
        ("suzuki-cover", 2, 1, 32 + 3, "61b80a495d55"),
        ("ree-cover", 1, 27**2, 27**2 + 2 * 27 + 5, "8f3ce96ed4c2"),
        ("ree-cover", 2, 243**2, 243**2 + 2 * 243 + 5, "abb474f9518f"),
    ])
    def test_results_pinned(self, capsys, family, s, first, last, digest):
        # every order around the window, with the excluded orders inside it
        results = []
        for order in range(first, last + 1):
            code, out, _ = run(capsys, "hermitian", "--family", family, "--s", str(s),
                               "--group-order", str(order))
            assert code == EXIT_OK
            results.append(json.loads(out)["results"])
        assert results_digest(results) == digest

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_group_order_not_positive(self, capsys, order):
        code, out, err = run(capsys, "hermitian", "--family", "suzuki-cover", "--s", "1",
                             "--group-order", order)
        assert code == EXIT_USAGE and out == ""
        assert err.splitlines() == [f"error: group order must be a positive integer, got {order}"]
