#!/usr/bin/env python3
"""Write a benchmark record: run perfbench/run.py untraced and traced for
the given workloads and seeds, and save the medians as BENCH_<sha>.json.

    python3 scripts/bench_record.py --workload spectra_wide --seeds 1 2 3 4 5
    python3 scripts/bench_record.py --root ../parent --root . --workload spectra_wide

Each --root is a checkout whose own perfbench/run.py is run from its root.
With several roots the runs alternate root by root for each seed and trace
setting, the first root changing from seed to seed, so that drift of the
machine falls on every root alike.  Each root gets one record in --out
(default: the current directory).  A record holds:
- the git sha of the checkout;
- the git tree id of its src/ as measured, equal to `git rev-parse
  <commit>:src` of any commit that holds the same sources, and whether it
  differs from the src/ of the sha;
- nproc, the machine, and the Python and numpy versions that the benchmark
  reported;
- per workload, the median and the runs of every end-to-end (--trace 0) and
  per-layer (--trace 1) metric, and the check counts;
- `verify_group_stages`: the median `timing`, `stages`, `cpu_s` (the
  `ru_utime + ru_stime` delta of the process over the whole command, its
  output included) and `minflt` (minor page faults, the `ru_minflt` delta)
  of `maxcurve verify-group --s 1 --json`;
- `spectrum_stages`: the same for each wide spectrum and for ree-cover s=1,
  the reference row that takes most of a spectra_table1 pass, split in
  `sweep` and `sort`;
- `count_stages`: the same for each degree-6 Ree count on one thread, split
  in `tables`, `kernel` and `reduction`;
- `vs_first_root`, in the record of every root after the first: per
  workload and end-to-end metric, the ratio of this root's median to the
  first root's, and the seeds on which this root did better, by the metric's
  `better` in BENCHMARK.json (ties count for neither).  With roots (parent,
  parent clone, change) the clone's entry is the A/A spread.
The stage records are taken after the benchmark runs, in STAGE_ROUNDS
rounds.  Each round runs every command of STAGE_COMMANDS once in each root,
the first root changing from round to round as for the benchmark runs: a
fresh process per command and root, which makes one unrecorded warm-up run
and STAGE_RUNS recorded ones.  The medians are over the runs of all rounds.
A record is named BENCH_<sha>.json, or BENCH_<sha>+<src tree>.json when the
measured src/ differs from that of the sha.  A root that measures the same
sources as an earlier root, such as a second clone of the parent run as a
same-tree control, gets `-root<i>` appended, i its place among the roots.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SHORT = 12
STAGE_ROUNDS = 5
STAGE_RUNS = 4
# (record key, name within it or None for a key that holds one command's
# medians, maxcurve command): verify-group, the wide spectra and ree-cover
# s=1 in spectrum's default JSON format, and the degree-6 Ree counts over
# F_{3^18}, which no benchmark workload runs
STAGE_COMMANDS = [
    ("verify_group_stages", None, ["verify-group", "--s", "1", "--json"]),
    *(("spectrum_stages", f"{family} s={s}", ["spectrum", "--family", family, "--s", str(s)])
      for family, s in (("suzuki-cover", 7), ("ree-cover", 3), ("ree-cover", 1))),
    *(("count_stages", f"{family} s=1 ext=6", ["count", "--family", family, "--s", "1", "--ext", "6", "--threads", "1"])
      for family in ("ree-cover", "ree-base")),
]
# one JSON record of the maxcurve command argv[2:] per line on stdout, all in
# one process after a warm-up run, each with the CPU seconds (user + sys) and
# the minor page faults of its run as `cpu_s` and `minflt`
STAGES_LOOP = """
import contextlib, io, json, resource, sys
from maxcurve import cli
for i in range(int(sys.argv[1]) + 1):
    out = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF)
    with contextlib.redirect_stdout(out):
        cli.main(sys.argv[2:])
    after = resource.getrusage(resource.RUSAGE_SELF)
    record = dict(json.loads(out.getvalue()), minflt=after.ru_minflt - before.ru_minflt,
                  cpu_s=after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    if i:
        print(json.dumps(record))
"""


def git(root: Path, *args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True, text=True,
                          env=env).stdout.strip()


def checkout_id(root: Path) -> dict:
    """The sha of the checkout, the tree id of its src/ as it is on disk
    (untracked, not ignored files included), and whether that differs from
    the src/ of the sha."""
    sha = git(root, "rev-parse", "HEAD")
    with tempfile.TemporaryDirectory() as tmp:
        # a private index, so that the checkout's own index stays untouched
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git(root, "read-tree", "HEAD", env=env)
        git(root, "add", "-A", "src", env=env)
        src_tree = git(root, "write-tree", "--prefix=src/", env=env)
    return {"sha": sha, "dirty": src_tree != git(root, "rev-parse", "HEAD:src"), "src_tree": src_tree}


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run; its header fields and its JSON result."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{seconds:g}", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {root}: run.py {workload} seed {seed} trace {trace} exited with "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    header = {}
    for line in lines[:-1]:
        if line.startswith("# sha="):
            header = dict(field.split("=", 1) for field in line[2:].split() if "=" in field)
    return {"header": header, "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    """Median and runs of every metric, plus the check counts."""
    names = runs[0]["result"]["metrics"]
    return {
        "checks_attempted": sum(r["result"]["attempted"] for r in runs),
        "checks_failed": sum(r["result"]["failed"] for r in runs),
        "metrics": {name: {"median": statistics.median(r["result"]["metrics"][name]["value"] for r in runs),
                           "unit": runs[0]["result"]["metrics"][name]["unit"],
                           "runs": [r["result"]["metrics"][name]["value"] for r in runs]}
                    for name in names},
    }


def stage_medians(records: list[dict]) -> dict:
    """The median `timing`, the median of each of the `stages` and the
    median `cpu_s` and `minflt` of the given command records."""
    return {
        "runs": len(records),
        "timing": statistics.median(r["timing"] for r in records),
        "cpu_s": statistics.median(r["cpu_s"] for r in records),
        "minflt": statistics.median(r["minflt"] for r in records),
        "stages": {name: statistics.median(r["stages"][name] for r in records) for name in records[0]["stages"]},
    }


def command_runs(root: Path, command: list[str], runs: int) -> list[dict]:
    """The records of `runs` runs of the maxcurve command in one process,
    after a warm-up run, on the sources of the checkout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", STAGES_LOOP, str(runs), *command], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {root}: {command[0]} exited with {proc.returncode}: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def rotated(roots: list[Path], i: int) -> list[Path]:
    """The roots in the order of round i: the first root changes from round
    to round."""
    return roots[i % len(roots):] + roots[:i % len(roots)]


def stage_records(roots: list[Path], commands: list[tuple], rounds: int, runs: int) -> dict:
    """{root: {record key: medians, or {name: medians}}} of the commands, a
    list like STAGE_COMMANDS, run round by round in every root."""
    pooled = {(root, key, name): [] for root in roots for key, name, _ in commands}
    for i in range(rounds):
        for key, name, command in commands:
            for root in rotated(roots, i):
                pooled[root, key, name] += command_runs(root, command, runs)
    out = {root: {} for root in roots}
    for (root, key, name), records in pooled.items():
        if name is None:
            out[root][key] = stage_medians(records)
        else:
            out[root].setdefault(key, {})[name] = stage_medians(records)
    return out


def versus(first: dict, other: dict, better: dict[str, str]) -> dict:
    """{workload: {metric: ratio of medians and seeds better}} of the
    `workloads` of one record against those of the first root's, over the
    end-to-end metrics named in `better` ({name: "lower" or "higher"});
    the runs of both records are in seed order."""
    out = {}
    for w, entry in other.items():
        out[w] = {}
        for name, metric in entry["end_to_end"]["metrics"].items():
            if name not in better:
                continue
            base = first[w]["end_to_end"]["metrics"][name]
            sign = 1 if better[name] == "lower" else -1
            out[w][name] = {
                "ratio": metric["median"] / base["median"] if base["median"] else None,
                "better_seeds": sum(sign * (b - m) > 0 for m, b in zip(metric["runs"], base["runs"])),
                "seeds": len(metric["runs"]),
            }
    return out


def record_names(ids: list[dict]) -> list[str]:
    """The record name of each root's checkout_id, in root order."""
    names = []
    for i, ident in enumerate(ids, 1):
        name = ident["sha"][:SHORT] + (f"+{ident['src_tree'][:SHORT]}" if ident["dirty"] else "")
        names.append(f"{name}-root{i}" if name in names else name)
    return names


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, action="append", help="checkout to measure (repeatable; default: this one)")
    ap.add_argument("--workload", action="append", help="workload (repeatable; default: every one in BENCHMARK.json)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args()
    roots = [root.resolve() for root in args.root or [REPO]]
    bench = json.loads((roots[0] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    ids = {root: checkout_id(root) for root in roots}
    runs = {(root, w, trace): [] for root in roots for w in workloads for trace in (0, 1)}
    for w in workloads:
        for i, seed in enumerate(args.seeds):
            for trace in (0, 1):
                for root in rotated(roots, i):
                    runs[root, w, trace].append(run_bench(root, w, seed, seconds, trace))
                    print(f"{root}: {w} seed {seed} trace {trace} done", file=sys.stderr)
    stages = stage_records(roots, STAGE_COMMANDS, STAGE_ROUNDS, STAGE_RUNS)

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    args.out.mkdir(parents=True, exist_ok=True)
    first = None
    for root, name in zip(roots, record_names([ids[root] for root in roots])):
        ident = ids[root]
        header = runs[root, workloads[0], 0][0]["header"]
        record = {
            **ident,
            "nproc": int(header.get("nproc", os.cpu_count())),
            "python": header.get("python"),
            "numpy": header.get("numpy"),
            "machine": header.get("machine"),
            "seeds": args.seeds,
            "seconds": seconds,
            "workloads": {w: {"end_to_end": summarize(runs[root, w, 0]), "per_layer": summarize(runs[root, w, 1])}
                          for w in workloads},
            **stages[root],
        }
        if first is None:
            first = record["workloads"]
        else:
            record["vs_first_root"] = versus(first, record["workloads"], better)
        path = args.out / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
