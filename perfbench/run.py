"""maxcurve benchmark: times each paper claim's computation, checks every
output against pinned values, and prints one JSON result line.

    python3 perfbench/run.py --workload counts_suzuki --seed 1 --seconds 14 --trace 0

Run from the root of a checkout.  With --trace 0 the result holds the
end-to-end metrics: set-up time (median of fresh interpreters started one
at a time), median and tail pass time relative to a fixed reference
computation timed alternately with the passes, peak memory of a fresh
process that sets up and runs one pass, and the share of checks that
passed.  With --trace 1 it holds
the per-layer metrics of a traced run instead.  Lines before the last one
describe the machine and the samples.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
DEADLINE_S = 170.0  # the whole command must end within 180 s


def tail(values: list[float]) -> tuple[float, int]:
    """(p90 of the values, interpolated, and the number of samples beyond
    it).  A fixed percentile keeps the tail steady from run to run; the
    count says how many samples it rests on."""
    if len(values) < 2:
        return values[0], 0
    value = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return value, sum(v > value for v in values)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cache_sizes() -> str:
    """L2/L3 sizes of cpu0, read-only from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = []
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                sizes.append(f"L{level}={(idx / 'size').read_text().strip()}")
    except OSError:
        pass
    return " ".join(sizes) or "unknown"


def child(args: list[str], deadline: float) -> dict:
    """Run worker.py with `args`; returns its last stdout line as JSON."""
    env = dict(os.environ, MAXCURVE_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "maxcurve" / "__init__.py").is_file():
        print(f"error: no maxcurve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else [
            child(["setup", args.workload], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
        rss_kb = None if args.trace else child(["rss", args.workload], deadline)["peak_rss_kb"]
        res = child(["run", args.workload, str(args.seed), str(args.seconds), str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = res["passes"]
    tail_value, beyond = tail(passes)
    print(f"# maxcurve benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# sha={git_sha()} nproc={os.cpu_count()} python={res['python']} numpy={res['numpy']} "
          f"{cache_sizes()} machine={platform.machine()}")
    print(f"# samples: setup={len(setups)} passes={len(passes)} pass_tail=p90 "
          f"({beyond} beyond) checks={res['attempted']}"
          + (f" traced_passes={len(res['traced_passes'])}" if args.trace else ""))
    for note in res["failures"]:
        print(f"# FAILED {note}")

    if args.trace:
        layer = res["layer"]
        print(f"# tracing overhead {layer['trace.overhead_s']:.4f} s per pass; layer self times leave "
              f"{layer['trace.unaccounted_s']:.4f} s of the untraced pass unaccounted")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        ref = statistics.median(res["refs"])
        print(f"# raw pass time: median {statistics.median(passes):.4f} s, tail {tail_value:.4f} s; "
              f"reference median {ref:.4f} s")
        values = {
            "setup_s": statistics.median(setups),
            "pass_rel": statistics.median(passes) / ref,
            "pass_tail_rel": tail_value / ref,
            "peak_rss_mb": rss_kb * 1024 / 1e6,
            "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
