"""One benchmark process: set up a workload cold, then run its passes.

    python3 perfbench/worker.py setup <workload>
    python3 perfbench/worker.py rss <workload>
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace>

`setup` imports the package and builds default_modulus and tables() for
every field the workload touches, then prints {"setup_s": ...}.  `rss` does
the set-up and one pass and prints the process's peak resident memory.
`run` does the set-up, one warm-up pass, then reference timings alternating
with timed passes for <seconds>, and prints one JSON summary line.  With
<trace> 1 untraced and traced passes alternate instead, and the summary adds
the per-layer numbers.  run.py starts
this script; it is not meant to be called by hand.
"""

import time

T_START = time.perf_counter()

import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402

import maxcurve.action  # noqa: E402,F401
import maxcurve.catalog  # noqa: E402,F401
import maxcurve.cli  # noqa: E402,F401
from maxcurve import gf  # noqa: E402

import tracing  # noqa: E402
from workloads import PER_LAYER, WORKLOADS, compare  # noqa: E402

TRACE_DIR = ROOT / ".bench_trace"
MAX_FAILURE_NOTES = 20
REF_TABLE = 1 << 19  # 4 MiB of int64: past L2, like the field-table gathers
REF_ROUNDS = 4


def set_up(workload) -> None:
    for p, k in workload.fields:
        gf.default_modulus(p, k)
        gf.make_field(p, k).tables()


class Runner:
    """Runs passes of one workload and checks every output against its pin."""

    def __init__(self, workload, seed: int):
        self.jobs = workload.jobs()
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one_pass(self) -> float:
        """Run every job once, in a seed-determined order; returns the time
        spent inside the program's calls."""
        gc.collect()
        elapsed = 0.0
        for job in self.rng.sample(self.jobs, len(self.jobs)):
            t0 = time.perf_counter()
            try:
                raw = job.run()
            except Exception as exc:  # a raised exception fails every check of the job
                elapsed += time.perf_counter() - t0
                self._fail(job, list(job.pinned), f"{type(exc).__name__}: {exc}")
                continue
            elapsed += time.perf_counter() - t0
            try:
                wrong = compare(job.pinned, job.observe(raw))
            except Exception as exc:  # output missing or malformed
                wrong = list(job.pinned)
                self._note(job, f"cannot read output: {type(exc).__name__}: {exc}")
            self._fail(job, wrong)
        return elapsed

    def _fail(self, job, wrong: list[str], why: str = "") -> None:
        self.attempted += len(job.pinned)
        self.failed += len(wrong)
        if wrong:
            self._note(job, f"wrong {wrong}" + (f" ({why})" if why else ""))

    def _note(self, job, text: str) -> None:
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(f"{job.name}: {text}")


def reference(min_seconds: float) -> float:
    """Seconds per round of a fixed gather-and-xor over a 4 MiB table, run
    for at least REF_ROUNDS rounds and `min_seconds`.  It is the benchmark's
    own work, which no change to the program touches, timed alternately with
    the passes: on a shared machine whose speed drifts by tens of percent
    over minutes, pass time relative to it stays steady."""
    rng = numpy.random.default_rng(0)
    table = rng.integers(0, 1 << 20, size=REF_TABLE)
    idx = rng.integers(0, REF_TABLE, size=REF_TABLE)
    acc = table[idx]  # untimed: brings the table into cache
    rounds = 0
    t0 = time.perf_counter()
    while rounds < REF_ROUNDS or time.perf_counter() - t0 < min_seconds:
        rounds += 1
        acc ^= table[(idx + rounds) % REF_TABLE]
    return (time.perf_counter() - t0) / rounds


def timed_passes(runner: Runner, seconds: float) -> tuple[list[float], list[float]]:
    """Alternate reference timings, each a quarter as long as the last pass
    or longer, with passes for `seconds`."""
    times: list[float] = []
    refs: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        refs.append(reference(0.25 * times[-1] if times else 0.0))
        times.append(runner.one_pass())
    return times, refs


def traced_setup(workload, tracer: tracing.Tracer) -> dict:
    tracer.install("maxcurve")
    try:
        set_up(workload)
    finally:
        tracer.uninstall()
    incl = tracing.inclusive_times(tracer.spans)
    table_bytes = 0
    for p, k in workload.fields:
        exp, log = gf.make_field(p, k).tables()
        table_bytes += exp.nbytes + log.nbytes
    tracer.reset()
    return {"gf.default_modulus_s": incl.get("gf.default_modulus", 0.0),
            "gf.tables_s": incl.get("gf.FieldSpec.tables", 0.0),
            "gf.table_bytes": table_bytes}


def traced_pass(runner: Runner, tracer: tracing.Tracer) -> tuple[dict, list]:
    tracer.reset()
    tracer.install("maxcurve")
    try:
        t = runner.one_pass()
    finally:
        tracer.uninstall()
    m = tracing.pass_metrics(tracer.spans, tracer.counts, t)
    m["trace.pass_s"] = t
    return m, tracer.spans


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "parent", "start_s", "end_s"], "spans": spans}, fh,
                  separators=(",", ":"))


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        tracer = tracing.Tracer()
        setup_metrics = traced_setup(workload, tracer)
    else:
        set_up(workload)
    runner = Runner(workload, seed)
    runner.one_pass()  # warm-up: caches filled, lazy set-up done
    out = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    if not trace:
        out["passes"], out["refs"] = timed_passes(runner, seconds)
    else:
        # untraced and traced passes alternate, so that drift in machine
        # speed does not show up as tracing overhead
        untraced, per_pass = [], []
        start = time.perf_counter()
        while not per_pass or time.perf_counter() - start < seconds:
            untraced.append(runner.one_pass())
            m, spans = traced_pass(runner, tracer)
            per_pass.append(m)
        layer = {name: statistics.median(m.get(name, 0.0) for m in per_pass) for name in PER_LAYER}
        layer.update(setup_metrics)
        layer["trace.untraced_pass_s"] = statistics.median(untraced)
        layer["trace.overhead_s"] = layer["trace.pass_s"] - layer["trace.untraced_pass_s"]
        layer_sum = statistics.median(sum(m[f"{x}.self_s"] for x in tracing.LAYERS) for m in per_pass)
        layer["trace.unaccounted_s"] = layer["trace.untraced_pass_s"] - layer_sum
        out["passes"] = untraced
        out["traced_passes"] = [m["trace.pass_s"] for m in per_pass]
        out["layer"] = layer
        write_spans(TRACE_DIR / f"{workload.name}-seed{seed}.json.gz", spans)
    out.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    return out


def main(argv: list[str]) -> int:
    mode, workload = argv[0], WORKLOADS[argv[1]]
    if mode == "setup":
        set_up(workload)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
    elif mode == "rss":
        set_up(workload)
        Runner(workload, 0).one_pass()
        print(json.dumps({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
    else:
        seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
        print(json.dumps(run(workload, seed, seconds, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
