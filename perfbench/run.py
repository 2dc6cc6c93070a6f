"""Closed-loop benchmark of semiflow, one workload per invocation.

    python3 perfbench/run.py --workload props_diag --seed 1 --seconds 20 --trace 0

One caller runs the workload's tasks back to back in this process until
the tasks have taken --seconds, checks every output, and prints the
end-to-end metrics as the last line of standard output (one JSON object).
With --trace 1 it instead runs a fixed number of tasks twice each, plain
and traced, and prints the per-layer metrics and the tracing overhead.
Run it from the repository root; semiflow is imported from ./src.
"""

import os

# one BLAS/OpenMP thread, pinned before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import layer_trace  # noqa: E402  (imports no semiflow code)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("props_diag", "props_dense", "burgers_scenario", "boundary_poly")

# set-up is measured this many more times in fresh interpreters
SETUP_REPEATS = 4
# Times are reported at this reference-probe time: each task (and each
# set-up) is scaled by the probe measured around it.  The machine of
# README.md moves between speed states that change task times by up to
# 1.8x within seconds and drift over minutes; in two batches of 6 and 8
# seeds per workload the scaling lowered the largest run-to-run spread of
# tasks_per_s from 28% to 16%.
PROBE_REFERENCE_S = 0.009


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import semiflow, build the workload, print the wall and "
                        "probe-scaled set-up times and exit (used to repeat the "
                        "set-up measurement in fresh interpreters)")
    return p.parse_args(argv)


def reference_probe():
    """A fixed pure-Python loop that touches no semiflow code; its time tracks
    how fast the machine runs at the moment it is measured."""
    start = time.perf_counter()
    acc = 0
    for k in range(100_000):
        acc += k * k % 7
    return time.perf_counter() - start


def setup_in_fresh_interpreter(args):
    """(raw, scaled) set-up time measured by a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    raw, scaled = done.stdout.split()[-2:]
    return float(raw), float(scaled)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Runner:
    """Runs one workload's tasks and keeps the tallies the result needs."""

    def __init__(self, workload, check_failed):
        self.workload = workload
        self.check_failed = check_failed
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def timed(self, i, call=None):
        """Prepare task i, run it (through call, if given) between two
        reference probes, then check its output.  Returns the task's
        duration and the mean of the two probe times."""
        wl = self.workload
        inputs = wl.prepare(i)
        gc.collect()
        self.attempted += 1
        probe = reference_probe()
        start = time.perf_counter()
        try:
            out = call(wl.task, inputs) if call else wl.task(inputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        else:
            error = None
        duration = time.perf_counter() - start
        probe = 0.5 * (probe + reference_probe())
        if error is not None:
            self.failed += 1
            print(f"task {i} failed: {error!r}", file=sys.stderr)
            return duration, probe
        try:
            wl.check(inputs, out)
        except self.check_failed as exc:
            self.correct = False
            print(f"task {i} output wrong: {exc}", file=sys.stderr)
        return duration, probe


def run_plain(runner, seconds):
    """Tasks back to back until they have taken `seconds` of wall time;
    returns each task's duration and the reference probe time around it."""
    durations, probes = [], []
    i = 0
    while sum(durations) < seconds:
        duration, probe = runner.timed(i)
        durations.append(duration)
        probes.append(probe)
        i += 1
    return durations, probes


def scaled(duration, probe):
    return duration * PROBE_REFERENCE_S / probe


def run_traced(runner, seconds):
    """Each of a fixed number of tasks runs plain, then traced; the task
    count depends on --seconds only, so counts repeat for a seed.  The
    plain and traced totals are scaled like the end-to-end times."""
    n_tasks = max(2, round(seconds / (3.0 * runner.workload.nominal_task_s)))
    tracer = layer_trace.Tracer()
    plain = traced = 0.0

    def in_root_span(task, inputs):
        tracer.install()
        try:
            return tracer.run(layer_trace.ROOT, task, inputs)
        finally:
            tracer.uninstall()

    for i in range(n_tasks):
        plain += scaled(*runner.timed(i))
        traced += scaled(*runner.timed(i, in_root_span))
    return tracer, n_tasks, plain, traced


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "semiflow", "__init__.py")):
        print(f"error: no semiflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        probe = reference_probe()
        start = time.perf_counter()
        import semiflow  # noqa: F401  (timed: set-up includes the import)
        import workloads
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup = time.perf_counter() - start
        setup = (setup, scaled(setup, 0.5 * (probe + reference_probe())))
        if args.setup_only:
            print(repr(setup[0]), repr(setup[1]))
            return 0
        try:
            return measure(args, wl, setup, workloads)
        finally:
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def measure(args, wl, setup, workloads):
    setups = [setup] + [setup_in_fresh_interpreter(args) for _ in range(SETUP_REPEATS)]
    runner = Runner(wl, workloads.CheckFailed)
    # warm-up: caches, lazy imports and the reference code, outside every figure
    warm = Runner(wl, workloads.CheckFailed)
    warm.timed(workloads.WARMUP_INDEX)
    runner.correct = warm.correct

    if args.trace:
        tracer, n_tasks, plain, traced = run_traced(runner, args.seconds)
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in tracer.metrics().items()}
        total = tracer.total_s()
        metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
        metrics["trace.total_s"] = {"value": total, "unit": "s"}
        metrics["trace.outside_s"] = {"value": tracer.self_s[layer_trace.ROOT], "unit": "s"}
        print(f"{n_tasks} tasks, each run plain and traced: plain {plain:.4f} s, "
              f"traced {traced:.4f} s (probe-scaled); the layers' self times sum "
              f"to {total:.6f} s of traced wall time")
        if tracer.absent:
            print("absent from the program: " + ", ".join(tracer.absent))
    else:
        durations, probes = run_plain(runner, args.seconds)
        times = [scaled(d, p) for d, p in zip(durations, probes)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "tasks_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "task_p50_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median([s for _, s in setups]), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        q = quartiles(durations)
        p = quartiles(probes)
        print(f"wall time: {len(durations)} tasks in {sum(durations):.4f} s, "
              f"{len(durations) / sum(durations):.4f} tasks/s, task quartiles "
              f"{q[0]:.4f} {q[1]:.4f} {q[2]:.4f} s")
        print(f"reference probe quartiles {1e3 * p[0]:.3f} {1e3 * p[1]:.3f} "
              f"{1e3 * p[2]:.3f} ms; the reported times are scaled to "
              f"{1e3 * PROBE_REFERENCE_S:.1f} ms")
    print("setup samples (wall, scaled): " + ", ".join(
        f"{w:.4f} {s:.4f}" for w, s in setups) + " s")
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
