"""Alternating paired benchmark runs of a parent checkout and this tree.

    python3 scripts/bench_pairs.py PARENT_DIR --workload burgers_scenario \\
        --pairs 10 --seed0 301 --out BENCH.json

Pair k runs the benchmark command of BENCHMARK.json (perfbench/run.py)
once in PARENT_DIR and once in this tree, both with seed seed0 + k; the
parent goes first in even pairs and second in odd ones, so a drift of the
machine's speed does not favour one side.  Each run's end-to-end metrics,
its correct/attempted/failed tallies and its whole wall time (set-up
repeats, probes and checks included) are recorded.  Each tree is named by
git describe and, when it has uncommitted changes, by the sha256 of
git diff HEAD, so a dirty measured tree can be told apart from another.

The summary gives, for every end-to-end metric of BENCHMARK.json, both
sides' median and quartiles, the change of the median in the metric's
better direction, the parent's interquartile range and the pairs the
change won; it also gives each side's median whole-run wall time.
--workload may be repeated; --out is rewritten after each workload, so an
interrupted campaign keeps the workloads it finished.

--cold-start N times the short runs, each in a fresh interpreter on the
tree's src/: round k (k < N) runs `import semiflow`, then the command
line on each scenarios/*.json of this tree, once in each tree back to
back, the parent first in even rounds and second in odd ones.  Each
target's median wall times, their change and the rounds the change won
go under the cold_start key of --out.

--trace-seed S runs the benchmark command once per tree and workload with
--trace 1 --seconds 5 --seed S, after the workload's pairs (--pairs 0 runs
none), and puts every count metric of the two runs (the call counts,
windows, Picard iterations, bisections, f rows, select_step candidates)
under the workload's counters key, each with an equal flag: counts that
do not depend on the machine, so a change that keeps every window shows
them all equal.

--tier1 N runs the Tier-1 command (pytest over the tree, its src/ on
PYTHONPATH, with --durations=0) N times per tree, the parent first in
even rounds and second in odd ones, and records each side's median whole
wall time and the median call duration of each acceptance test test_A*
under the tier1 key.  With --cold-start or --tier1, --workload may be left
out.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# seconds a traced run is given: the task count of --trace 1 follows from it
TRACE_SECONDS = 5
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
# a --durations line of an acceptance test's call phase
_ACCEPTANCE_CALL = re.compile(r"^\s*([0-9.]+)s\s+call\s+\S*::(test_A\d+\w*)\s*$")


def _perfbench_run():
    """perfbench/run.py as a module (it imports layer_trace from its folder;
    loading it pins the BLAS thread variables to 1, as every run does)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (q1, median, q3): the benchmark's own function, so both summaries agree
quartiles = _perfbench_run().quartiles


def summarize(records, end_to_end):
    """Summary of one workload's run records.

    records: dicts with pair, side ("parent" or "change"), wall_s, correct,
    attempted, failed and metrics (name -> value).  end_to_end: the
    BENCHMARK.json entries (name, better, bound).  A pair counts only when
    both of its runs report the metric.
    """
    by_pair = {}
    for r in records:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [p for _, p in sorted(by_pair.items()) if set(p) == set(SIDES)]
    walls = {s: [r["wall_s"] for r in records if r["side"] == s] for s in SIDES}
    out = {
        "pairs": len(pairs),
        "all_correct": all(r["correct"] for r in records),
        "failed": {s: sum(r["failed"] for r in records if r["side"] == s) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r in records if r["side"] == s)
                      for s in SIDES},
        "wall_s": walls,
        "wall_median_s": {s: statistics.median(w) if w else None
                          for s, w in walls.items()},
        "metrics": {},
    }
    for entry in end_to_end:
        name, sign = entry["name"], 1.0 if entry["better"] == "higher" else -1.0
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs if name in p["parent"]["metrics"]
                and name in p["change"]["metrics"]]
        if not both:
            continue
        sides = {s: quartiles([v[i] for v in both]) for i, s in enumerate(SIDES)}
        q1, med, q3 = sides["parent"]
        gain = sign * (sides["change"][1] - med)
        out["metrics"][name] = {
            "better": entry["better"],
            **{s: {"q1": q[0], "median": q[1], "q3": q[2]} for s, q in sides.items()},
            "gain": gain,
            "gain_rel": gain / med if med else float("nan"),
            "parent_iqr": q3 - q1,
            "wins": sum(sign * (c - p) > 0.0 for p, c in both),
            "bound": entry.get("bound"),
        }
    return out


def format_summary(workload, summary):
    """Printable lines of one workload's summary."""
    lines = [f"{workload}: {summary['pairs']} pairs, all correct: "
             f"{summary['all_correct']}, failed parent/change "
             f"{summary['failed']['parent']}/{summary['failed']['change']}"]
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        lines.append(
            f"  {name} ({m['better']} is better): parent {p['median']:.4g} "
            f"[{p['q1']:.4g}, {p['q3']:.4g}], change {c['median']:.4g} "
            f"[{c['q1']:.4g}, {c['q3']:.4g}], gain {m['gain']:+.4g} "
            f"({100.0 * m['gain_rel']:+.1f}%), parent IQR {m['parent_iqr']:.4g}, "
            f"wins {m['wins']}/{summary['pairs']}")
    for side in SIDES:
        walls = " ".join(f"{w:.1f}" for w in summary["wall_s"][side])
        median = summary["wall_median_s"][side]
        lines.append(f"  whole-run wall s, {side}: {walls}"
                     + (f" (median {median:.1f})" if median is not None else ""))
    return lines


def summarize_cold_start(records):
    """Per target ("import" or a scenario name), each side's median wall
    time, the change of the median (positive when the change is faster)
    and the rounds the change won, over the rounds that timed the target
    on both sides.  records: dicts with round, side, target and wall_s."""
    by_target = {}
    for r in records:
        by_target.setdefault(r["target"], {}).setdefault(r["round"], {})[r["side"]] = r["wall_s"]
    out = {}
    for target, rounds in by_target.items():
        both = [w for _, w in sorted(rounds.items()) if set(w) == set(SIDES)]
        if not both:
            continue
        med = {s: statistics.median(w[s] for w in both) for s in SIDES}
        out[target] = {"rounds": len(both), **{f"{s}_median_s": med[s] for s in SIDES},
                       "gain_s": med["parent"] - med["change"],
                       "wins": sum(w["change"] < w["parent"] for w in both)}
    return out


def format_cold_start(summary):
    """Printable lines of a cold-start summary."""
    return [f"  cold {target}: parent {m['parent_median_s']:.3f} s, change "
            f"{m['change_median_s']:.3f} s, gain {m['gain_s']:+.3f} s, "
            f"wins {m['wins']}/{m['rounds']}" for target, m in summary.items()]


def run_cold(tree, target, out_dir):
    """Wall time of one fresh interpreter on tree's src/ that imports
    semiflow (target "import") or runs the command line on tree's
    scenarios/<target>.json."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    scenario = tree / "scenarios" / f"{target}.json"
    argv = [sys.executable] + (["-c", "import semiflow"] if target == "import" else
                               ["-m", "semiflow", str(scenario), "--out", out_dir, "--quiet"])
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {done.returncode}")
    return wall


def cold_start(trees, n_rounds):
    """The cold-start records of n_rounds rounds: the import and every
    scenario of this tree, each run on both sides back to back."""
    targets = ["import"] + sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))
    records = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        for k in range(n_rounds):
            for target in targets:
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    wall = run_cold(trees[side], target, os.path.join(tmp, side, target))
                    records.append({"round": k, "side": side, "target": target,
                                    "wall_s": wall})
            print(f"cold start round {k}: " + ", ".join(
                f"{r['side']} {r['target']} {r['wall_s']:.3f}"
                for r in records if r["round"] == k), flush=True)
    return records


def run_bench(tree, bench, argv):
    """(last JSON line, wall time) of one run of bench's command in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    start = time.perf_counter()
    done = subprocess.run(bench["command"] + argv, cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"benchmark run in {tree} exited {done.returncode}")
    return json.loads(lines[-1]), wall


def run_once(tree, bench, workload, seed):
    """One run of bench's command in tree, for bench's run_seconds: its
    tallies and metric values plus the wall time."""
    result, wall = run_bench(tree, bench, ["--workload", workload, "--seed", str(seed),
                                           "--seconds", str(bench["run_seconds"])])
    return {"wall_s": wall, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def compare_counters(results):
    """{name: {"parent": value, "change": value, "equal": bool}} over every
    metric with unit "count" in either side's result (a metric one side
    lacks reads None there and is not equal)."""
    names = sorted({name for r in results.values()
                    for name, m in r["metrics"].items() if m["unit"] == "count"})
    out = {}
    for name in names:
        values = {s: results[s]["metrics"].get(name, {}).get("value") for s in SIDES}
        out[name] = {**values, "equal": values["parent"] is not None
                     and values["parent"] == values["change"]}
    return out


def trace_counters(trees, bench, workload, seed):
    """compare_counters of one traced run per tree."""
    argv = ["--workload", workload, "--seed", str(seed), "--trace", "1",
            "--seconds", str(TRACE_SECONDS)]
    return compare_counters({s: run_bench(trees[s], bench, argv)[0] for s in SIDES})


def acceptance_durations(text):
    """{test name: call seconds} of the test_A* lines in pytest --durations
    output."""
    out = {}
    for line in text.splitlines():
        m = _ACCEPTANCE_CALL.match(line)
        if m:
            out[m.group(2)] = float(m.group(1))
    return out


def run_tier1(tree):
    """Whole wall time, last output line and acceptance call durations of
    one Tier-1 run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "returncode": done.returncode,
            "result": lines[-1] if lines else "",
            "acceptance": acceptance_durations(done.stdout)}


def summarize_tier1(records):
    """Per side: the rounds, the median whole wall, and each acceptance
    test's median call duration.  records: dicts with side, wall_s and
    acceptance (test name -> seconds)."""
    out = {}
    for side in SIDES:
        runs = [r for r in records if r["side"] == side]
        if not runs:
            continue
        names = sorted({n for r in runs for n in r["acceptance"]},
                       key=lambda n: int(re.match(r"test_A(\d+)", n).group(1)))
        out[side] = {"rounds": len(runs),
                     "wall_median_s": statistics.median(r["wall_s"] for r in runs),
                     "acceptance_median_s": {
                         n: statistics.median(r["acceptance"][n] for r in runs
                                              if n in r["acceptance"]) for n in names}}
    return out


def tier1(trees, n_rounds):
    """The Tier-1 records of n_rounds rounds, each tree once per round."""
    records = []
    for k in range(n_rounds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            rec = run_tier1(trees[side])
            rec.update(round=k, side=side)
            records.append(rec)
            print(f"tier1 round {k} {side}: wall {rec['wall_s']:.1f} s, "
                  f"{rec['result']}", flush=True)
    return records


def _git(tree, *argv):
    """stdout of git argv in tree, or None where it has no repository."""
    try:
        done = subprocess.run(["git", *argv], cwd=tree, capture_output=True)
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def describe(tree):
    """{"describe": git describe --always --dirty, "diff_sha256": sha256 of
    git diff HEAD for a dirty tree, else None}; None without a repository."""
    name = _git(tree, "describe", "--always", "--dirty")
    if name is None:
        return None
    name = name.decode().strip()
    diff = _git(tree, "diff", "HEAD") if name.endswith("-dirty") else None
    return {"describe": name,
            "diff_sha256": hashlib.sha256(diff).hexdigest() if diff is not None else None}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--cold-start", type=int, default=0, metavar="N",
                   help="also time N rounds of fresh-interpreter imports and "
                        "command-line scenario runs per tree")
    p.add_argument("--trace-seed", type=int, default=None, metavar="S",
                   help="also compare the count metrics of one traced run per "
                        "tree and workload, with seed S")
    p.add_argument("--tier1", type=int, default=0, metavar="N",
                   help="also time N rounds of the Tier-1 tests per tree")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if not args.workload and not args.cold_start and not args.tier1:
        p.error("give --workload, --cold-start or --tier1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    workloads = {}
    report = {"parent": describe(trees["parent"]), "change": describe(ROOT),
              "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                          "python": platform.python_version()},
              "workloads": workloads}
    if args.cold_start:
        records = cold_start(trees, args.cold_start)
        summary = summarize_cold_start(records)
        report["cold_start"] = {"rounds": args.cold_start, "summary": summary,
                                "runs": records}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print("\n".join(format_cold_start(summary)), flush=True)
    if args.tier1:
        records = tier1(trees, args.tier1)
        report["tier1"] = {"rounds": args.tier1, "summary": summarize_tier1(records),
                           "runs": records}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        for side, m in report["tier1"]["summary"].items():
            print(f"  tier1 {side}: median wall {m['wall_median_s']:.1f} s, " + ", ".join(
                f"{n.split('_')[1]} {v:.2f}" for n, v in m["acceptance_median_s"].items()),
                flush=True)
    for workload in args.workload:
        records = []
        for k in range(args.pairs):
            seed = args.seed0 + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                rec = run_once(trees[side], bench, workload, seed)
                rec.update(pair=k, seed=seed, side=side, first=side == order[0])
                records.append(rec)
                print(f"{workload} pair {k} seed {seed} {side}: "
                      f"wall {rec['wall_s']:.1f} s, correct {rec['correct']}, "
                      f"failed {rec['failed']}, " + ", ".join(
                          f"{n} {v:.4g}" for n, v in rec["metrics"].items()),
                      flush=True)
        entry = workloads[workload] = {"seconds": bench["run_seconds"]}
        if records:
            entry.update(summary=summarize(records, bench["end_to_end"]), runs=records)
            print("\n".join(format_summary(workload, entry["summary"])), flush=True)
        if args.trace_seed is not None:
            counters = trace_counters(trees, bench, workload, args.trace_seed)
            entry["counters"] = {"seed": args.trace_seed, "seconds": TRACE_SECONDS,
                                 "all_equal": all(c["equal"] for c in counters.values()),
                                 "metrics": counters}
            unequal = [n for n, c in counters.items() if not c["equal"]]
            print(f"  {workload} traced counters (seed {args.trace_seed}): "
                  f"{len(counters) - len(unequal)}/{len(counters)} equal"
                  + (f"; differ: {', '.join(unequal)}" if unequal else ""), flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
