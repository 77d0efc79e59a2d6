"""The biphase1d benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl

A run starts one fresh single-threaded worker process that imports the
package from ./src, runs an untimed warm-up pass, then timed passes for S
seconds and checks every one of them.  With --trace 0 it also starts
SETUP_SAMPLES fresh processes, half before and half after the worker,
that only import the package and build the config, and reports the
median of all the import-and-config times as setup_s.  With --trace 1 the worker spends half the seconds untraced and
half with spans on, and reports the per-layer metrics.  Processes run one
at a time with BLAS and OpenMP limited to one thread.

A run prints every metric by name and unit, appends its record (seed,
environment, per-pass times and problems) to perfbench/.work/runs.jsonl
or --record, and ends with one JSON line holding "correct", "attempted",
"failed" and "metrics".  --workload all runs every workload untraced and
traced.  --compare reads two record files and prints, per workload and
metric, median, quartiles, sample count, ratio and a verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 4
DEADLINE_S = 170.0  # a run exits within 180 s
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(mode, args, deadline):
    cmd = [sys.executable, str(WORKER), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             env={**os.environ, **SINGLE_THREAD},
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} passed the {DEADLINE_S:g} s deadline") from None
    if out.returncode != 0:
        raise BenchError(f"worker {mode} exited {out.returncode}:\n{out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_one(args, bench):
    """One workload at one trace setting; returns the run record."""
    deadline = time.monotonic() + DEADLINE_S
    # setup samples before and after the measurement, so that they span
    # more of the host's slow and fast phases
    setups = [] if args.trace else [worker("setup", args, deadline)["setup_s"]
                                    for _ in range(SETUP_SAMPLES // 2)]
    res = worker("measure", args, deadline)
    timed = res["passes"]
    problems = [f"pass {i}: {p}" for i, run in enumerate(timed) for p in run["problems"]]
    failed = sum(1 for p in timed if p["problems"])
    metrics = dict(res["metrics"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "mu_minus": res["mu_minus"], "env": res["env"]}
    if args.trace:
        specs = bench["per_layer"]
    else:
        specs = bench["end_to_end"]
        setups += [res["setup_s"]] + [worker("setup", args, deadline)["setup_s"]
                                      for _ in range(SETUP_SAMPLES - len(setups))]
        metrics["setup_s"] = statistics.median(setups)
        record["setup_samples"] = setups
    record.update(correct=not problems, attempted=len(timed), failed=failed,
                  failed_frac=failed / len(timed), problems=problems,
                  pass_wall_s=[p["wall_s"] for p in timed],
                  metrics={m["name"]: metrics[m["name"]] for m in specs},
                  units={m["name"]: m["unit"] for m in specs})
    return record


def report(record):
    env = record["env"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"mu_minus {record['mu_minus']!r} passes {record['attempted']} "
          f"failed {record['failed']} failed_frac {record['failed_frac']:g} "
          f"correct {record['correct']}")
    print(f"env host {env['host']} nproc {env['nproc']} python {env['python']} "
          f"numpy {env['numpy']} scipy {env['scipy']} lapack {env['lapack']} "
          f"cache {env['cache_bytes']} array_bytes {env['array_bytes']} ({env['regime']})")
    for problem in record["problems"]:
        print(f"  FAIL {problem}")
    for name, value in record["metrics"].items():
        print(f"  {name:28s} {value:.6g} {record['units'][name]}")


def append_record(path, record):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", newline="\n") as fh:
        fh.write(json.dumps(record) + "\n")


def result_line(records):
    """The final JSON line; with several records, metric names are
    prefixed by workload and trace setting."""
    prefix = len(records) > 1
    metrics = {}
    for r in records:
        for name, value in r["metrics"].items():
            key = f"{r['workload']}.trace{r['trace']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": r["units"][name]}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


# ---------------------------------------------------------------------------
# compare mode

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(before, after, better, bound):
    """improved / unchanged / worse / unresolved for two sets of runs,
    paired by seed (by order where seeds differ)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(before.values()), statistics.median(after.values())
    common = sorted(set(before) & set(after))
    pairs = ([(before[s], after[s]) for s in common] if common
             else list(zip(before.values(), after.values())))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    q1a, q3a = quartiles(list(before.values()))
    q1b, q3b = quartiles(list(after.values()))
    spread = max((q3a - q1a) / abs(med_a), (q3b - q1b) / abs(med_b))
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (med_b - med_a) < 0
            and abs(med_b - med_a) > q3a - q1a):
        return "improved"
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "worse"
    all_better = all(sign * (b - a) < 0 for a in before.values() for b in after.values())
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def load_records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def compare(path_a, path_b, bench):
    runs_a, runs_b = load_records(path_a), load_records(path_b)
    print(f"before {path_a}  after {path_b}")
    print(f"{'workload':12s} {'metric':28s} {'unit':6s} {'before med [q1, q3] n':>34s} "
          f"{'after med [q1, q3] n':>34s} {'ratio':>7s}  verdict")
    for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        for wl in bench["workloads"]:
            for spec in specs:
                sides = []
                for runs in (runs_a, runs_b):
                    sides.append({r["seed"]: r["metrics"][spec["name"]] for r in runs
                                  if r["workload"] == wl["name"] and r["trace"] == trace
                                  and spec["name"] in r["metrics"]})
                if not all(sides):
                    continue
                cells = []
                for side in sides:
                    vals = list(side.values())
                    q1, q3 = quartiles(vals)
                    cells.append(f"{statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}] {len(vals)}")
                med_a = statistics.median(sides[0].values())
                ratio = statistics.median(sides[1].values()) / med_a if med_a else float("nan")
                status = (verdict(*sides, spec["better"], spec["bound"]) if "bound" in spec
                          else "(no bound)")
                print(f"{wl['name']:12s} {spec['name']:28s} {spec['unit']:6s} {cells[0]:>34s} "
                      f"{cells[1]:>34s} {ratio:7.3f}  {status}")


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=ROOT / "perfbench" / ".work" / "runs.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()

    bench = load_benchmark()
    if args.compare:
        compare(*args.compare, bench)
        return 0
    if not (ROOT / "src" / "biphase1d" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'biphase1d'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if not args.seconds >= 1:
        parser.error("--seconds must be >= 1")

    plan = ([(args.workload, args.trace)] if args.workload != "all"
            else [(w, t) for w in names for t in (0, 1)])
    records = []
    for workload, trace in plan:
        one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
        try:
            record = run_one(one, bench)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        report(record)
        append_record(args.record, record)
        records.append(record)
    print(result_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
