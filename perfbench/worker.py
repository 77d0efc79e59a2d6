"""The benchmark's side of one fresh process; run.py starts it.

    worker.py setup   --workload W --seed N
    worker.py measure --workload W --seed N --seconds S --trace 0|1

``setup`` imports biphase1d and builds the workload's configs, and prints
the seconds that took.  ``measure`` does the same, runs one untimed
warm-up pass, then timed passes for the given seconds (with --trace 1:
half untraced, half traced) and prints one JSON object as its last line.
"""

import argparse
import json
import os
import resource
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"


def load(workload, seed):
    """Import the package from ./src and build the pass configs; returns
    (package, workloads module, workload, configs, seconds)."""
    t0 = time.perf_counter()
    import biphase1d as b  # the fresh-process import is what setup_s measures
    import workloads
    wl = workloads.WORKLOADS[workload]
    cfgs = workloads.configs(b, wl, seed, WORK / workload)
    seconds = time.perf_counter() - t0
    src = ROOT / "src"
    if src not in Path(b.__file__).resolve().parents:
        raise SystemExit(f"biphase1d imported from {b.__file__}, not from {src}")
    return b, workloads, wl, cfgs, seconds


def timed_passes(budget, one_pass):
    """Passes until the next one would end past ``budget`` seconds (at
    least one), and the peak resident memory after the first pass (later
    passes add only allocator noise to it)."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - start + last <= budget:
        t0 = time.perf_counter()
        results.append(one_pass())
        last = time.perf_counter() - t0
        if len(results) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return results, peak_rss_mb


def end_to_end(passes):
    """Medians over passes.  Failed passes keep their wall time; a metric
    no pass could measure reads 0 (the run is then marked incorrect)."""
    per_step, rate = [], []
    for p in passes:
        macro = [c for c in p.calls if c.scheme == "macro"]
        if macro:
            per_step.append(1e3 * sum(c.seconds for c in macro) / sum(c.steps for c in macro))
        if p.calls:
            rate.append(sum(c.cells * c.steps for c in p.calls)
                        / sum(c.seconds for c in p.calls))
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "macro_ms_per_step": statistics.median(per_step) if per_step else 0.0,
        "cell_steps_per_s": statistics.median(rate) if rate else 0.0,
    }


def environment(b, cells):
    import numpy
    import scipy

    def cache(level):
        out = subprocess.run(["getconf", level], capture_output=True, text=True)
        return int(out.stdout) if out.returncode == 0 and out.stdout.strip().isdigit() else None

    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    l3 = cache("LEVEL3_CACHE_SIZE")
    array_bytes = 8 * cells
    return {
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "biphase1d": b.__version__,
        "lapack": f"{lapack.get('name')} {lapack.get('version')}",
        "cache_bytes": {"L1d": cache("LEVEL1_DCACHE_SIZE"), "L2": cache("LEVEL2_CACHE_SIZE"),
                        "L3": l3},
        "array_bytes": array_bytes,
        # a bandwidth figure needs arrays of at least 4x the last-level cache
        "regime": "bandwidth" if l3 and array_bytes >= 4 * l3 else "in-cache",
    }


def measure(args):
    import probes

    b, workloads, wl, cfgs, setup_s = load(args.workload, args.seed)
    watch = probes.Watch()
    watch.install()
    warm = workloads.configs(b, wl, args.seed, WORK / "warmup", warmup=True)
    workloads.run_pass(b, warm, watch)  # untimed and unchecked

    budget = args.seconds / 2 if args.trace else args.seconds
    passes, peak_rss_mb = timed_passes(budget, lambda: workloads.run_pass(b, cfgs, watch))
    result = {
        "setup_s": setup_s,
        "mu_minus": [cfg.mat.mu_minus for _, cfg in cfgs],
        "passes": [{"wall_s": p.wall_s, "problems": p.problems} for p in passes],
        "env": environment(b, max(cfg.cells for _, cfg in cfgs)),
    }
    if not args.trace:
        result["metrics"] = {**end_to_end(passes), "peak_rss_mb": peak_rss_mb}
    else:
        tracer = probes.Tracer()
        tracer.install()

        execute = tracer.wrap(probes.ROOT_SPAN, workloads.execute)

        def traced_pass():
            tracer.pass_id += 1
            return workloads.run_pass(b, cfgs, watch, execute)

        traced, _ = timed_passes(args.seconds - budget, traced_pass)
        layers = probes.layer_metrics(tracer.spans)
        macro_calls = [c for p in traced for c in p.calls if c.scheme == "macro"]
        layers["macro.clamp_events"] = sum(c.state.clamp_events for c in macro_calls) / len(traced)
        layers["macro.guard_events"] = sum(c.state.guard_events for c in macro_calls) / len(traced)
        layers["cli.bytes_written"] = statistics.mean(p.bytes_written for p in traced)
        layers["trace_overhead_frac"] = (layers["traced_wall_s"]
                                         / statistics.mean(p.wall_s for p in passes) - 1.0)
        result["metrics"] = layers
        result["passes"] += [{"wall_s": p.wall_s, "problems": p.problems, "traced": True}
                             for p in traced]
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.txt")
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "setup":
        print(json.dumps({"setup_s": load(args.workload, args.seed)[4]}))
    else:
        measure(args)


if __name__ == "__main__":
    main()
