#!/usr/bin/env python3
"""Runs interleaved parent/change round-benchmark pairs and appends one row
set per workload to the round trajectory file.

    python3 bench/round_pairs.py --parent ../parent-checkout --change . \
        --workload oasis_convnet --pairs 4 --seconds 25 \
        --trace-seed 1 --claim augment.process_ms --claim nn.1.relu.fwd_ms

Each side is a checkout holding roundbench/ and src/; its roundbench/run.py
builds that checkout's sources, so run the script once with a short
--seconds to warm both builds if their timings matter. Pair i (1-based) runs
seed i on both sides, parent first when i is odd and change first when i is
even, each with --trace 0. --trace-seed adds one --trace 1 run per side
after the pairs. The row set carries the seeds and pair order, the median
and quartiles of round_ms.p50, the median of every other end-to-end metric
(each with its per-run values), the change's win count on round_ms.p50, and
the --claim rows of the traced runs. Rows append to
bench_out/BENCH_round.json (or --out) under the change's commit.

Each side also records, per run, two host-contention readings next to the
wall-clock metrics: `host.steal_s`, the machine-wide steal time the run
overlapped (the /proc/stat `cpu` steal column, read before and after), and
`host.child_cpu_s`, the user + system CPU seconds the run's processes used
(the RUSAGE_CHILDREN delta). A run with high steal, or with a low CPU share
of its wall time, ran on a contended host.
"""
import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

END_TO_END = ("setup_s", "round_ms.p50", "round_ms.p90", "samples_per_s",
              "time_to_target_s", "peak_rss_mb")
HOST = ("host.steal_s", "host.child_cpu_s")
# Rows every traced row set reports, besides the --claim ones.
TRACE_ROWS = ("runtime.client_round_ms.t1", "augment.process_ms",
              "tensor.gemm.calls_per_client", "tensor.gemm.gflop_per_client")


def steal_seconds():
    """Machine-wide steal time so far: the `cpu` line's 8th column."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def child_cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_side(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "roundbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    steal0, cpu0 = steal_seconds(), child_cpu_seconds()
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    steal, cpu = steal_seconds() - steal0, child_cpu_seconds() - cpu0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"round_pairs: {' '.join(cmd)} failed ({out.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"round_pairs: {checkout} seed {seed}: correctness gate")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update({"host.steal_s": round(steal, 2),
                    "host.child_cpu_s": round(cpu, 2)})
    return metrics


def summarize(runs):
    p50 = [r["round_ms.p50"] for r in runs]
    q1, q3 = p50[0], p50[0]
    if len(p50) > 1:
        q1, _, q3 = statistics.quantiles(p50, n=4, method="inclusive")
    side = {"round_ms.p50": {"median": statistics.median(p50), "q1": q1,
                             "q3": q3, "iqr": q3 - q1, "runs": p50}}
    for name in END_TO_END + HOST:
        if name != "round_ms.p50":
            values = [r[name] for r in runs]
            side[name] = {"median": statistics.median(values), "runs": values}
    return side


def commit_of(checkout):
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    return out.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--claim", action="append", default=[])
    parser.add_argument("--parent-commit")
    parser.add_argument("--change-commit")
    parser.add_argument("--host", default="")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "bench_out", "BENCH_round.json"))
    args = parser.parse_args()

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    pairs = []
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        pairs.append({"seed": i, "order": list(order)})
        for side in order:
            m = run_side(sides[side], args.workload, i, args.seconds, 0)
            runs[side].append(m)
            print(f"pair {i} {side}: round_ms.p50 {m['round_ms.p50']:.1f}"
                  f" steal {m['host.steal_s']:.1f} s"
                  f" cpu {m['host.child_cpu_s']:.1f} s", file=sys.stderr)

    wins = sum(c["round_ms.p50"] < p["round_ms.p50"]
               for p, c in zip(runs["parent"], runs["change"]))
    row = {
        "commit": args.change_commit or commit_of(args.change),
        "parent": args.parent_commit or commit_of(args.parent),
        "workload": args.workload,
        "host": args.host,
        "protocol": {"seconds": args.seconds, "trace": 0, "pairs": pairs},
        "parent_runs": summarize(runs["parent"]),
        "change_runs": summarize(runs["change"]),
        "change_wins_round_ms_p50": f"{wins}/{args.pairs}",
    }
    if args.trace_seed is not None:
        # An end-to-end claim is read off the pairs above; a traced run
        # reports only the per-layer rows.
        rows = list(TRACE_ROWS) + [c for c in args.claim
                                   if c not in TRACE_ROWS + END_TO_END]
        traced = {}
        for side in ("parent", "change"):
            m = run_side(sides[side], args.workload, args.trace_seed,
                         args.seconds, 1)
            traced[side] = {k: m[k] for k in rows}
        row["trace"] = {"seed": args.trace_seed, **traced}

    data = {"bench": "roundbench_pairs", "rows": []}
    if os.path.isfile(args.out):
        with open(args.out) as f:
            data = json.load(f)
    data["rows"].append(row)
    with open(args.out, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
    print(json.dumps(row, indent=1))


if __name__ == "__main__":
    main()
