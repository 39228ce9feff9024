#!/usr/bin/env python3
"""Smoke test of the round benchmark at tiny scale.

    python3 roundbench/smoke.py

Runs every workload named in BENCHMARK.json with --smoke (one federation per
pass, a smaller shard_stream population) untraced and traced, and checks
that each run passes its correctness gate and prints exactly the metrics
BENCHMARK.json names, each with its unit and a finite value. End-to-end
metrics must be positive, and each workload's own layers must have been
measured (non-zero). Exits non-zero on the first failed check.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layer metrics that must be non-zero on the workload that exercises them.
MEASURED = {
    "oasis_convnet": ["nn.0.conv2d.fwd_ms", "nn.3.conv2d.bwd_ms",
                      "tensor.im2col.calls_per_client", "attack.audit_ms",
                      "augment.process_ms", "runtime.client_round_ms.t1",
                      "fl.serial_share"],
    "shard_stream": ["ckpt.encode_ms", "ckpt.bytes", "fl.defense_ms",
                     "fl.make_client_ms", "nn.1.dense.fwd_ms"],
    "socket_mlp": ["net.client_step_ms", "net.bytes_per_round",
                   "net.round_latency_ms.p50", "net.useful_frame_ratio",
                   "nn.1.dense.bwd_ms", "tensor.serialize_ms"],
}


def expect(condition, message):
    """A check that stays on under python -O (unlike assert)."""
    if not condition:
        raise AssertionError(message)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and lines,
           f"{workload} trace={trace}: exit {proc.returncode}")
    return json.loads(lines[-1])


def check(workload, trace, result, expected):
    where = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{where}: result keys {sorted(result)}")
    expect(result["correct"] is True, f"{where}: correctness gate failed")
    expect(result["attempted"] >= 1 and result["failed"] == 0,
           f"{where}: attempted {result['attempted']}, "
           f"failed {result['failed']}")
    metrics = result["metrics"]
    expect(set(metrics) == set(expected),
           f"{where}: metrics differ from BENCHMARK.json: "
           f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics[name]
        expect(entry["unit"] == unit, f"{where}: {name} unit {entry['unit']}")
        expect(math.isfinite(entry["value"]), f"{where}: {name} not finite")
        if trace == 0:
            expect(entry["value"] > 0, f"{where}: {name} is not positive")
    if trace == 1:
        for name in MEASURED[workload]:
            expect(metrics[name]["value"] > 0, f"{where}: {name} not measured")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check(workload, trace, run(workload, trace), expected[trace])
            print(f"ok  {workload} trace={trace}", flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
