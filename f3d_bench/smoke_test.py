#!/usr/bin/env python3
"""Smoke test of f3d_bench (registered with CTest by CMakeLists.txt).

    smoke_test.py <f3d_bench binary> <BENCHMARK.json>

Runs `f3d_bench --smoke` (every workload at toy sizes, untraced then
traced) and checks that each result line is strict JSON with exactly the
metric names and units BENCHMARK.json declares for its mode, that every
check passed, and that bad flags are usage errors (exit 2).
"""

import json
import subprocess
import sys

WORKLOADS = 4


def reject_constant(name):
    raise ValueError("non-finite number " + name)


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    want = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    errors = []

    smoke = subprocess.run([binary, "--smoke"], capture_output=True, text=True, timeout=300)
    if smoke.returncode != 0:
        errors.append("--smoke exited %d: %s" % (smoke.returncode, smoke.stderr[-2000:]))
    lines = [l for l in smoke.stdout.splitlines() if l.startswith("{")]
    if len(lines) != 2 * WORKLOADS:
        errors.append("expected %d results, got %d" % (2 * WORKLOADS, len(lines)))
    for i, line in enumerate(lines):
        try:
            result = json.loads(line, parse_constant=reject_constant)
        except ValueError as e:
            errors.append("result %d is not strict JSON: %s" % (i, e))
            continue
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append("result %d has keys %s" % (i, sorted(result)))
            continue
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want[i % 2]:
            errors.append("result %d metrics differ from BENCHMARK.json: %s"
                          % (i, sorted(set(got.items()) ^ set(want[i % 2].items()))))
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            errors.append("result %d failed its checks: %s" % (i, line[:200]))

    for bad in (["--no-such-flag"], ["--workload", "train", "--seconds", "nan"],
                ["--workload", "nope"], ["--workload", "train", "--trace", "2"]):
        code = subprocess.run([binary] + bad, capture_output=True, timeout=60).returncode
        if code != 2:
            errors.append("%s exited %d, want 2" % (" ".join(bad), code))

    for e in errors:
        print("FAIL:", e)
    print("smoke: %d results, %d failures" % (len(lines), len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
