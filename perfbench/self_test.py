#!/usr/bin/env python3
"""Smoke-scale self-test of the benchmark.

Run from the repository root:  python3 perfbench/self_test.py

For every workload in BENCHMARK.json it runs perfbench/run.py at
--scale smoke and checks that:
  - the timed run (--trace 0) passes its gates and its JSON line carries
    exactly the end_to_end metrics of BENCHMARK.json, each with its unit;
  - the traced run (--trace 1) passes its gates, carries exactly the
    per_layer metrics, each with its unit, and writes the machines'
    registry, spans and MTTR rows as JSONL (--jsonl);
  - every end-to-end metric the benchmark names, virtual ones included,
    is printed by name with its unit, and the traced run repeats the
    timed run's virtual metrics and allocated words exactly;
  - the seed is honoured: the same seed gives the same inputs, virtual
    metrics and allocated words; another seed gives other inputs.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

PRINTED_E2E = {
    "setup_s": "s", "host_s": "s", "host_rel": "ref", "alloc_mwords": "Mwords", "peak_heap_mb": "MB",
    "goodput_mbs": "MB/s", "kill_overhead_pct": "%", "recovery_ms": "ms",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "latency_max_ms": "ms",
    "ops_failed_share": "ratio",
}
VIRTUAL = ["goodput_mbs", "kill_overhead_pct", "recovery_ms", "latency_p50_ms",
           "latency_p99_ms", "latency_max_ms", "ops_failed_share"]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


JSONL = os.path.join("_build", "perfbench-self-test.jsonl")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    if trace:
        cmd += ["--jsonl", JSONL]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def printed(lines):
    """name -> (value text, unit) for every '  name value unit' line."""
    out = {}
    for line in lines:
        m = re.match(r"^  (\S+)\s+(\S+) (\S+)$", line)
        if m:
            out[m.group(1)] = (m.group(2), m.group(3))
    return out


def line_with(lines, prefix):
    return next((l for l in lines if l.startswith(prefix)), None)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        code, lines, result = run(name, 5, 0)
        check(code == 0 and result is not None and result["correct"], name + ": timed run correct")
        if result is None:
            continue
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == e2e, name + ": JSON carries exactly the end_to_end metrics with their units")
        shown = printed(lines)
        for metric, unit in PRINTED_E2E.items():
            check(metric in shown and shown[metric][1] == unit,
                  "%s: prints %s with unit %s" % (name, metric, unit))
        check(line_with(lines, "host: commit=") is not None and "cores=" in line_with(lines, "host: "),
              name + ": records commit and core count")
        check(line_with(lines, "host drift: ref_cpu_ms=") is not None, name + ": records host drift")

        code, tlines, tresult = run(name, 5, 1)
        check(code == 0 and tresult is not None and tresult["correct"], name + ": traced run correct")
        if tresult is not None:
            got = {k: v["unit"] for k, v in tresult["metrics"].items()}
            check(got == layer, name + ": JSON carries exactly the per_layer metrics with their units")
            same = [m for m in VIRTUAL if printed(tlines).get(m) != shown.get(m)]
            check(not same, name + ": traced and timed runs agree on virtual metrics %s" % same)
            words = sum(float(m.group(1)) for m in
                        (re.match(r"^span \S+ +host \S+ s  minor words (\d+)$", l) for l in tlines) if m)
            check(round(words) == round(result["metrics"]["alloc_mwords"]["value"] * 1e6),
                  name + ": traced pass allocates exactly the timed run's alloc_mwords")
            with open(JSONL) as f:
                kinds = {json.loads(l)["type"] for l in f if l.strip()}
            os.remove(JSONL)
            check({"meta", "counter", "histogram", "span", "mttr"} <= kinds,
                  name + ": traced run exports registry, spans and MTTR through Obs.Export")

        _, again, aresult = run(name, 5, 0)
        check(line_with(again, "inputs:") == line_with(lines, "inputs:")
              and [printed(again).get(m) for m in VIRTUAL] == [shown.get(m) for m in VIRTUAL]
              and aresult is not None
              and aresult["metrics"]["alloc_mwords"] == result["metrics"]["alloc_mwords"],
              name + ": same seed, same inputs, virtual metrics and allocated words")
        _, other, _ = run(name, 6, 0)
        check(line_with(other, "inputs:") != line_with(lines, "inputs:")
              and line_with(other, "perfbench ").endswith("seed=6 scale=smoke trace=0"),
              name + ": another seed, other inputs")
    print("self-test: %s" % ("OK" if not failures else "%d check(s) failed" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
