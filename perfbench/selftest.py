#!/usr/bin/env python3
"""Self-test of the repo benchmark.

Runs every workload at tiny size (--tiny), untraced and traced, and asserts:
  * every metric BENCHMARK.json names prints, by name with its unit, both in
    the JSON result line and in the human-readable report;
  * failed_pct is 0 and the run reports correct;
  * the traced run's spans nest (each child inside its parent, sharing its
    request id) and every span's self time is >= 0;
  * modeled and counted per-layer metrics repeat exactly for a repeated
    seed, and the modeled fidelity is the same in every workload;
  * usage errors exit 2 without a result line.

Usage (from the root of a checkout):  python3 perfbench/selftest.py
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench-out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics that are exact counts (every modeled.* metric too): a
# repeated seed must reproduce them bit for bit.
EXACT = {"plan.replay_active_pct", "serving.fill_ratio", "serving.packed_pct",
         "serving.fused_launches", "serving.problems_retried",
         "sim.launches_per_request", "sim.simt_insts", "sim.smem_accesses",
         "sim.bank_conflict_mult", "sim.l2_sector_accesses",
         "sim.l2_read_hit_pct", "sim.dram_tx", "sim.alloc_reuse_pct",
         "sim.bytes_reserved_mb", "sim.records_retained",
         "sim.regions_retained"}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print(p.stdout[-2000:], p.stderr[-2000:])
        failures.append(f"{workload} trace={trace}: exit {p.returncode}")
        return None, p.stdout
    return json.loads(lines[-1]), p.stdout


def check_metrics(workload, trace, result, report):
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    expect(set(got) == {s["name"] for s in specs},
           f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for s in specs:
        m = got.get(s["name"], {})
        expect(m.get("unit") == s["unit"],
               f"{workload}: {s['name']} unit {m.get('unit')} != {s['unit']}")
        pat = rf"^\s+{re.escape(s['name'])}\s+\S+\s+{re.escape(s['unit'])}\s"
        expect(re.search(pat, report, re.M) is not None,
               f"{workload}: report does not print {s['name']} with its unit")
    expect(result["correct"] is True, f"{workload} trace={trace}: not correct")
    expect(result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace}: failed {result['failed']}")
    fp = re.search(r"^\s+failed_pct\s+(\S+)\s+%", report, re.M)
    expect(fp is not None and float(fp.group(1)) == 0.0,
           f"{workload} trace={trace}: failed_pct is not 0")


def check_spans(workload):
    path = OUT / f"trace-{workload}-seed1.jsonl"
    spans = [json.loads(l) for l in path.read_text().splitlines()]
    expect(len(spans) > 0, f"{workload}: no spans")
    names = {s["name"] for s in spans}
    child_ns = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        expect(s["end_ns"] >= s["start_ns"], f"{workload}: span {s['id']} never closed")
        if s["parent"]:
            p = by_id.get(s["parent"])
            expect(p is not None, f"{workload}: span {s['id']} has no parent")
            if p is None:
                continue
            expect(p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"],
                   f"{workload}: span {s['id']} ({s['name']}) outside its parent")
            expect(p["request"] == s["request"],
                   f"{workload}: span {s['id']} request id differs from parent")
            child_ns[p["id"]] = child_ns.get(p["id"], 0) + s["end_ns"] - s["start_ns"]
    for s in spans:
        self_ns = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        expect(self_ns >= 0, f"{workload}: span {s['id']} self time {self_ns} < 0")
    want = {"workload.generate", "check.reference", "sim.analyze"}
    want |= ({"serving.submit", "serving.flush", "serving.get"}
             if workload == "serve_stream" else {"plan.build", "plan.run"})
    expect(want <= names, f"{workload}: spans missing {sorted(want - names)}")


def exact(name):
    return name.startswith("modeled.") or name in EXACT


def main():
    fidelity = {}
    for w in [x["name"] for x in SPEC["workloads"]]:
        r0, rep0 = run(w, 0)
        if r0:
            check_metrics(w, 0, r0, rep0)
            fidelity[w] = r0["metrics"]["fidelity_mape_pct"]["value"]
        r1, rep1 = run(w, 1)
        if r1:
            check_metrics(w, 1, r1, rep1)
            check_spans(w)
        r2, _ = run(w, 1)
        if r1 and r2:
            for name, m in r1["metrics"].items():
                if exact(name):
                    expect(m["value"] == r2["metrics"][name]["value"],
                           f"{w}: {name} differs across repeated seed "
                           f"({m['value']} vs {r2['metrics'][name]['value']})")
        print(f"{w}: checked")
    expect(len(set(fidelity.values())) == 1,
           f"fidelity differs across workloads: {fidelity}")

    bad = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", "nope", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
    expect(bad.returncode == 2 and bad.stdout.strip() == "",
           "an unknown workload must exit 2 without a result")

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
