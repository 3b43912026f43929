#!/usr/bin/env python3
"""Regression gate for the simulator's modeled performance.

Runs a bench binary with --json at the baseline's recorded problem size and
compares every (method, m, key_value) headline metric against the committed
baseline, failing on relative drift beyond the tolerance.  With --sites the
per-site counter slices are compared too (matched by label, exact integer
comparison regardless of tolerance) -- that is the tolerance-0 gate on the
table4 stage-breakdown baseline.

The simulator is fully deterministic, so drift means the cost model or an
implementation changed; rerun

    build/bench/table5_rates --n <log2_n> --trials <trials> \
        --json bench/baselines/table5_rates_n14.json

and commit the new file together with the change that explains it.

Reports carry a schema_version; a baseline written by a different schema is
rejected (regenerate it) rather than silently mis-compared.

The `record` mode runs a bench the same way but, instead of comparing,
appends one JSONL line (git sha, schema version, host threads, headline
metrics, request-latency percentiles when the bench emits a telemetry
timeline) to bench/history/<bench>.jsonl -- the cross-PR trajectory
tools/bench_history.py summarizes.

Usage: check_bench.py <bench-binary> <baseline.json> [tolerance] [--sites]
       check_bench.py record <bench-binary> [--history-dir <dir>]
                      [--n <log2>] [--trials <k>]
"""

import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Must match kReportSchemaVersion in src/sim/metrics.hpp.
# v3: benches report host wall-clock (host_ms / host_keys_per_sec); these
# fields vary run to run and are never compared by this checker.
# v4: reports carry the device sub-allocator stats block ("allocator") and
# result rows record the concrete method that ran ("method_selected").
# v5: bench host timing excludes the warm-up trial and adds host_ms_min;
# telemetry timelines and history records carry the same stamp.
# v6: reports carry the "resilience" block (chaos-injected fault counts and
# the resilient executor's retry/fallback/recovery accounting).  All zeros
# in bench reports -- chaos is off there -- so the block never perturbs
# comparisons at any tolerance.
# v7: span dumps (--spans JSONL) carry the same stamp and telemetry
# timelines gain optional exemplar trace-id fields; bench report fields are
# unchanged, so comparisons are unaffected.
# v8: reports carry the "batching" block (serving-executor batch/packing
# stats) and serving benches report requests_per_sec headline rows.  All
# zeros outside serving runs; no existing field changed meaning, so v7
# modeled values are bit-identical under v8.
SCHEMA_VERSION = 8

# Per-site counters compared exactly under --sites.  Integer event counts:
# any deviation is a real behavior change, never rounding.
SITE_COUNTERS = [
    "issue_slots", "scatter_replays", "smem_slots",
    "dram_read_tx", "dram_write_tx",
    "l2_read_segments", "l2_write_segments",
    "useful_bytes_read", "useful_bytes_written",
    "simt_insts", "simt_active_lanes", "ballot_rounds", "smem_accesses",
]


def check_schema(doc, name):
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SystemExit(
            f"FAIL: {name} has schema_version {version!r}, this checker "
            f"reads {SCHEMA_VERSION}; regenerate the report with the "
            f"current build")


def load_results(doc):
    """Index a bench report's results by (method, m, key_value)."""
    out = {}
    for row in doc["results"]:
        key = (row["method"], row["m"], row["key_value"])
        if key in out:
            raise SystemExit(f"duplicate result row {key}")
        out[key] = row
    return out


def headline(row):
    """The row's headline metric: throughput when present, time otherwise
    (the table4 stage-breakdown report has no rate column).  Serving rows
    (v8) lead with request throughput."""
    if "requests_per_sec" in row:
        return row["requests_per_sec"], "req/s"
    if "rate_gkeys" in row:
        return row["rate_gkeys"], "Gkeys/s"
    return row["total_ms"], "ms"


def compare_sites(key, base_row, cur_row, failures):
    base_sites = {s["label"]: s for s in base_row.get("sites", [])}
    cur_sites = {s["label"]: s for s in cur_row.get("sites", [])}
    for label, base_site in base_sites.items():
        cur_site = cur_sites.get(label)
        if cur_site is None:
            failures.append(f"{key} site '{label}': missing from current run")
            continue
        for counter in SITE_COUNTERS:
            want, got = base_site.get(counter), cur_site.get(counter)
            if want != got:
                failures.append(
                    f"{key} site '{label}' {counter}: "
                    f"baseline {want} current {got}")
    for label in cur_sites.keys() - base_sites.keys():
        failures.append(f"{key} site '{label}': not in baseline")


def git_sha():
    """HEAD's short sha, suffixed "-dirty" when tracked files differ from
    HEAD, so a run of an uncommitted change is not filed under its parent."""
    here = Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, cwd=here)
        sha = proc.stdout.strip()
        if proc.returncode != 0 or not sha:
            return "unknown"
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, cwd=here)
        return sha + "-dirty" if status.stdout.strip() else sha
    except OSError:
        return "unknown"


def latency_from_timeline(path):
    """Histogram digests of the final snapshot of a --telemetry timeline
    (None when the bench wrote no usable timeline)."""
    try:
        lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
    except OSError:
        return None
    if len(lines) < 2:
        return None
    header = json.loads(lines[0])
    if header.get("telemetry") != "timeline":
        return None
    check_schema(header, str(path))
    snap = json.loads(lines[-1])
    digests = {}
    for name, h in snap.get("histograms", {}).items():
        digests[name] = {k: h[k] for k in (
            "count", "p50_ms", "p95_ms", "p99_ms", "p999_ms", "max_ms")}
    return digests or None


def cmd_record(argv):
    """`record` mode: run one bench, append one history line."""
    bench = None
    history_dir = Path(__file__).resolve().parent.parent / "bench" / "history"
    log2_n = None
    trials = None
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--history-dir":
            i += 1
            history_dir = Path(argv[i])
        elif a == "--n":
            i += 1
            log2_n = int(argv[i])
        elif a == "--trials":
            i += 1
            trials = int(argv[i])
        elif bench is None and not a.startswith("-"):
            bench = Path(a)
        else:
            print(f"record: unexpected argument {a!r}", file=sys.stderr)
            return 2
        i += 1
    if bench is None:
        print(__doc__, file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "report.json"
        telem_path = Path(tmp) / "timeline.jsonl"
        cmd = [str(bench), "--json", str(out_path),
               "--telemetry", str(telem_path)]
        if log2_n is not None:
            cmd += ["--n", str(log2_n)]
        if trials is not None:
            cmd += ["--trials", str(trials)]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
            return 1
        report = json.loads(out_path.read_text())
        check_schema(report, "bench report")
        latency = latency_from_timeline(telem_path)

    entry = {
        "history": "bench_run",
        "schema_version": SCHEMA_VERSION,
        "utc": datetime.datetime.now(datetime.timezone.utc)
               .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": git_sha(),
        "bench": report["bench"],
        "device": report["device"],
        "log2_n": report["log2_n"],
        "trials": report["trials"],
        "host_threads": int(os.environ.get("MS_HOST_THREADS", 0))
                        or (os.cpu_count() or 1),
        "results": [],
    }
    # Additive provenance (never compared): which host lane engine ran.
    if "host_simd" in report:
        entry["host_simd"] = report["host_simd"]
    if latency is not None:
        entry["latency"] = latency
    # Resilience digest (v7): the executor-side accounting worth trending.
    # All zeros in ordinary bench runs (chaos is off), but history from
    # chaos-enabled runs shows retry/fallback pressure over time.
    res = report.get("resilience")
    if res is not None:
        entry["resilience"] = {k: res[k] for k in (
            "requests", "faults_observed", "retries", "fallbacks",
            "recovered", "lost") if k in res}
    # Batching digest (v8): serving-executor packing pressure over time.
    bat = report.get("batching")
    if bat is not None and bat.get("batches", 0) > 0:
        entry["batching"] = {k: bat[k] for k in (
            "batches", "packed_problems", "unpacked_problems",
            "fused_launches", "fill_ratio", "problems_retried") if k in bat}
    for row in report["results"]:
        rec = {k: row[k] for k in ("method", "m", "key_value") if k in row}
        for k in ("method_selected", "rate_gkeys", "total_ms", "steady_ms",
                  "host_ms", "host_ms_min", "host_keys_per_sec",
                  "requests_per_sec", "launch_overhead_pct"):
            if k in row:
                rec[k] = row[k]
        if isinstance(row.get("batching"), dict):
            rec["batching"] = row["batching"]
        entry["results"].append(rec)

    history_dir.mkdir(parents=True, exist_ok=True)
    out_file = history_dir / f"{report['bench']}.jsonl"
    with out_file.open("a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"recorded {report['bench']} @ {entry['git_sha']} -> {out_file}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "record":
        return cmd_record(sys.argv[2:])
    args = [a for a in sys.argv[1:] if a != "--sites"]
    check_sites = "--sites" in sys.argv[1:]
    if len(args) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = Path(args[0])
    baseline_path = Path(args[1])
    tolerance = float(args[2]) if len(args) == 3 else 0.10

    baseline = json.loads(baseline_path.read_text())
    check_schema(baseline, str(baseline_path))
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "current.json"
        cmd = [
            str(bench),
            "--n", str(baseline["log2_n"]),
            "--trials", str(baseline["trials"]),
            "--json", str(out_path),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
            return 1
        current = json.loads(out_path.read_text())
    check_schema(current, "current run")

    if current["device"] != baseline["device"]:
        print(f"FAIL: device changed: {baseline['device']} -> "
              f"{current['device']}")
        return 1

    base_rows = load_results(baseline)
    cur_rows = load_results(current)
    failures = []
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        if cur is None:
            failures.append(f"{key}: missing from current run")
            continue
        want, unit = headline(base)
        got, _ = headline(cur)
        drift = abs(got - want) / want
        status = "ok" if drift <= tolerance else "DRIFT"
        method, m, kv = key
        print(f"{status:5} {method:<18} m={m:<3} {'kv' if kv else 'key':<3} "
              f"baseline {want:6.2f} current {got:6.2f} {unit} "
              f"({drift * 100:+.1f}%)")
        if drift > tolerance:
            failures.append(
                f"{key}: {want:.3f} -> {got:.3f} {unit} "
                f"({drift * 100:.1f}% > {tolerance * 100:.0f}%)")
        if check_sites:
            compare_sites(key, base, cur, failures)
    for key in cur_rows.keys() - base_rows.keys():
        print(f"note: {key} not in baseline (new configuration)")

    if failures:
        print(f"\nFAIL: {len(failures)} comparison(s) drifted:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nOK: {len(base_rows)} configurations within "
          f"{tolerance * 100:.0f}% of baseline"
          + (", per-site counters exact" if check_sites else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
