#!/usr/bin/env python3
"""Noise-aware A/B driver: run two commands interleaved and compare them.

Usage:
  python3 tools/ab.py -k 10 --a "CMD_A" --b "CMD_B" [--a-cwd DIR] [--b-cwd DIR]

Each command is run k times through the shell, A and B alternating, and
the side that runs first swaps every pair (A,B then B,A), so a slow drift
of the host (thermal, another tenant) lands on both sides alike.  Each run
must exit 0 and print a JSON object as its last JSON line on stdout; its
"metrics" object is the sample.  A metric may be a number or, as perfbench
prints it, {"value": number}.

For every metric both sides report, the table gives each side's median and
quartiles [q1, q3], the change of B's median against A's in percent, and in
how many of the k pairs B beat A.  "Beat" uses the metric's direction
from the "end_to_end" and "per_layer" lists of the repo's BENCHMARK.json;
a metric not listed there shows "?" for wins.

To compare two commits of the repo benchmark, check each out into its own
directory, point --a-cwd / --b-cwd at them and give both sides the same
command:
  CMD="python3 perfbench/run.py --host-threads 2 --workload plan_loop \\
       --seed 2 --seconds 20 --trace 0"
  python3 tools/ab.py -k 10 --a-cwd ../parent --b-cwd . --a "$CMD" --b "$CMD"

Exit status: 0 on success, 2 when a run fails or prints no JSON line.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json_line(text):
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                continue
    return None


def run_once(cmd, cwd):
    p = subprocess.run(cmd, shell=True, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    obj = last_json_line(p.stdout) if p.returncode == 0 else None
    if obj is None:
        sys.stderr.write(p.stderr[-4000:])
        why = f"exit {p.returncode}" if p.returncode else "no JSON line"
        sys.stderr.write(f"ab.py: run failed ({why}): {cmd}\n")
        sys.exit(2)
    sample = {}
    for name, v in obj.get("metrics", {}).items():
        if isinstance(v, dict):  # perfbench: {"value": x, "unit": u}
            v = v.get("value")
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            sample[name] = float(v)
    return sample


def directions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["better"]
            for entry in spec["end_to_end"] + spec["per_layer"]}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(a_runs, b_runs, better):
    names = [n for n in a_runs[0] if all(n in r for r in a_runs + b_runs)]
    rows = []
    for name in names:
        a = [r[name] for r in a_runs]
        b = [r[name] for r in b_runs]
        a_q1, a_med, a_q3 = quartiles(a)
        b_q1, b_med, b_q3 = quartiles(b)
        change = (b_med - a_med) / a_med * 100.0 if a_med != 0 else None
        way = better.get(name)
        wins = None
        if way is not None:
            wins = sum((y < x) if way == "lower" else (y > x)
                       for x, y in zip(a, b))
        rows.append({"metric": name, "better": way,
                     "a_median": a_med, "a_q1": a_q1, "a_q3": a_q3,
                     "b_median": b_med, "b_q1": b_q1, "b_q3": b_q3,
                     "change_pct": change, "b_wins": wins, "pairs": len(a)})
    return rows


def fmt(x):
    return f"{x:.4g}"


def print_table(rows):
    header = ("metric", "A median [q1, q3]", "B median [q1, q3]", "change",
              "B wins")
    lines = [header]
    for r in rows:
        change = "n/a" if r["change_pct"] is None else f"{r['change_pct']:+.1f}%"
        wins = "?" if r["b_wins"] is None else f"{r['b_wins']}/{r['pairs']}"
        lines.append((
            r["metric"],
            f"{fmt(r['a_median'])} [{fmt(r['a_q1'])}, {fmt(r['a_q3'])}]",
            f"{fmt(r['b_median'])} [{fmt(r['b_q1'])}, {fmt(r['b_q3'])}]",
            change, wins))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", "--pairs", type=int, default=10)
    ap.add_argument("--a", required=True, help="command of side A (baseline)")
    ap.add_argument("--b", required=True, help="command of side B")
    ap.add_argument("--a-cwd", default=None)
    ap.add_argument("--b-cwd", default=None)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("-k must be at least 1")

    a_runs, b_runs = [], []
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            if side == "A":
                a_runs.append(run_once(args.a, args.a_cwd))
            else:
                b_runs.append(run_once(args.b, args.b_cwd))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr)

    rows = summarize(a_runs, b_runs, directions())
    print(f"A: {args.a}" + (f"  (cwd {args.a_cwd})" if args.a_cwd else ""))
    print(f"B: {args.b}" + (f"  (cwd {args.b_cwd})" if args.b_cwd else ""))
    print(f"{args.pairs} interleaved pairs, first side swapped every pair")
    print_table(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
