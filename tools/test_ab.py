#!/usr/bin/env python3
"""Self-check of tools/ab.py on two stand-in commands with known output.

Usage: test_ab.py <ab.py>

Each stand-in is a `python3 -c` one-liner that appends its side's letter to
a shared log, prints a line of noise, then one JSON line whose metrics carry
names from the repo's BENCHMARK.json.  Side A reports request_ms_p50 =
10 + (its earlier runs) and keys_per_s = 100; side B reports request_ms_p50
= 9 + (its earlier runs) and keys_per_s = 90; both report peak_rss_mb = 5.
keys_per_s uses perfbench's {"value": x, "unit": u} form.  With four pairs
that pins the run order (ABBAABBA) and every cell of the printed table:
medians, quartiles, percent change and B's wins for a lower-is-better
metric B wins, a higher-is-better one B loses, and a tie.  A run that
prints no JSON line must make ab.py exit 2.
"""
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# metric -> (A median [q1, q3], B median [q1, q3], change, B wins)
WANT = {
    "request_ms_p50": ("11.5 [10.75, 12.25]", "10.5 [9.75, 11.25]",
                       "-8.7%", "4/4"),
    "keys_per_s": ("100 [100, 100]", "90 [90, 90]", "-10.0%", "0/4"),
    "peak_rss_mb": ("5 [5, 5]", "5 [5, 5]", "+0.0%", "0/4"),
}


def stand_in(log, side, p50_0, rate):
    code = (
        "import json,os,sys;"
        f"p={str(log)!r};"
        "prev=open(p).read().count(sys.argv[1]) if os.path.exists(p) else 0;"
        "open(p,'a').write(sys.argv[1]);"
        "print('warming up');"
        "print(json.dumps({'correct':1,'metrics':{"
        f"'request_ms_p50':{p50_0}+prev,"
        f"'keys_per_s':{{'value':{rate},'unit':'1/s'}},"
        "'peak_rss_mb':5,'label':'x'}}))"
    )
    return f"{sys.executable} -c \"{code}\" {side}"


def table_rows(stdout):
    rows = {}
    for line in stdout.splitlines():
        cells = re.split(r"\s{2,}", line.strip())
        if len(cells) == 5:
            rows[cells[0]] = tuple(cells[1:])
    return rows


def main():
    ab = sys.argv[1]
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "order.log"
        p = subprocess.run(
            [sys.executable, ab, "-k", "4",
             "--a", stand_in(log, "A", 10, 100),
             "--b", stand_in(log, "B", 9, 90)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        print(p.stdout)
        if p.returncode != 0:
            print(p.stderr)
            print(f"FAIL: ab.py exited {p.returncode}")
            return 1
        expect(log.read_text() == "ABBAABBA",
               f"run order {log.read_text()!r}, want 'ABBAABBA'")
        rows = table_rows(p.stdout)
        rows.pop("metric", None)  # header
        expect(set(rows) == set(WANT),
               f"table metrics {sorted(rows)}, want {sorted(WANT)}; "
               "non-numeric 'label' must be dropped")
        for name, want in WANT.items():
            expect(rows.get(name) == want,
                   f"{name}: row {rows.get(name)}, want {want}")

        cmd = f"{sys.executable} -c \"\""
        bad = subprocess.run(
            [sys.executable, ab, "-k", "1", "--a", cmd, "--b", cmd],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        expect(bad.returncode == 2,
               f"a run without a JSON line exited {bad.returncode}, want 2")

    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("ab.py self-check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
