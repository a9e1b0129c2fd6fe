"""Small-size self-check: every workload emits every named metric with its unit.

usage: python3 perfbench/selfcheck.py

Runs each workload untraced and traced for a fraction of a second, the
in-process ones on 40x12 tables, and compares the metrics on the result
line with BENCHMARK.json: the same names, the same units, and every
operation correct. Takes about a minute, most of it the CLI workload's
fresh processes. Exits 1 on the first mismatch.
"""

import json
import sys

import run

SMALL = (40, 12)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            line = run.result_line(run.run(workload, 7, 0.2, trace, sizes=SMALL))
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            where = f"{workload} trace={int(trace)}"
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(n for n in got if n in expected[trace] and got[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {units}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{where}: {line['failed']} of {line['attempted']} operations failed")
            print(f"{where}: {len(got)} metrics, {line['attempted']} operations", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
