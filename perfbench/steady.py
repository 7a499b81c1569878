"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py --workload rd-sweep

Each run is a fresh ``run.py`` process of ``run_seconds`` (from
BENCHMARK.json) with its own seed: seeds 1-10 in the first set, 11-20 in
the second. For every end-to-end metric the command prints each set's
median and quartiles, the spread (quartile distance over the median),
and how far the second set's median moved from the first set's in the
metric's worse direction; both are compared with the metric's bound in
BENCHMARK.json. Results also go to
``.perfbench_runs/steady-<workload>.json`` (ignored by git).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.exit(f"seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    sets: list[list[dict]] = []
    for s in range(SETS):
        results = []
        for k in range(RUNS):
            seed = s * RUNS + k + 1
            result = run_once(args.workload, seed, seconds)
            results.append(result)
            values = " ".join(f"{n}={v['value']:.4g}" for n, v in result["metrics"].items())
            print(f"set {s + 1} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
        sets.append(results)

    ok = True
    print(f"\n{args.workload}: {SETS} sets x {RUNS} runs of {seconds} s")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        medians = []
        for s, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            medians.append(median)
            spread = (q3 - q1) / median
            line = (f"  {name:12s} set {s + 1}: median {median:.6g} {metric['unit']} "
                    f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}")
            if spread > metric["bound"]:
                ok = False
                line += " > bound"
            print(line)
        worse = (medians[1] - medians[0]) / medians[0]
        if metric["better"] == "higher":
            worse = -worse
        line = f"  {name:12s} set 2 worse than set 1 by {worse:+.3f}"
        if worse > metric["bound"]:
            ok = False
            line += " > bound"
        print(line)
    shares = {r["failed"] / r["attempted"] for results in sets for r in results}
    print(f"  failed share across all runs: {sorted(shares)}")
    ok = ok and len(shares) == 1 and all(r["correct"] for res in sets for r in res)
    print("steady" if ok else "NOT steady")

    out = ROOT / ".perfbench_runs" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "sets": sets}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
