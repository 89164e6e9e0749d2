"""Runs two sets of benchmark runs per workload and prints, for every
end-to-end metric, each set's median and quartiles, the spread
(interquartile distance over the median) and the shift of the second
median against the first, next to the metric's bound in BENCHMARK.json.

Run from the repository root; the seed is the first seed of the first set:

    python3 perfbench/stability.py 100

Every workload in BENCHMARK.json runs ten times per set: set A on seeds
seed .. seed+9, set B on the next ten. Exits 1 when a run fails, a spread
exceeds its bound, a median shifts by more than its bound, or the failed
share differs.
"""

import json
import statistics
import subprocess
import sys


RUNS = 10


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 perfbench/stability.py SEED")
    seed0 = int(sys.argv[1])

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    ok = True
    for w in workloads:
        sets = []
        for s in range(2):
            first = seed0 + s * RUNS
            results = []
            for seed in range(first, first + RUNS):
                res = run_once(w, seed, seconds)
                if not res["correct"]:
                    ok = False
                results.append(res)
                print(f"  {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
            sets.append(results)
        print(f"{w}:")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        print(f"  failed share: set A {shares[0]:.6f}, set B {shares[1]:.6f}")
        ok &= shares[0] == shares[1]
        for name, m in sorted(bounds.items()):
            meds = []
            line = f"  {name:14s}"
            for label, rs in zip("AB", sets):
                vals = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                line += f" | {label}: median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f}"
                if spread > m["bound"]:
                    ok = False
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            line += f" | B worse by {worse:+.3f} (bound {m['bound']})"
            ok &= worse <= m["bound"]
            print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
