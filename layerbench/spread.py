"""Run every workload once per seed 1-10, as a checker of BENCHMARK.json does,
and print each end-to-end metric's median and spread (the distance between
the first and third quartile of its values as a share of their median).

    python3 layerbench/spread.py OUT.json [--against A.json]

Run from the root of a checkout.  With --against, also prints how far each
median moved from an earlier set, which is the second acceptance test of a
benchmark.
"""
import argparse
import json
import statistics
import subprocess

ap = argparse.ArgumentParser()
ap.add_argument("out")
ap.add_argument("--against")
args = ap.parse_args()
bench = json.load(open("BENCHMARK.json"))

runs = {}
for w in (w["name"] for w in bench["workloads"]):
    runs[w] = []
    for seed in range(1, 11):
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        line = subprocess.run(cmd, capture_output=True, text=True).stdout.strip().split("\n")[-1]
        result = json.loads(line)
        runs[w].append(result)
        print(w, seed, "correct" if result["correct"] else "INCORRECT",
              " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()), flush=True)
json.dump(runs, open(args.out, "w"), indent=1)

earlier = json.load(open(args.against)) if args.against else None
for w, results in runs.items():
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        line = "%-16s %-16s median %12.6g spread %6.3f bound %.2f" % (
            w, m["name"], median, (q3 - q1) / median, m["bound"])
        if earlier:
            before = statistics.median(r["metrics"][m["name"]]["value"] for r in earlier[w])
            worse = (before - median) if m["better"] == "higher" else (median - before)
            line += "  worse than earlier by %+.3f" % (worse / before)
        print(line)
