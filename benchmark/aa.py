"""A/A check of the end-to-end benchmark: runs two full sets of the same
commit and prints each end-to-end metric's spread against its bound.

For every workload and every end_to_end metric of BENCHMARK.json it
reports, per set, the median of N runs (seeds 1..N) and the spread: the
distance between the first and third quartile as a share of the median. It
then compares the two sets' medians. A metric passes when its spread in
both sets is below a third of its bound and the second median is not worse
than the first by more than the bound. Metrics phoenix_e2e marks "sim" must
also read the same in both sets, since each set uses the same seeds. The
other metrics a run measures are listed with their spreads for the record.

setup_s is the one end-to-end metric whose spread is reported but not held
to its bound (verdict "wide" when over a third of it): the benchmark's
acceptance rule requires set-up time among the end-to-end metrics and
bounds its drift between the sets but not its spread, which follows the
shared host's speed (README, "End-to-end metrics").

Run through benchmark/run.sh --aa [--runs N].
"""

import argparse
import json
import statistics
import subprocess
import sys

UNBOUNDED_SPREAD = "setup_s"


def run_once(e2e, workload, seed, seconds):
    """Returns {metric: (value, kind)} for every metric line of one run."""
    out = subprocess.run(
        [e2e, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        check=False, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n"
                 f"{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: oracle failed: {lines[-1]}")
    metrics = {}
    for line in lines[:-1]:
        _, name, value, _, kind = line.split()
        metrics[name] = (float(value), kind)
    return metrics


def spread(values):
    median = statistics.median(values)
    if median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--e2e", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    ok = True
    print("workload metric kind bound median_a median_b spread_a spread_b "
          "worse_b verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[run_once(args.e2e, workload, seed, seconds)
                 for seed in range(1, args.runs + 1)] for _ in range(2)]
        for name, (_, kind) in sets[0][0].items():
            a = [r[name][0] for r in sets[0]]
            b = [r[name][0] for r in sets[1]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            meta = metrics.get(name)
            if meta is None:
                print(f"{workload} {name} {kind} - {med_a:.6g} {med_b:.6g} "
                      f"{spread(a):.4f} {spread(b):.4f} - measured")
                continue
            worse = (med_b - med_a) / med_a
            if meta["better"] == "higher":
                worse = -worse
            bound = meta["bound"]
            verdict = "ok"
            if max(spread(a), spread(b)) >= bound / 3:
                verdict = "wide" if name == UNBOUNDED_SPREAD else "SPREAD"
            if worse > bound:
                verdict = "DRIFT"
            if kind == "sim" and a != b:
                verdict = "NONDETERMINISTIC"
            ok = ok and verdict in ("ok", "wide")
            print(f"{workload} {name} {kind} {bound} {med_a:.6g} "
                  f"{med_b:.6g} {spread(a):.4f} {spread(b):.4f} "
                  f"{worse:+.4f} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
