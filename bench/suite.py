"""Run every workload over ten seeds and record the run-to-run spread.

Usage (from the repository root):

    python3 bench/suite.py                # all workloads x 10 seeds -> bench/record.json
    python3 bench/suite.py --write-spec   # regenerate BENCHMARK.json only

For each workload and end-to-end metric it prints the median of the
per-run values, their quartiles and the spread (Q3 - Q1) / median, taken
with ``statistics.quantiles(values, n=4)``, beside a third of the metric's
bound: a metric is steady when its spread stays below that line.  Then each
workload runs traced twice on the first seed; their counts must repeat, and
the traced per-call means are set beside the ROADMAP.md baseline.  The
result goes to ``bench/record.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import END_TO_END, HERE, ROOT, WORK, WORKLOADS, spec_document, spread

RUNS = 10
FIRST_SEED = 100
TRACED_RUNS = 2
RECORD = HERE / "record.json"


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def traced_pass(workload, seconds):
    """Traced runs on one seed: counts must repeat across invocations."""
    runs = []
    for _ in range(TRACED_RUNS):
        res = run_once(workload, FIRST_SEED, seconds, 1)
        full = json.loads((WORK / f"{workload}-seed{FIRST_SEED}-trace1.json").read_text())
        runs.append((res, full))
    counts = [
        {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in ("count", "B")}
        for res, _ in runs
    ]
    repeat = all(c == counts[0] for c in counts[1:])
    first, full = runs[0]
    print(f"{workload} traced x{len(runs)}: correct={[r['correct'] for r, _ in runs]} "
          f"counts repeat across runs: {repeat}")
    for span, row in (full.get("roadmap_baseline") or {}).items():
        print(f"{workload} {span}: traced mean {row['traced_mean_us']:.4g} us, "
              f"roadmap {row['roadmap_us']} us{'  OVER 2x' if row['flag_over_2x'] else ''}")
    return {
        "seed": FIRST_SEED, "correct": [r["correct"] for r, _ in runs],
        "counts_repeat": repeat, "self_check": full.get("self_check"),
        "roadmap_baseline": full.get("roadmap_baseline"),
        "overhead_frac": [r["metrics"]["trace.overhead_frac"]["value"] for r, _ in runs],
        "metrics": {k: v["value"] for k, v in first["metrics"].items()},
    }


def main(argv=None):
    spec = spec_document()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and run nothing")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
        print("wrote BENCHMARK.json")
        return 0

    seconds = spec["run_seconds"]
    units = {name: unit for name, unit, *_ in END_TO_END}
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    record = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    results = {workload: [] for workload in WORKLOADS}
    # Seed-major order spreads a slow phase of the host over every workload.
    for i in range(RUNS):
        for workload in WORKLOADS:
            began = time.time()
            res = run_once(workload, FIRST_SEED + i, seconds, 0)
            res["run_s"] = time.time() - began
            res["seed"] = FIRST_SEED + i
            full = json.loads((WORK / f"{workload}-seed{res['seed']}-trace0.json").read_text())
            res["host_slowdown"] = full["host_slowdown"]
            res["raw_wall_s"] = full["raw_stats"]["wall_s"]["median"]
            results[workload].append(res)
            print(f"{workload} seed {res['seed']}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
                  + f" ({res['run_s']:.0f} s)", flush=True)
    unsteady = []
    for workload, runs in results.items():
        summary = {}
        for name in units:
            st = spread([r["metrics"][name]["value"] for r in runs])
            st["steady"] = st["iqr_frac"] < bounds[name] / 3
            summary[name] = st
            if not st["steady"]:
                unsteady.append(f"{workload}:{name}")
            print(f"{workload} {name}: median {st['median']:.5g} {units[name]} over "
                  f"{st['n']} runs, iqr/median {st['iqr_frac']:.3f} "
                  f"(bound/3 {bounds[name] / 3:.3f}){'' if st['steady'] else '  UNSTEADY'}")
        # The same spread before host-speed rescaling, to show what it removes.
        raw = spread([r["raw_wall_s"] for r in runs])
        summary["raw_wall_s"] = raw
        print(f"{workload} wall_s before rescaling: median {raw['median']:.5g} s, "
              f"iqr/median {raw['iqr_frac']:.3f}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload} failed_frac {failed / attempted:.3f} ({failed}/{attempted})")
        record["workloads"][workload] = {
            "spread": summary, "failed": failed, "attempted": attempted,
            "max_run_s": max(r["run_s"] for r in runs), "results": runs,
        }
    record["unsteady"] = unsteady
    record["traced"] = {w: traced_pass(w, seconds) for w in WORKLOADS}
    print("unsteady: " + (", ".join(unsteady) if unsteady else "none"))
    run_s = [r["run_s"] for w in record["workloads"].values() for r in w["results"]]
    # A full evaluation of the benchmark makes 4 + 22 x workloads runs, in 3420 s at most.
    record["evaluation_estimate_s"] = (4 + 22 * len(WORKLOADS)) * statistics.mean(run_s)
    print(f"evaluation estimate: {record['evaluation_estimate_s']:.0f} s for "
          f"{4 + 22 * len(WORKLOADS)} runs at the mean run time measured here")
    with open(RECORD, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
