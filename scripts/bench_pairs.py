"""Alternating benchmark runs of two checkouts, paired by seed.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE WORKLOAD PAIRS \
        [--first-seed 1] [--out bench_pairs.json]

Pair k runs ``otbench/run.py --workload WORKLOAD --seed FIRST_SEED + k
--trace 0`` once in PARENT_TREE and once in CHANGE_TREE, the parent first in
even pairs and the change first in odd ones, each for the ``run_seconds``
that ``BENCHMARK.json`` in CHANGE_TREE declares.  The result
is merged into the JSON file ``--out`` under ``workloads[WORKLOAD]``: every
run's metrics and operation counts, each side's median and quartiles per
end-to-end metric, how many pairs the change wins (the direction comes from
``BENCHMARK.json``), and whether the median gain exceeds the interquartile
range of the parent's runs.  Each metric also gets its relative median
change (positive is worse), the bound ``BENCHMARK.json`` fixes for it,
``within_bound`` when the change is worse by no more than that bound, and
``unresolved`` when the parent's interquartile range, relative to its
median, is wider than the bound, unless every run of the change reads
better than every run of the parent.  A run that exits non-zero stops the
script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "otbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout the change is measured against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, default=Path("bench_pairs.json"))
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side), args.workload, seed, seconds)
            runs[side].append(run)
            print(f"pair {k + 1}/{args.pairs} seed {seed} {side}: {run['metrics']}",
                  file=sys.stderr, flush=True)

    metrics = {}
    for name, spec_metric in end_to_end.items():
        direction, bound = spec_metric["better"], spec_metric["bound"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        sign = 1.0 if direction == "lower" else -1.0
        p, c = summary(parent), summary(change)
        worse_by = sign * (c["median"] - p["median"]) / abs(p["median"])
        all_better = max(sign * b for b in change) < min(sign * a for a in parent)
        metrics[name] = {
            "better": direction,
            "parent": p,
            "change": c,
            "change_wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
            "median_gain_exceeds_parent_iqr": sign * (p["median"] - c["median"])
            > p["q3"] - p["q1"],
            "relative_median_change": worse_by,
            "bound": bound,
            "within_bound": worse_by <= bound,
            "unresolved": (p["q3"] - p["q1"]) / abs(p["median"]) > bound
            and not all_better,
        }
    record = {
        "run_seconds": seconds,
        "pairs": args.pairs,
        "seeds": [r["seed"] for r in runs["parent"]],
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "metrics": metrics,
        "runs": runs,
    }
    document = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    document["workloads"][args.workload] = record
    args.out.write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    main()
