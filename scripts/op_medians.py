"""Per-operation medians of one or two untraced benchmark runs, side by side.

    python3 scripts/op_medians.py RECORD [RECORD]

Each RECORD is a ``.otbench-out/WORKLOAD-seedN-trace0.json`` file that
``otbench/run.py --trace 0`` wrote.  For every operation the script takes
the median of its wall seconds over the run's passes and multiplies it by
the run's speed factor, as ``pass_s`` does, so the column adds up to the
run's ``pass_s``.  Operation names come from the workload's list in
``otbench/workloads.py``, built from the first record's seed.  With two
records (say, a parent's run and a change's run of the same workload) it
adds a column with the relative change of each operation; negative is
faster.  Prints which record is column A and which B, then a Markdown table
in milliseconds.
"""

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "otbench")]


def op_names(workload: str, seed: int) -> list[str]:
    """Names of the workload's operations, in the order each pass runs them."""
    import workloads

    if workload == "cli_io":
        with tempfile.TemporaryDirectory() as workdir:
            return [op.name for op in workloads.cli_io(seed, Path(workdir))]
    return [op.name for op in workloads.IN_PROCESS[workload](seed)]


def op_medians(record: dict) -> list[float]:
    """Speed-scaled median seconds of each operation over the run's passes."""
    factor = record["info"]["speed_factor"]
    return [statistics.median(times) * factor for times in zip(*record["operation_s"])]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", type=Path, nargs="+", metavar="RECORD")
    args = parser.parse_args()
    if len(args.records) > 2:
        parser.error("give one or two records")
    records = [json.loads(path.read_text()) for path in args.records]
    for path, record in zip(args.records, records):
        if record["env"]["trace"] != 0:
            parser.error(f"{path}: not an untraced (--trace 0) run")
    workload = records[0]["env"]["workload"]
    if any(r["env"]["workload"] != workload for r in records):
        parser.error("the records are of different workloads")
    names = op_names(workload, records[0]["env"]["seed"])
    columns = [op_medians(r) for r in records]
    for path, column in zip(args.records, columns):
        if len(column) != len(names):
            parser.error(f"{path}: {len(column)} operations, the workload has {len(names)}")

    labels = "AB"[: len(records)]
    for label, path in zip(labels, args.records):
        print(f"{label}: {path}")
    print()
    header = ["operation"] + [f"{label} ms" for label in labels]
    if len(records) == 2:
        header.append("change")
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    rows = list(zip(names, *columns)) + [("pass_s", *(sum(c) for c in columns))]
    for name, *seconds in rows:
        cells = [name] + [f"{1000.0 * s:.3f}" for s in seconds]
        if len(seconds) == 2:
            cells.append(f"{(seconds[1] - seconds[0]) / seconds[0]:+.1%}")
        print("| " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
