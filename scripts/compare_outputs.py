"""Run a benchmark workload's operations in two checkouts and compare outputs.

    python3 scripts/compare_outputs.py PARENT_TREE CHANGE_TREE WORKLOAD \
        [--seeds 1 2 3]

For each seed, each tree builds the workload's operations from its own
``otbench/workloads.py`` and calls every in-process operation once, with
that tree's ``src`` first on the import path.  Each returned value is
flattened into leaves keyed by their path: arrays by dtype, shape and a
hash of their bytes, floats by their bit pattern, other scalars by their
repr, and dataclass fields, mapping items and sequence entries (so plans,
potentials, solve reports with their pivot counts and histories, and
rank permutations) by recursion.  An operation that raises leaves its
exception type and message.  The ``cli_io`` operations are argument lists,
so they are run as ``python -m otecon.cli`` in each tree, with
``PYTHONPATH=<tree>/src``, on the same input files and ``--out`` path, and
compared by exit code, stderr and document bytes.  Nothing under
``otbench`` is written.  Prints a Markdown table with one row per
operation and seed, naming the leaves that differ, then a count; exits 1
when any operation's output differs, else 0.
"""

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHARED_MODULES = ("otecon", "workloads", "checks")


def leaves(value, path: str = "") -> dict:
    """Path to a byte-exact token of each scalar or array inside value."""
    if isinstance(value, np.ndarray):
        data = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return {path: f"{value.dtype}{value.shape}:{data}"}
    if dataclasses.is_dataclass(value):
        fields = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        fields = sorted(value.items(), key=lambda item: str(item[0]))
    elif isinstance(value, (list, tuple)):
        fields = list(enumerate(value))
    elif isinstance(value, (set, frozenset)):
        return {path: repr(sorted(value))}
    elif isinstance(value, float):
        return {path: value.hex()}
    else:
        return {path: repr(value)}
    out = {}
    for key, item in fields:
        out.update(leaves(item, f"{path}.{key}" if path else str(key)))
    return out


def import_tree(tree: Path):
    """The workloads module of tree, importing otecon from tree's src."""
    for name in [m for m in sys.modules if m.split(".")[0] in SHARED_MODULES]:
        del sys.modules[name]
    sys.path[:0] = [str(tree / "src"), str(tree / "otbench")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    return workloads


def in_process_outputs(tree: Path, workload: str, seed: int) -> list:
    """(name, leaves) of each in-process operation of the workload in tree."""
    ops = import_tree(tree).IN_PROCESS[workload](seed)
    outputs = []
    for op in ops:
        try:
            flat = leaves(op.call())
        except Exception as exc:  # a raised error is an output to compare
            flat = {"raised": f"{type(exc).__name__}: {exc}"}
        outputs.append((op.name, flat))
    return outputs


def cli_outputs(parent: Path, change: Path, seed: int, workdir: Path) -> tuple:
    """(name, leaves) per cli_io operation, run in parent and in change."""
    ops = import_tree(change).cli_io(seed, workdir)
    sides: tuple = ([], [])
    for tree, outputs in zip((parent, change), sides):
        env = {k: v for k, v in os.environ.items() if k != "OTECON_MAX_ITER"}
        env.update({var: "1" for var in THREAD_VARS}, PYTHONPATH=str(tree / "src"))
        for op in ops:
            if op.out.exists():
                op.out.unlink()
            proc = subprocess.run(
                [sys.executable, "-m", "otecon.cli", *op.argv, "--out", str(op.out)],
                capture_output=True, env=env, cwd=tree,
            )
            document = op.out.read_bytes() if op.out.exists() else b""
            outputs.append((op.name, {
                "exit": str(proc.returncode),
                "stderr": hashlib.sha256(proc.stderr).hexdigest(),
                "document": hashlib.sha256(document).hexdigest(),
            }))
    return sides


def differing(before: dict, after: dict) -> list[str]:
    """Leaf paths whose tokens differ, or that only one side has."""
    return sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    total = differ = 0
    print("| seed | operation | output |")
    print("|---|---|---|")
    for seed in args.seeds:
        if args.workload == "cli_io":
            with tempfile.TemporaryDirectory() as workdir:
                before, after = cli_outputs(parent, change, seed, Path(workdir))
        else:
            before = in_process_outputs(parent, args.workload, seed)
            after = in_process_outputs(change, args.workload, seed)
        if [name for name, _ in before] != [name for name, _ in after]:
            sys.exit(f"seed {seed}: the trees build different operation lists")
        for (name, a), (_, b) in zip(before, after):
            paths = differing(a, b)
            total += 1
            differ += bool(paths)
            shown = ", ".join(f"`{p}`" for p in paths[:6])
            more = f" and {len(paths) - 6} more" if len(paths) > 6 else ""
            cell = f"differs: {shown}{more}" if paths else f"identical ({len(a)} leaves)"
            print(f"| {seed} | {name} | {cell} |")
    print()
    print(f"{args.workload}: {differ} of {total} operations differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
