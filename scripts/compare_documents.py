"""Run the command-line test invocations in two checkouts and compare them.

    python3 scripts/compare_documents.py PARENT_TREE CHANGE_TREE

Reads the ``COMMANDS`` and ``TestFailureModes.CAPPED`` invocations from
CHANGE_TREE's ``tests/test_cli.py`` (each CAPPED one is run as listed and
with ``--max-iter 1``, as ``test_cap_writes_document`` runs it).  Every
invocation runs as ``python -m otecon.cli`` once per tree, with
``PYTHONPATH=<tree>/src``, the fixtures of CHANGE_TREE's ``tests/data`` and
the same ``--out`` path, so that the echoed config is the same.  Prints a
Markdown table saying, per invocation, whether the exit code, the stderr
and the document bytes match, and how many of each differ.  Where two
documents differ, the cell lists the key paths the change added and
removed, such as ``+diagnostics.stop_reason -diagnostics.objective``, and
then the largest absolute and relative difference over the numeric leaves
the two have in common, or "numbers equal".  Exits 1 when any exit code,
stderr or document differs, else 0.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def invocations(test_file: Path) -> list[list[str]]:
    """COMMANDS values, then each CAPPED value as listed and at --max-iter 1."""
    tree = ast.parse(test_file.read_text())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("COMMANDS", "CAPPED"):
                found[target.id] = ast.literal_eval(node.value)
    capped = list(found["CAPPED"].values())
    return (
        list(found["COMMANDS"].values())
        + capped
        + [argv + ["--max-iter", "1"] for argv in capped]
    )


def run(tree: Path, argv: list[str], data: Path, out: Path) -> tuple:
    args = [str(data / t) if t.endswith(".csv") else t for t in argv]
    env = {k: v for k, v in os.environ.items() if k != "OTECON_MAX_ITER"}
    env["PYTHONPATH"] = str(tree / "src")
    if out.exists():
        out.unlink()
    proc = subprocess.run(
        [sys.executable, "-m", "otecon.cli", *args, "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tree,
    )
    document = out.read_bytes() if out.exists() else None
    return proc.returncode, proc.stderr, document


def key_paths(doc, path: str = "") -> set:
    """Dotted path of every object key in doc; a list's items add ``[]``."""
    paths = set()
    if isinstance(doc, dict):
        for key, value in doc.items():
            sub = f"{path}.{key}".lstrip(".")
            paths |= {sub} | key_paths(value, sub)
    elif isinstance(doc, list):
        for value in doc:
            paths |= key_paths(value, f"{path}[]")
    return paths


def numeric_leaves(a, b, path: str, out: list) -> bool:
    """Collect (path, a, b) for each numeric leaf under the keys a and b
    share; False if they differ there in anything but numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        return all(
            numeric_leaves(a[k], b[k], f"{path}.{k}".lstrip("."), out)
            for k in a.keys() & b.keys()
        )
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            numeric_leaves(x, y, f"{path}[]", out) for x, y in zip(a, b)
        )
    if type(a) in (int, float) and type(b) in (int, float):
        out.append((path, a, b))
        return True
    return a == b


def document_difference(before: bytes, after: bytes) -> str:
    """Added and removed key paths, then the largest absolute and relative
    difference over the shared numeric leaves; "differs" where neither
    describes the change."""
    try:
        a, b = json.loads(before), json.loads(after)
    except (TypeError, ValueError):
        return "differs"
    added, removed = key_paths(b) - key_paths(a), key_paths(a) - key_paths(b)
    keys = " ".join(
        [f"`+{k}`" for k in sorted(added)] + [f"`-{k}`" for k in sorted(removed)]
    )
    leaves: list = []
    if not numeric_leaves(a, b, "", leaves) or not (leaves or keys):
        return f"{keys}, other values differ" if keys else "differs"

    def gap(leaf):
        return abs(leaf[1] - leaf[2])

    def relative(leaf):
        return gap(leaf) / max(abs(leaf[1]), abs(leaf[2])) if gap(leaf) else 0.0

    numbers = "numbers equal"
    if any(map(gap, leaves)):
        by_gap, by_relative = max(leaves, key=gap), max(leaves, key=relative)
        numbers = (
            f"max abs {gap(by_gap):.3g} (`{by_gap[0]}`), "
            f"max rel {relative(by_relative):.3g} (`{by_relative[0]}`)"
        )
    return f"{keys}, {numbers}" if keys else numbers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    data = change / "tests" / "data"
    differing = {"exit": 0, "stderr": 0, "document": 0}
    print("| invocation | exit code | stderr | document |")
    print("|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        for argv in invocations(change / "tests" / "test_cli.py"):
            before = run(parent, argv, data, out)
            after = run(change, argv, data, out)
            cells = []
            for key, a, b in zip(differing, before, after):
                if a == b:
                    cells.append("same" if key != "exit" else f"same ({a})")
                else:
                    differing[key] += 1
                    if key == "exit":
                        cells.append(f"{a} -> {b}")
                    elif key == "document":
                        cells.append(document_difference(a, b))
                    else:
                        cells.append("differs")
            print(f"| `{' '.join(argv)}` | " + " | ".join(cells) + " |")
    print()
    print(", ".join(f"{key}: {n} differ" for key, n in differing.items()))
    return 1 if any(differing.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
