"""Lines of the otecon package that no test runs, per module.

    python3 scripts/unrun_lines.py [--hypothesis-seed=N] [PYTEST_ARGS...]

Runs the tests (``tests/`` unless PYTEST_ARGS say otherwise) in this process
under ``sys.settrace``, tracing only frames whose code lies in ``src/otecon``,
and prints per module how many of its executable lines (those its compiled
code objects map to) no test ran, and which.  Commands the tests run in a
subprocess are not traced: lines only they reach are listed as unrun.
Hypothesis is seeded at 0 unless a seed is given, so the counts repeat;
traced, the suite takes about 4x longer.  Exits 1 when a line other than
``cli.py``'s ``sys.exit(main())``, which runs only in a process of its own,
is unrun, and with pytest's status when a test fails.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ran: set[tuple[str, int]] = set()


def trace(frame, event, arg):
    """Global tracer on a call into the package, then its local tracer."""
    if event == "call" and not frame.f_code.co_filename.startswith(str(SRC / "otecon")):
        return None
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace


def executable(path: Path) -> set[int]:
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(lines: list[int]) -> str:  # [3, 4, 5, 9] as "3-5, 9"
    starts = [k for k, line in enumerate(lines) if k == 0 or lines[k - 1] != line - 1]
    ends = [k - 1 for k in starts[1:]] + [len(lines) - 1]
    return ", ".join(f"{lines[a]}-{lines[b]}" if b > a else str(lines[a])
                     for a, b in zip(starts, ends))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))  # and for the tests' own subprocesses:
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    seed = [a for a in sys.argv[1:] if a.startswith("--hypothesis-seed=")]
    args = [a for a in sys.argv[1:] if a not in seed]
    sys.settrace(trace)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *(seed or ["--hypothesis-seed=0"]),
                          *(args or [str(ROOT / "tests")])])
    sys.settrace(None)
    print("not traced: the commands tests run in a subprocess")
    cli = SRC / "otecon" / "cli.py"
    entry = cli.read_text().split("\n").index("    sys.exit(main())") + 1
    stray = 0
    for path in sorted((SRC / "otecon").glob("*.py")):
        unrun = sorted(executable(path) - {ln for f, ln in ran if f == str(path)})
        print(f"{path.relative_to(ROOT)}: {len(unrun)} unrun: {spans(unrun)}")
        stray += len(set(unrun) - ({entry} if path == cli else set()))
    sys.exit(status or int(stray > 0))
