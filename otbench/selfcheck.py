"""Quick self-check of the benchmark: every workload once, at reduced size.

    python3 otbench/selfcheck.py

Runs one untimed pass of each workload with every output check on, the CLI
workload twice so that the byte-identical rerun check runs too, then one
traced round, and exits 1 if any output is wrong or a per-layer metric is
missing.  A kept known fault that no longer shows is reported as a note:
its operation then passes its check like any other.  Takes well under a
minute.
"""

from __future__ import annotations

import shutil
import sys

import run


def main() -> int:
    if not (run.SRC / "otecon" / "cli.py").is_file():
        print(f"selfcheck: no otecon sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import otecon.cli
    import workloads
    from spans import Tracer

    workdir = run.WORK / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    try:
        cli_ops = workloads.cli_io(7, workdir, quick=True)
        in_process = {name: build(7, quick=True) for name, build in workloads.IN_PROCESS.items()}
        outcomes = run.Outcomes()
        digests: dict = {}
        for _ in range(2):
            run.cli_pass(cli_ops, outcomes, digests, workdir)
        for ops in in_process.values():
            run.in_process_pass(ops, outcomes)
        kept = [op.name for ops in in_process.values() for op in ops if op.fault]
        problems += outcomes.wrong
        for name in kept:
            if name not in outcomes.failed:
                print(f"selfcheck: note: {name} passes; its fault looks mended")

        tracer = Tracer()
        for name in run.CLI_READERS:
            tracer.wrap(otecon.cli, name, "csvio.read")
        for name in run.CLI_SOLVERS:
            tracer.wrap(otecon.cli, name, "cli.solver")
        traced = run.Outcomes()
        try:
            run.traced_cli_pass(cli_ops, traced, tracer, {})
            for ops in in_process.values():
                run.in_process_pass(ops, traced, tracer)
        finally:
            tracer.restore()
        problems += traced.wrong
        layers = run.layer_metrics(tracer.spans)
        problems += [f"per-layer metric {m} missing" for m in run.PER_LAYER_UNITS
                     if m not in layers and m != "import.otecon_s"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(f"selfcheck: {line}", file=sys.stderr)
    print(f"selfcheck: {outcomes.attempted} operations, {outcomes.n_failed} kept known"
          f" faults, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
