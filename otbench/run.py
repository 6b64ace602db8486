"""Benchmark of otecon: one workload per run, a closed loop with one client.

    python3 otbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; otecon is imported from ``src``.  The run
makes its inputs from the seed, then repeats whole passes over the
workload's fixed list of operations until ``--seconds`` have gone by (at
least two passes), checks every output against a computation made apart
from the program, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run instead
records spans around the calls into each module, over every workload, and
reports the per-layer metrics.  A wrong output exits 1; only the kept known
faults of ``workloads.py`` count as failed.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Before numpy loads: the machine has 2 cores, and one client runs at a time.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import jsonschema
import numpy as np
import scipy

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".otbench-work"
OUT = ROOT / ".otbench-out"
SCHEMA = SRC / "otecon" / "data" / "result_schema.json"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

MIN_PASSES = 2
SETUP_REPS = 15
# Seconds the reference computation takes on the machine that fixed the
# benchmark's bounds, at its usual speed; times are rescaled to that speed.
REFERENCE_S = 0.025
PROBE_EVERY_S = 0.25

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import.otecon_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "csvio.read_s": "s",
    "csvio.mb_per_s": "MB/s",
    "cli.solver_s": "s",
    "discrete.solve_s": "s",
    "discrete.largest_s": "s",
    "discrete.scaling_exp": "1",
    "discrete.stall_s": "s",
    "bounds.binary_value_s": "s",
    "semidiscrete.rank_s": "s",
    "entropic.sinkhorn_s": "s",
    "entropic.sinkhorn_sweeps": "1",
    "entropic.sinkhorn_ms_per_sweep": "ms",
    "entropic.uot_s": "s",
    "entropic.uot_sweeps": "1",
    "entropic.uot_ms_per_sweep": "ms",
    "entropic.uot_stall_s": "s",
    "matching.equilibrium_s": "s",
    "matching.equilibrium_iters": "1",
    "matching.fit_s": "s",
    "matching.fit_steps": "1",
    "matching.sista_s": "s",
    "matching.sista_iters": "1",
    "semidiscrete.solve_s": "s",
    "semidiscrete.iters": "1",
    "closed_forms.w1d_s": "s",
    "closed_forms.sliced_s": "s",
    "bounds.rearrangement_s": "s",
    "bounds.subgroup_s": "s",
    "bounds.winners_s": "s",
    "bounds.witness_s": "s",
    "bounds.dro_s": "s",
    "measures.halton_s": "s",
}
# Names in otecon.cli's namespace that main calls, wrapped in the traced run.
CLI_READERS = ("read_measure_csv", "read_matrix_csv", "read_sample_csv",
               "read_matching_csv", "read_gaussian_csv")
CLI_SOLVERS = ("sinkhorn", "eot_value", "cs_identify", "wasserstein_1d",
               "rearrangement_bounds", "gaussian_w2")


class Outcomes:
    """Operations attempted and failed; failures of unkept faults are wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.n_failed = 0
        self.failed: dict[str, str] = {}
        self.wrong: list[str] = []

    def record(self, op, problem: str | None) -> None:
        self.attempted += 1
        if problem is None:
            return
        if getattr(op, "fault", None) is None:
            self.wrong.append(f"{op.name}: {problem}")
        else:
            self.n_failed += 1
            self.failed.setdefault(op.name, f"{op.fault} [{problem}]")


def check_problem(check, out) -> str | None:
    """Run a check; return why it failed, or None."""
    try:
        check(out)
    except checks.CheckFailed as exc:
        return str(exc)
    except Exception:  # a malformed output breaks the check itself
        return "check raised:\n" + traceback.format_exc(limit=3)
    return None


def call_op(op, tracer=None):
    """Call one in-process operation; return (output, error text, seconds)."""
    start = perf_counter()
    try:
        if tracer is None:
            out = op.call()
        else:
            with tracer.span(op.layer, size=op.size) as span:
                out = op.call()
                span["count"] = op.count(out) if op.count else None
    except Exception as exc:  # an operation that raises is a failed operation
        return None, f"{type(exc).__name__}: {exc}", perf_counter() - start
    return out, None, perf_counter() - start


def reference_work() -> float:
    """A fixed mix of interpreter arithmetic and small-array numpy work."""
    total = 0.0
    for i in range(200_000):
        total += (i % 7) * 0.5
    a = np.linspace(0.0, 1.0, 3600).reshape(60, 60)
    for _ in range(300):
        a = np.exp(-a)
        a = a / a.sum(axis=1, keepdims=True)
    return total + float(a[0, 0])


class Speed:
    """The machine's speed, probed with the reference work between operations.

    The virtual machine the bounds were fixed on runs the same work up to
    1.5 times slower for minutes at a time.  Times multiplied by
    ``factor()``, from the median probe, are the times the machine would
    have taken at its usual speed, so runs made minutes apart compare.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._last = -math.inf

    def probe(self) -> float:
        start = perf_counter()
        reference_work()
        self.probes.append(perf_counter() - start)
        self._last = perf_counter()
        return self.probes[-1]

    def probe_if_due(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.probes)


def in_process_pass(ops, outcomes: Outcomes, tracer=None, speed: Speed | None = None) -> list[float]:
    """One pass; returns the wall seconds of each operation, checks excluded."""
    seconds = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        if speed is not None:
            speed.probe_if_due()
        out, error, took = call_op(op, tracer)
        seconds.append(took)
        outcomes.record(op, error or check_problem(op.check, out))
    return seconds


def cli_argv(op) -> list[str]:
    return [sys.executable, "-m", "otecon.cli", *op.argv, "--out", str(op.out)]


def cli_pass(ops, outcomes: Outcomes, digests: dict, workdir: Path,
             speed: Speed | None = None) -> tuple[list[float], float]:
    """One pass of otecon processes, one at a time.

    Returns the wall seconds of each process and the largest resident set
    of any of them (MB).  The first pass validates each document and checks
    its values; later passes require byte-identical output.
    """
    seconds = []
    peak = 0.0
    for op in ops:
        if speed is not None:
            speed.probe_if_due()
        with open(workdir / "stderr.txt", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cli_argv(op), env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds.append(perf_counter() - start)
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak = max(peak, usage.ru_maxrss / 1024.0)
        stderr = (workdir / "stderr.txt").read_text(errors="replace")
        outcomes.record(op, cli_problem(op, proc.returncode, stderr, digests))
    return seconds, peak


def cli_problem(op, code: int, stderr: str, digests: dict) -> str | None:
    if code != 0:
        return f"exit code {code}: {stderr[-400:]}"
    data = op.out.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if op.name in digests:
        return None if digests[op.name] == digest else "rerun output is not byte-identical"
    digests[op.name] = digest
    return document_problem(op, data)


def document_problem(op, data: bytes) -> str | None:
    try:
        doc = json.loads(data)
        jsonschema.validate(doc, json.loads(SCHEMA.read_text()))
    except (ValueError, jsonschema.ValidationError) as exc:
        return f"invalid document: {str(exc)[:400]}"
    return check_problem(op.check, doc)


def fresh_import_s(module: str, speed: Speed | None = None) -> float:
    """Median wall time of a fresh interpreter running ``import module``."""
    argv = [sys.executable, "-c", f"import {module}"]
    subprocess.run(argv, env=CHILD_ENV, check=True)  # warm the file cache
    times = []
    for _ in range(SETUP_REPS):
        if speed is not None:
            speed.probe()
        start = perf_counter()
        subprocess.run(argv, env=CHILD_ENV, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------ untraced run


def timed_run(args, workdir: Path) -> tuple[Outcomes, dict, dict]:
    import workloads

    setup_speed = Speed()
    setup_s = fresh_import_s("otecon.cli", setup_speed) * setup_speed.factor()
    speed = Speed()
    outcomes = Outcomes()
    passes: list[list[float]] = []
    peak = 0.0
    if args.workload == "cli_io":
        ops = workloads.cli_io(args.seed, workdir)
        digests: dict = {}
    else:
        ops = workloads.IN_PROCESS[args.workload](args.seed)
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < args.seconds:
        if args.workload == "cli_io":
            seconds, pass_peak = cli_pass(ops, outcomes, digests, workdir, speed)
            peak = max(peak, pass_peak)
        else:
            seconds = in_process_pass(ops, outcomes, speed=speed)
        passes.append(seconds)
    if args.workload != "cli_io":
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The median pass, operation by operation: a median per operation
    # filters the drift within a run better than the median of a handful of
    # pass totals.  Set-up and passes are each rescaled to the machine's
    # usual speed by the probes taken among them.
    factor = speed.factor()
    pass_s = sum(statistics.median(times) for times in zip(*passes))
    metrics = {"setup_s": setup_s, "pass_s": pass_s * factor, "peak_rss_mb": peak}
    info = {
        "pass_totals_s": [sum(p) for p in passes],
        "speed_factor": factor,
        "setup_speed_factor": setup_speed.factor(),
        "speed_probes": len(speed.probes),
        "operations": len(ops),
    }
    return outcomes, metrics, {**info, "operation_s": passes}


# -------------------------------------------------------------- traced run


def traced_cli_pass(ops, outcomes: Outcomes, tracer, digests: dict) -> None:
    """Call otecon.cli.main in-process on the same inputs as the CLI workload."""
    import otecon.cli

    for op in ops:
        tracer.op = op.name
        try:
            with tracer.span("cli.main", inputs=sum(p.stat().st_size for p in op.inputs)) as span:
                code = otecon.cli.main([*op.argv, "--out", str(op.out)])
        except Exception as exc:  # main raising is a wrong output, not a crash
            outcomes.record(op, f"main raised {type(exc).__name__}: {exc}")
            continue
        span["out_bytes"] = op.out.stat().st_size if code == 0 else 0
        outcomes.record(op, cli_problem(op, code, "(see stderr)", digests))


def traced_run(args, workdir: Path) -> tuple[Outcomes, dict, dict]:
    """Rounds of one traced pass per workload, all four, until time is up.

    Per-layer metrics are medians over the rounds.  The named workload only
    labels the run: every layer is measured on the workload that exercises it.
    """
    import otecon.cli
    import workloads
    from spans import Tracer

    tracer = Tracer()
    missing = [n for n in CLI_READERS if not tracer.wrap(otecon.cli, n, "csvio.read")]
    missing += [n for n in CLI_SOLVERS if not tracer.wrap(otecon.cli, n, "cli.solver")]
    import_s = fresh_import_s("otecon.cli") - fresh_import_s("numpy")
    outcomes = Outcomes()
    cli_ops = workloads.cli_io(args.seed, workdir)
    in_process = {name: build(args.seed) for name, build in workloads.IN_PROCESS.items()}
    digests: dict = {}
    rounds: list[dict] = []
    pass_s: dict[str, list[float]] = {name: [] for name in workloads.WORKLOADS}
    start = perf_counter()
    try:
        while not rounds or perf_counter() - start < args.seconds:
            first = len(tracer.spans)
            began = perf_counter()
            traced_cli_pass(cli_ops, outcomes, tracer, digests)
            pass_s["cli_io"].append(perf_counter() - began)
            for name, ops in in_process.items():
                pass_s[name].append(sum(in_process_pass(ops, outcomes, tracer)))
            rounds.append(layer_metrics(tracer.spans[first:]))
    finally:
        tracer.restore()
    metrics = {"import.otecon_s": import_s}
    for name in PER_LAYER_UNITS:
        values = [r[name] for r in rounds if name in r]
        if values:
            metrics[name] = statistics.median(values)
    info = {
        "rounds": len(rounds),
        "traced_pass_s": {k: statistics.median(v) for k, v in pass_s.items()},
        "missing_wrapped_names": missing,
        "missing_metrics": [n for n in PER_LAYER_UNITS if n not in metrics],
        "spans": tracer.spans,
    }
    return outcomes, metrics, info


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures of one round of traced passes."""
    from spans import duration, self_time

    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name: str) -> float:
        return sum(duration(s) for s in by_name.get(name, []))

    def count(name: str) -> int:
        return sum(s.get("count") or 0 for s in by_name.get(name, []))

    m: dict[str, float] = {}
    mains = by_name.get("cli.main", [])
    if mains:
        m["cli.main_s"] = total("cli.main")
        m["cli.self_s"] = sum(self_time(s, spans) for s in mains)
        m["cli.out_bytes"] = sum(s["out_bytes"] for s in mains)
    if "csvio.read" in by_name:
        m["csvio.read_s"] = total("csvio.read")
        m["csvio.mb_per_s"] = sum(s["inputs"] for s in mains) / 1e6 / m["csvio.read_s"]
    if "cli.solver" in by_name:
        m["cli.solver_s"] = total("cli.solver")

    ladder = [s for s in by_name.get("discrete.ladder", []) if "error" not in s]
    if ladder:
        m["discrete.solve_s"] = sum(
            duration(s)
            for name in ("discrete.ladder", "discrete.assign", "bounds.binary_value")
            for s in by_name.get(name, [])
            if "error" not in s
        )
        sizes = sorted({s["size"] for s in ladder})
        medians = [statistics.median(duration(s) for s in ladder if s["size"] == n) for n in sizes]
        m["discrete.largest_s"] = medians[-1]
        if len(sizes) > 1:
            fit = statistics.linear_regression([math.log(n) for n in sizes], [math.log(t) for t in medians])
            m["discrete.scaling_exp"] = fit.slope
    simple = {
        "discrete.stall_s": "discrete.stall",
        "bounds.binary_value_s": "bounds.binary_value",
        "semidiscrete.rank_s": "semidiscrete.rank",
        "entropic.uot_stall_s": "entropic.uot_stall",
        "closed_forms.w1d_s": "closed_forms.w1d",
        "closed_forms.sliced_s": "closed_forms.sliced",
        "bounds.rearrangement_s": "bounds.rearrangement",
        "bounds.subgroup_s": "bounds.subgroup",
        "bounds.winners_s": "bounds.winners",
        "bounds.witness_s": "bounds.witness",
        "bounds.dro_s": "bounds.dro",
        "measures.halton_s": "measures.halton",
    }
    for metric, name in simple.items():
        if name in by_name:
            m[metric] = total(name)
    counted = {
        "entropic.sinkhorn": ("entropic.sinkhorn_s", "entropic.sinkhorn_sweeps", "entropic.sinkhorn_ms_per_sweep"),
        "entropic.uot": ("entropic.uot_s", "entropic.uot_sweeps", "entropic.uot_ms_per_sweep"),
        "matching.equilibrium": ("matching.equilibrium_s", "matching.equilibrium_iters", None),
        "matching.fit": ("matching.fit_s", "matching.fit_steps", None),
        "matching.sista": ("matching.sista_s", "matching.sista_iters", None),
        "semidiscrete.solve": ("semidiscrete.solve_s", "semidiscrete.iters", None),
    }
    for name, (seconds, work, per_unit) in counted.items():
        if name in by_name:
            m[seconds] = total(name)
            m[work] = count(name)
            if per_unit and m[work]:
                m[per_unit] = 1000.0 * m[seconds] / m[work]
    return m


# -------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_io", "exact_ladder", "scaling_kernels", "line_bounds"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "otecon" / "cli.py").is_file():
        print(f"otbench: no otecon sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One vCPU for the run and its children, so that the speed probes run
    # where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(args)
        print(json.dumps({"env": env}), flush=True)
        run = traced_run if args.trace else timed_run
        outcomes, metrics, info = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": not outcomes.wrong,
        "attempted": outcomes.attempted,
        "failed": outcomes.n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    spans = info.pop("spans", None)
    operation_s = info.pop("operation_s", None)
    print(json.dumps({"failed_operations": outcomes.failed, "wrong_operations": outcomes.wrong, **info}))
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "info": info, "operation_s": operation_s, "spans": spans, "result": result}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
