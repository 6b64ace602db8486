"""Run semidiscrete_solve over a seeded sweep of site sets and report how each ends.

The sweep crosses dimensions 1, 2 and 3 with five kinds of site sets and
draws PER_KIND = 4 instances of each (60 in all), with 3 to 30 sites and
random masses:

- uniform: sites uniform in the unit cube;
- normal: sites around the centre with spread 0.15, a few outside the cube;
- clustered: sites in a 0.1-wide box inside the cube;
- near-duplicate: uniform sites, one of them repeated 1e-4 away;
- outside-cube: sites uniform in [-0.5, 1.5]^d.

Grids are the solver's default in 1-D (4096 cells), as `otecon semidiscrete`
runs it, 64^2 in 2-D and 16^3 in 3-D, and each solve has a cap of
MAX_ITER = 300 Newton steps.  Each instance prints its verdict
(converged or not), stop reason, accepted Newton steps, final mass residual
and wall time; a summary line follows.  The run is offline and
deterministic apart from the times:

    python scripts/semidiscrete_sweep.py --seed 0 [--record FILE]

``--record FILE`` also writes one tab-separated line per instance with no
time in it: dimension, kind, instance number, site count, stop reason,
accepted steps, the residual as ``float.hex`` and the sha256 of the
weights' bytes.  Two checkouts' files (run each with its own ``src`` on
``PYTHONPATH``) are then equal exactly when every solve ended alike.
"""

import argparse
import hashlib
import time
from collections import Counter

import numpy as np

from otecon import DiscreteMeasure, semidiscrete_solve
from otecon.semidiscrete import DEFAULT_GRID_RES

GRID_RES = {1: DEFAULT_GRID_RES[1], 2: 64, 3: 16}
MAX_ITER = 300
PER_KIND = 4


def sites(rng, kind, n, d):
    if kind == "uniform":
        return rng.random((n, d))
    if kind == "normal":
        return 0.5 + 0.15 * rng.standard_normal((n, d))
    if kind == "clustered":
        return rng.uniform(0.0, 0.9, size=d) + 0.1 * rng.random((n, d))
    if kind == "near-duplicate":
        points = rng.random((n, d))
        points[-1] = points[0] + 1e-4 * rng.choice([-1.0, 1.0], size=d)
        return points
    if kind == "outside-cube":
        return rng.uniform(-0.5, 1.5, size=(n, d))
    raise ValueError(kind)


KINDS = ("uniform", "normal", "clustered", "near-duplicate", "outside-cube")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--record", help="write each solve's outcome, without times, to this file"
    )
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(
        f"{'d':>1} {'kind':<14} {'#':>2} {'sites':>5} {'grid':>5} {'verdict':<11}"
        f" {'stop_reason':<14} {'steps':>5} {'residual':>10} {'seconds':>8}"
    )
    reasons = Counter()
    total = 0.0
    slowest = (0.0, "")
    record = []
    for d in (1, 2, 3):
        for kind in KINDS:
            for k in range(PER_KIND):
                n = int(rng.integers(3, 31))
                w = rng.random(n) + 0.1
                nu = DiscreteMeasure(w / w.sum(), sites(rng, kind, n, d))
                start = time.perf_counter()
                diagram = semidiscrete_solve(
                    nu, d, grid_res=GRID_RES[d], max_iter=MAX_ITER
                )
                seconds = time.perf_counter() - start
                verdict = "converged" if diagram.converged else "unconverged"
                print(
                    f"{d:>1} {kind:<14} {k:>2} {n:>5} {GRID_RES[d]:>5} {verdict:<11}"
                    f" {diagram.stop_reason:<14} {diagram.iterations:>5}"
                    f" {diagram.residual:>10.3e} {seconds:>8.3f}"
                )
                digest = hashlib.sha256(diagram.weights.tobytes()).hexdigest()
                record.append(
                    f"{d}\t{kind}\t{k}\t{n}\t{diagram.stop_reason}"
                    f"\t{diagram.iterations}\t{diagram.residual.hex()}\t{digest}\n"
                )
                reasons[diagram.stop_reason] += 1
                total += seconds
                slowest = max(slowest, (seconds, f"d={d} {kind} #{k}"))
    count = sum(reasons.values())
    tally = ", ".join(f"{reason} {reasons[reason]}" for reason in sorted(reasons))
    print(
        f"summary: {count} instances, {reasons['tol']} converged ({tally});"
        f" {total:.2f} s in all, slowest {slowest[1]} at {slowest[0]:.2f} s"
    )
    if args.record:
        with open(args.record, "w") as out:
            out.writelines(record)


if __name__ == "__main__":
    main()
