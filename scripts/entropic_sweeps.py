"""Plain against over-relaxed Sinkhorn sweeps over a seeded grid of instances.

The grid crosses sizes n = 5, 30 and 150 (square, costs the squared
distances between uniform points of the unit square, random weights), eps =
0.5, 0.05, 0.01 and 0.001, and four kinds of problem (48 instances):

- balanced: ``sinkhorn`` on two probability vectors;
- lam=1, lam=100: ``unbalanced_sinkhorn`` on the same kind of input;
- unequal masses: ``unbalanced_sinkhorn`` at lam = 5 with nu of mass 1.5.

Each instance is solved twice at tol 1e-9 and the default cap of 10 000
sweeps: plain, with ``otecon.entropic.OMEGA_CAP`` set to 1 for the solve,
and as the library runs it, over-relaxed after its warm-up.  Each prints
both sweep counts, whether each converged and both wall times; a summary
follows.  The script exits 1 if a relaxed solve fails to converge where the
plain one converges, or takes more sweeps than the plain one.  It is
offline and deterministic apart from the times:

    python scripts/entropic_sweeps.py --seed 0
"""

import argparse
import sys
import time

import numpy as np

from otecon import CostMatrix, DiscreteMeasure, sinkhorn, unbalanced_sinkhorn
from otecon import entropic

SIZES = (5, 30, 150)
EPS = (0.5, 0.05, 0.01, 0.001)
KINDS = (("balanced", None, 1.0), ("lam=1", 1.0, 1.0), ("lam=100", 100.0, 1.0),
         ("unequal masses", 5.0, 1.5))


def solve(mu, nu, cost, eps, lam, cap):
    saved, entropic.OMEGA_CAP = entropic.OMEGA_CAP, cap
    try:
        start = time.perf_counter()
        if lam is None:
            sol = sinkhorn(mu, nu, cost, eps)
        else:
            sol = unbalanced_sinkhorn(mu, nu, cost, eps, lam, lam)
        return sol, time.perf_counter() - start
    finally:
        entropic.OMEGA_CAP = saved


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    print(
        f"{'kind':<14} {'n':>3} {'eps':>6} {'plain':>6} {'relaxed':>7}"
        f" {'conv':>5} {'plain_s':>8} {'relaxed_s':>9}"
    )
    bad, totals, sweeps, count = [], [0.0, 0.0], [0, 0], 0
    for kind, lam, nu_mass in KINDS:
        for n in SIZES:
            for eps in EPS:
                x, y = rng.random((n, 2)), rng.random((n, 2))
                w_mu, w_nu = rng.random(n) + 0.1, rng.random(n) + 0.1
                mu = DiscreteMeasure(w_mu / w_mu.sum())
                nu = DiscreteMeasure(nu_mass * w_nu / w_nu.sum())
                cost = CostMatrix(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
                plain, plain_s = solve(mu, nu, cost, eps, lam, 1.0)
                relaxed, relaxed_s = solve(mu, nu, cost, eps, lam, entropic.OMEGA_CAP)
                verdict = "".join("y" if s.converged else "n" for s in (plain, relaxed))
                print(
                    f"{kind:<14} {n:>3} {eps:>6} {plain.iterations:>6}"
                    f" {relaxed.iterations:>7} {verdict:>5} {plain_s:>8.4f} {relaxed_s:>9.4f}"
                )
                if (plain.converged and not relaxed.converged
                        or relaxed.iterations > plain.iterations):
                    bad.append(f"{kind} n={n} eps={eps}")
                totals[0] += plain_s
                totals[1] += relaxed_s
                sweeps[0] += plain.iterations
                sweeps[1] += relaxed.iterations
                count += 1
    print(
        f"summary: {count} instances, {sweeps[0]} sweeps in {totals[0]:.2f} s plain,"
        f" {sweeps[1]} in {totals[1]:.2f} s relaxed;"
        f" {len(bad)} where relaxation lost{': ' if bad else ''}{', '.join(bad)}"
    )
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
