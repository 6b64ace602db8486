"""Checks of otecon outputs by computations made apart from the program.

Every check recomputes the property it asserts from the inputs with numpy
or scipy (HiGHS LP, ``linear_sum_assignment``, ``sqrtm``), never through an
otecon function, and raises :class:`CheckFailed` with a short reason when
the output does not hold up.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import sqrtm
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix


class CheckFailed(Exception):
    """An output failed its independent check."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(got: float, want: float, rel: float, what: str, floor: float = 1.0) -> None:
    err = abs(float(got) - float(want))
    require(
        err <= rel * max(floor, abs(float(want))),
        f"{what}: got {float(got)!r}, want {float(want)!r} (rel tol {rel:g})",
    )


# ---------------------------------------------------------------- exact LP


def _transport_constraints(m: int, n: int):
    rows = np.repeat(np.arange(m), n)
    cols = np.tile(np.arange(n), m)
    var = np.arange(m * n)
    a = coo_matrix(
        (np.ones(2 * m * n), (np.concatenate([rows, m + cols]), np.concatenate([var, var]))),
        shape=(m + n, m * n),
    )
    return a.tocsr()


def lp_transport_value(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray) -> float:
    """Optimal value of the balanced transport LP by scipy HiGHS."""
    m, n = cost.shape
    res = linprog(
        cost.ravel(),
        A_eq=_transport_constraints(m, n),
        b_eq=np.concatenate([mu, nu]),
        bounds=(0, None),
        method="highs",
    )
    require(res.status == 0, f"HiGHS transport LP failed: {res.message}")
    return float(res.fun)


def exact_solution(mu, nu, cost, plan, phi, psi, value) -> None:
    """Primal and dual feasibility, complementary slackness, LP value."""
    scale = max(1.0, float(np.max(np.abs(cost))))
    mass_tol = 1e-9 * max(1.0, float(mu.sum()))
    dual_tol = 1e-9 * scale
    require(plan.shape == cost.shape, f"plan shape {plan.shape} != cost {cost.shape}")
    require(float(plan.min()) >= -mass_tol, "plan has negative mass")
    require(np.max(np.abs(plan.sum(axis=1) - mu)) <= mass_tol, "row marginals violated")
    require(np.max(np.abs(plan.sum(axis=0) - nu)) <= mass_tol, "column marginals violated")
    slack = cost - phi[:, None] - psi[None, :]
    require(float(slack.min()) >= -dual_tol, f"dual infeasible by {-float(slack.min())!r}")
    support = plan > 1e-12 * max(1.0, float(mu.sum()))
    require(
        float(np.max(np.abs(slack[support]), initial=0.0)) <= dual_tol,
        "complementary slackness violated",
    )
    close(value, float(np.sum(plan * cost)), 1e-9, "value vs <plan, cost>")
    close(value, lp_transport_value(mu, nu, cost), 1e-7, "value vs HiGHS LP")


def binary_value(mu, nu, gamma, value) -> None:
    close(value, lp_transport_value(mu, nu, gamma), 1e-8, "binary value vs HiGHS LP")
    require(value > 1e-6, "binary instance has zero value; relation not dense enough")


def binary_witness(mu, nu, gamma, value, witness) -> None:
    """The witness A certifies the value: mu(A) - nu(A^Gamma) == value."""
    binary_value(mu, nu, gamma, value)
    require(witness is not None, "no witness returned")
    rows = np.array(sorted(witness), dtype=int)
    require(rows.size == len(witness), "witness has repeated rows")
    require(rows.size == 0 or (rows.min() >= 0 and rows.max() < mu.size), "witness row out of range")
    reach = np.any(gamma[rows] == 0.0, axis=0) if rows.size else np.zeros(nu.size, bool)
    close(float(mu[rows].sum() - nu[reach].sum()), value, 1e-9, "witness dual value")


# ---------------------------------------------------------------- ranks


def radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of each index, digit by digit."""
    i = np.array(index, dtype=np.int64)
    inv = np.zeros(i.shape)
    denom = 1.0
    while np.any(i > 0):
        i, digit = np.divmod(i, base)
        denom *= base
        inv += digit / denom
    return inv


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def halton_points(n: int, d: int) -> np.ndarray:
    """First n Halton points from index 1, bases the first d primes."""
    idx = np.arange(1, n + 1)
    return np.stack([radical_inverse(idx, PRIMES[j]) for j in range(d)], axis=1)


def halton(points: np.ndarray, n: int, d: int) -> None:
    require(points.shape == (n, d), f"Halton shape {points.shape} != {(n, d)}")
    require(np.max(np.abs(points - halton_points(n, d))) <= 1e-15, "Halton points differ")


def vector_rank(sample: np.ndarray, permutation: np.ndarray, reference: np.ndarray) -> None:
    """A bijection onto the Halton set whose cost is the assignment optimum."""
    n, d = sample.shape
    perm = np.asarray(permutation)
    require(np.array_equal(np.sort(perm), np.arange(n)), "ranks are not a bijection")
    halton(reference, n, d)
    cost = np.sum((sample[:, None, :] - reference[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    close(cost[np.arange(n), perm].sum(), cost[rows, cols].sum(), 1e-9, "rank assignment cost")


# ---------------------------------------------------------------- entropic


def gibbs_plan(mu, nu, cost, phi, psi, eps) -> np.ndarray:
    return mu[:, None] * nu[None, :] * np.exp((phi[:, None] + psi[None, :] - cost) / eps)


def sinkhorn(mu, nu, cost, eps, tol, plan, phi, psi) -> None:
    """Marginals within tol and the plan of Gibbs form in the potentials."""
    require(np.max(np.abs(plan.sum(axis=1) - mu)) <= tol * (1 + 1e-6), "row marginals beyond tol")
    require(np.max(np.abs(plan.sum(axis=0) - nu)) <= tol * (1 + 1e-6), "column marginals beyond tol")
    gibbs = gibbs_plan(mu, nu, cost, phi, psi, eps)
    require(np.max(np.abs(plan - gibbs)) <= 1e-10 * float(gibbs.max()), "plan not of Gibbs form")


def unbalanced(mu, nu, cost, eps, lam_mu, lam_nu, tol, plan, phi, psi) -> None:
    """First-order conditions phi = -lam log(pi 1 / mu), likewise for psi."""
    gibbs = gibbs_plan(mu, nu, cost, phi, psi, eps)
    require(np.max(np.abs(plan - gibbs)) <= 1e-10 * float(gibbs.max()), "plan not of Gibbs form")
    foc = max(
        float(np.max(np.abs(phi + lam_mu * np.log(gibbs.sum(axis=1) / mu)))),
        float(np.max(np.abs(psi + lam_nu * np.log(gibbs.sum(axis=0) / nu)))),
    )
    require(foc <= 2.0 * tol, f"first-order residual {foc!r} above tol {tol!r}")


# ---------------------------------------------------------------- matching


def choo_siow_table(phi: np.ndarray, mu: np.ndarray, nu: np.ndarray, sweeps: int = 5000):
    """Equilibrium flows and singles of a Choo-Siow market, by IPFP.

    Uses the cancellation-free root 2 mu / (s + sqrt(s^2 + 4 mu)).
    """
    k = np.exp(phi)
    u, v = np.sqrt(mu), np.sqrt(nu)
    for _ in range(sweeps):
        s = k @ v
        u = 2.0 * mu / (s + np.sqrt(s * s + 4.0 * mu))
        t = k.T @ u
        v = 2.0 * nu / (t + np.sqrt(t * t + 4.0 * nu))
    return k * np.outer(u, v), u * u, v * v


def identified_surplus(flows, singles_x, singles_y) -> np.ndarray:
    return np.log(flows) - 0.5 * np.log(singles_x)[:, None] - 0.5 * np.log(singles_y)[None, :]


def cs_equilibrium(phi, mu, nu, flows, singles_x, singles_y) -> None:
    """Adding-up constraints hold and the table identifies the surplus."""
    tol = 1e-10 * max(1.0, float(mu.max()), float(nu.max()))
    require(np.max(np.abs(flows.sum(axis=1) + singles_x - mu)) <= tol, "x adding-up violated")
    require(np.max(np.abs(flows.sum(axis=0) + singles_y - nu)) <= tol, "y adding-up violated")
    err = np.max(np.abs(identified_surplus(flows, singles_x, singles_y) - phi))
    require(err <= 1e-8, f"surplus round trip off by {err!r}")


def coefficients(got: np.ndarray, want: np.ndarray, tol: float, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(got) - want)))
    require(err <= tol, f"{what}: coefficients off by {err!r} (tol {tol:g})")


# ---------------------------------------------------------------- semidiscrete


def laguerre_masses(sites, weights, grid_res) -> np.ndarray:
    """Share of midpoint grid cells won by each site, lowest index on ties."""
    axis = (np.arange(grid_res) + 0.5) / grid_res
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    d2 = ((grid[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
    won = np.argmin(d2 - weights[None, :], axis=1)
    return np.bincount(won, minlength=sites.shape[0]) / grid.shape[0]


def semidiscrete(sites, masses, grid_res, tol, weights, target) -> None:
    close(target.sum(), 1.0, 1e-12, "target masses total")
    require(np.max(np.abs(target - masses / masses.sum())) <= 1e-12, "target masses differ")
    gap = float(np.max(np.abs(laguerre_masses(sites, weights, grid_res) - target)))
    require(gap < tol, f"recounted cell masses off by {gap!r} (tol {tol:g})")


# ---------------------------------------------------------------- line


def quantile_segments(m: int, n: int):
    """Merged quantile grid of an m- and an n-point sample, in exact integers.

    Returns segment lengths and the 0-based order statistic of each sample
    on each segment (breakpoints i/m and j/n scaled by m * n).
    """
    ends = np.union1d(np.arange(1, m + 1) * n, np.arange(1, n + 1) * m)
    starts = np.concatenate([[0], ends[:-1]])
    lengths = (ends - starts) / (m * n)
    return lengths, -(-ends // n) - 1, -(-ends // m) - 1


def wasserstein_pp(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """p-th power of the order-p distance between two scalar samples."""
    xs, ys = np.sort(x), np.sort(y)
    lengths, i, j = quantile_segments(xs.size, ys.size)
    return float(np.sum(lengths * np.abs(xs[i] - ys[j]) ** p))


def sliced(x, y, p, n_dir, seed, value) -> None:
    """Average of the 1-D distances over the documented Philox directions."""
    dirs = np.random.Generator(np.random.Philox(seed)).standard_normal((n_dir, x.shape[1]))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms < 1e-12] = 1.0
    dirs /= norms[:, None]
    px, py = x @ dirs.T, y @ dirs.T
    total = sum(wasserstein_pp(px[:, k], py[:, k], p) for k in range(n_dir))
    close(value, (total / n_dir) ** (1.0 / p), 1e-10, "sliced distance")


def rearrangement(y0, y1, lower, upper) -> None:
    """Product functional: antitone and comonotone means on sorted samples."""
    a, b = np.sort(y0), np.sort(y1)
    close(lower, float(np.mean(a * b[::-1])), 1e-10, "rearrangement lower")
    close(upper, float(np.mean(a * b)), 1e-10, "rearrangement upper")


def quantile_integral(values: np.ndarray, lo: float, hi: float) -> float:
    """Integral of the empirical quantile of sorted values over (lo, hi]."""
    n = values.size
    k = np.arange(n)
    overlap = np.clip(np.minimum(hi, (k + 1) / n) - np.maximum(lo, k / n), 0.0, None)
    return float(values @ overlap)


def subgroup(y0, y1, a, b, lower, upper) -> None:
    q0, q1 = np.sort(y0), np.sort(y1)
    width = b - a
    base = quantile_integral(q0, a, b)
    close(lower, (quantile_integral(q1, 0.0, width) - base) / width, 1e-9, "subgroup lower")
    close(upper, (quantile_integral(q1, 1.0 - width, 1.0) - base) / width, 1e-9, "subgroup upper")


def winners(y0, y1, a, b, value) -> None:
    """max(0, sup_abar abar - a - F1(Q0(abar))) / (b - a) over the rank grid."""
    q0, q1 = np.sort(y0), np.sort(y1)
    n0 = q0.size
    ranks = np.arange(1, n0 + 1) / n0
    cands = ranks[(ranks > a) & (ranks <= b)]
    cands = np.concatenate([cands, [b], [a] if a > 0 else []])
    # Q0(t): smallest order statistic whose rank k / n0 reaches t.
    idx = np.minimum(np.searchsorted(ranks, cands, side="left"), n0 - 1)
    f1 = np.searchsorted(q1, q0[idx], side="right") / q1.size
    best = max(0.0, float(np.max(cands - a - f1)))
    close(value, best / (b - a), 1e-9, "winners bound", floor=1e-3)


def dro(f, delta, weights, rho, value) -> None:
    """Worst-case mean of f over a transport ball, by the primal LP."""
    n = f.size
    w = weights / weights.sum()
    # Variable pi[i, j]: reference mass at i moved to j, at discrepancy delta[j, i].
    res = linprog(
        -np.tile(f, n),
        A_ub=delta.T.reshape(1, -1),
        b_ub=[rho],
        A_eq=_transport_constraints(n, n)[:n],
        b_eq=w,
        bounds=(0, None),
        method="highs",
    )
    require(res.status == 0, f"HiGHS DRO LP failed: {res.message}")
    close(value, -res.fun, 1e-7, "DRO bound vs primal LP")


def gaussian_w2(m1, s1, m2, s2, value) -> None:
    root = np.real(sqrtm(s1))
    cross = np.real(sqrtm(root @ s2 @ root))
    sq = float(np.sum((m1 - m2) ** 2) + np.trace(s1 + s2 - 2.0 * cross))
    close(value, np.sqrt(max(sq, 0.0)), 1e-9, "Gaussian W2 vs sqrtm formula")
