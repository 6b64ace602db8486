"""The four benchmark workloads: operations, seeded inputs and their checks.

Each workload function returns a fixed list of operations made from the seed.
In-process operations call otecon's public functions through the package
namespace; CLI operations are argument lists for ``python -m otecon.cli``
over CSV files written into a work directory.  ``quick=True`` shrinks every
size for the self-check but keeps the operation kinds, the checks and the
kept known faults.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.special import logsumexp

import otecon as ot

import checks

# Operations that fail on a fault of the program.  They keep their
# independent check, so once the fault is mended they pass and get faster.
STALL_FAULT = (
    "solve_discrete_ot raises SolverStallError at its pivot cap on costs scaled"
    " by 1e6: PIVOT_TOL and CERT_TOL in discrete.py are absolute (ROADMAP item 2a)"
)
UOT_FAULT = (
    "unbalanced_sinkhorn at lam = 1e6, eps = 0.5 ends with converged=False after"
    " 10000 sweeps: slow translation mode of the damped updates (ROADMAP item 3)"
)

# Fixed inputs of the known faults; they do not depend on --seed.
STALL_SEED = 12345
STALL_INSTANCES = 2
UOT_STALL_SEED = 0


@dataclass
class Op:
    """One in-process call into otecon and the check of its output."""

    name: str
    layer: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    fault: str | None = None
    size: int = 0
    count: Callable[[Any], int] | None = None


@dataclass
class CliOp:
    """One ``otecon`` command over CSV inputs, writing its JSON to ``out``."""

    name: str
    argv: list[str]
    out: Path
    inputs: list[Path]
    check: Callable[[dict], None]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _probability(rng: np.random.Generator, n: int, floor: float = 0.1) -> np.ndarray:
    w = rng.random(n) + floor
    return w / w.sum()


def _measure(w: np.ndarray) -> ot.DiscreteMeasure:
    return ot.DiscreteMeasure(w)


def _sq_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)


# ------------------------------------------------------------ exact_ladder


def _exact_op(name, layer, mu, nu, cost, size, fault=None) -> Op:
    def call():
        return ot.solve_discrete_ot(_measure(mu), _measure(nu), ot.CostMatrix(cost))

    def check(out):
        plan, pots, value = out
        checks.exact_solution(mu, nu, cost, plan.mass, pots.phi, pots.psi, value)

    return Op(name, layer, call, check, fault=fault, size=size)


def _dense_relation(rng, m: int, n: int, density: float, full_rows: int) -> np.ndarray:
    """Random 0/1 relation; ``full_rows`` all-ones rows force a positive value."""
    gamma = (rng.random((m, n)) < density).astype(float)
    gamma[rng.choice(m, size=full_rows, replace=False)] = 1.0
    return gamma


def exact_ladder(seed: int, quick: bool = False) -> list[Op]:
    ladder = ((10, 2), (15, 2)) if quick else ((15, 12), (20, 10), (25, 8), (30, 6))
    assign = (10, 1) if quick else (20, 10)
    binary = (12, 1) if quick else (40, 4)
    ranks = ((1, 10, 1), (2, 12, 1)) if quick else ((1, 20, 4), (2, 20, 8))
    ops: list[Op] = []
    rng = _rng(seed, 1)
    for n, reps in ladder:
        for r in range(reps):
            mu, nu = _probability(rng, n), _probability(rng, n)
            ops.append(_exact_op(f"ladder n={n} #{r}", "discrete.ladder", mu, nu, rng.random((n, n)), n))
    n, reps = assign
    uniform = np.full(n, 1.0 / n)
    for r in range(reps):
        ops.append(_exact_op(f"assignment n={n} #{r}", "discrete.assign", uniform, uniform, rng.random((n, n)), n))
    n, reps = binary
    for r in range(reps):
        mu, nu = _probability(rng, n), _probability(rng, n)
        gamma = _dense_relation(rng, n, n, 0.85, 3)

        def call(mu=mu, nu=nu, gamma=gamma):
            return ot.binary_cost_ot(_measure(mu), _measure(nu), ot.BinaryRelation(gamma), witness=False)

        def check(out, mu=mu, nu=nu, gamma=gamma):
            checks.binary_value(mu, nu, gamma, out[0])

        ops.append(Op(f"binary value {n}x{n} #{r}", "bounds.binary_value", call, check, size=n))
    for d, n, reps in ranks:
        for r in range(reps):
            sample = rng.standard_normal((n, d))

            def check(out, sample=sample):
                checks.vector_rank(sample, out.permutation, out.reference.points)

            ops.append(Op(f"vector_rank d={d} n={n} #{r}", "semidiscrete.rank",
                          lambda s=sample: ot.vector_rank(s), check, size=n))
    stall = np.random.default_rng(STALL_SEED)
    for r in range(STALL_INSTANCES):
        mu, nu = _probability(stall, 8), _probability(stall, 8)
        cost = stall.random((8, 8)) * 1e6
        ops.append(_exact_op(f"cost scale 1e6 8x8 #{r}", "discrete.stall", mu, nu, cost, 8, STALL_FAULT))
    return ops


# --------------------------------------------------------- scaling_kernels


def _entropic_inputs(rng, n: int):
    x, y = rng.random((n, 2)), rng.random((n, 2))
    return _probability(rng, n, 0.5), _probability(rng, n, 0.5), _sq_dist(x, y)


def _uot_op(name, layer, mu, nu, cost, eps, lam, tol, fault=None) -> Op:
    def call():
        return ot.unbalanced_sinkhorn(_measure(mu), _measure(nu), ot.CostMatrix(cost),
                                      eps=eps, lam_mu=lam, lam_nu=lam, tol=tol)

    def check(sol):
        checks.unbalanced(mu, nu, cost, eps, lam, lam, tol, sol.plan, sol.phi, sol.psi)

    return Op(name, layer, call, check, fault=fault, size=mu.size, count=lambda s: s.iterations)


def _market(rng, n: int, k: int, scale: float):
    basis = scale * rng.standard_normal((n, n, k))
    beta = rng.standard_normal(k)
    return basis, beta


def _jittered_lattice(rng, side: int, jitter: float) -> np.ndarray:
    """Cell centres of a side x side grid on the unit square, each moved by
    up to ``jitter`` cells.  Uniformly random sites make the Laguerre ascent's
    iteration count heavy-tailed (20 to 170 at 12 sites, one instance in 25
    taking 10 times the median), which no pass of a few instances averages out.
    """
    centres = (np.arange(side) + 0.5) / side
    x, y = np.meshgrid(centres, centres, indexing="ij")
    points = np.stack([x.ravel(), y.ravel()], axis=1)
    return points + rng.uniform(-jitter / side, jitter / side, points.shape)


def _entropic_plan(mu, nu, cost, eps, sweeps: int = 3000) -> np.ndarray:
    """Balanced entropic plan by plain log-domain Sinkhorn (scipy logsumexp)."""
    f, g = np.zeros(mu.size), np.zeros(nu.size)
    for _ in range(sweeps):
        f = eps * (np.log(mu) - logsumexp((g[None, :] - cost) / eps, axis=1))
        g = eps * (np.log(nu) - logsumexp((f[:, None] - cost) / eps, axis=0))
    return np.exp((f[:, None] + g[None, :] - cost) / eps)


def scaling_kernels(seed: int, quick: bool = False) -> list[Op]:
    sink = (30, 1) if quick else (150, 3)
    uot = (20, 1) if quick else (60, 2)
    equilibrium = (20, 1) if quick else (120, 3)
    fit = (8, 1) if quick else (12, 3)
    lasso = (8, 1) if quick else (12, 3)
    semi = (32, 2, 1) if quick else (96, 4, 6)
    ops: list[Op] = []
    rng = _rng(seed, 2)

    n, reps = sink
    eps, tol = 0.01, 1e-9
    for r in range(reps):
        mu, nu, cost = _entropic_inputs(rng, n)

        def call(mu=mu, nu=nu, cost=cost):
            return ot.sinkhorn(_measure(mu), _measure(nu), ot.CostMatrix(cost), eps=eps, tol=tol)

        def check(sol, mu=mu, nu=nu, cost=cost):
            checks.sinkhorn(mu, nu, cost, eps, tol, sol.plan, sol.phi, sol.psi)

        ops.append(Op(f"sinkhorn n={n} eps={eps} #{r}", "entropic.sinkhorn", call, check,
                      size=n, count=lambda s: s.iterations))

    n, reps = uot
    for r in range(reps):
        mu, nu, cost = _entropic_inputs(rng, n)
        ops.append(_uot_op(f"uot n={n} lam=5 #{r}", "entropic.uot", mu, nu, cost, 0.02, 5.0, 1e-9))
    stall = np.random.default_rng(UOT_STALL_SEED)
    mu, nu, cost = _probability(stall, 4), _probability(stall, 4), stall.random((4, 4))
    ops.append(_uot_op("uot 4x4 lam=1e6", "entropic.uot_stall", mu, nu, cost, 0.5, 1e6, 1e-9, UOT_FAULT))

    n, reps = equilibrium
    for r in range(reps):
        basis, beta = _market(rng, n, 4, 0.3)
        phi = basis @ beta
        mu, nu = rng.random(n) + 1.0, rng.random(n) + 1.0

        def call(phi=phi, mu=mu, nu=nu):
            return ot.cs_equilibrium(ot.CostMatrix(phi), mu, nu)

        def check(t, phi=phi, mu=mu, nu=nu):
            checks.cs_equilibrium(phi, mu, nu, t.flows, t.singles_x, t.singles_y)

        ops.append(Op(f"cs_equilibrium {n}x{n} #{r}", "matching.equilibrium", call, check,
                      size=n, count=lambda t: t.iterations))

    n, reps = fit
    for r in range(reps):
        basis, beta = _market(rng, n, 3, 0.3)
        mu, nu = _probability(rng, n, 1.0) * 4.0, _probability(rng, n, 1.0) * 4.0
        flows, sx, sy = checks.choo_siow_table(basis @ beta, mu, nu)

        def call(flows=flows, sx=sx, sy=sy, basis=basis):
            return ot.moment_matching(ot.MatchingTable(flows, sx, sy), ot.SurplusBasis(basis), log=True)

        def check(out, beta=beta, sx=sx, sy=sy):
            lam, a, b, _ = out
            checks.coefficients(lam, beta, 1e-6, "moment_matching surplus")
            checks.coefficients(a, -0.5 * np.log(sx), 1e-6, "moment_matching x fees")
            checks.coefficients(b, -0.5 * np.log(sy), 1e-6, "moment_matching y fees")

        ops.append(Op(f"moment_matching {n}x{n} #{r}", "matching.fit", call, check,
                      size=n, count=lambda out: len(out[3]["objectives"]) - 1))

    n, reps = lasso
    for r in range(reps):
        basis, beta = _market(rng, n, 3, 0.3)
        mu, nu = _probability(rng, n, 0.5), _probability(rng, n, 0.5)
        pi_hat = _entropic_plan(mu, nu, -(basis @ beta), 1.0)

        def call(pi_hat=pi_hat, mu=mu, nu=nu, basis=basis):
            return ot.sista(pi_hat, mu, nu, ot.SurplusBasis(basis), eps=1.0, log=True)

        def check(out, beta=beta):
            checks.coefficients(out[0], beta, 1e-5, "sista surplus")

        ops.append(Op(f"sista {n}x{n} #{r}", "matching.sista", call, check,
                      size=n, count=lambda out: len(out[1]["objectives"])))

    res, side, reps = semi
    for r in range(reps):
        sites = _jittered_lattice(rng, side, 0.25)
        masses = rng.uniform(0.75, 1.25, side * side)
        sites_n = side * side

        def call(sites=sites, masses=masses):
            return ot.semidiscrete_solve(ot.DiscreteMeasure(masses, sites), 2, grid_res=res, tol=1e-3)

        def check(diag, sites=sites, masses=masses):
            checks.semidiscrete(sites, masses, res, 1e-3, diag.weights, diag.target_masses)

        ops.append(Op(f"semidiscrete 2-D {sites_n} sites grid {res} #{r}", "semidiscrete.solve",
                      call, check, size=sites_n, count=lambda d: d.iterations))
    return ops


# ------------------------------------------------------------- line_bounds


def _product(a: float, b: float) -> float:
    return a * b


def _squared(a: float, b: float) -> float:
    return (a - b) ** 2


def line_bounds(seed: int, quick: bool = False) -> list[Op]:
    n1d, reps = (2000, 1) if quick else (20000, 2)
    cloud = (200, 3, 20) if quick else (2000, 5, 200)
    witness_rows = (8,) if quick else (16, 17)
    dro_n = 30 if quick else 100
    halton = (500, 3) if quick else (20000, 4)
    ops: list[Op] = []
    rng = _rng(seed, 3)
    for r in range(reps):
        x = rng.standard_normal(n1d)
        y = 0.5 + 1.5 * rng.standard_normal(n1d - n1d // 20)
        sx, sy = ot.Sample1D.from_data(x), ot.Sample1D.from_data(y)
        for p in (1.0, 2.0):
            ops.append(Op(
                f"wasserstein_1d p={p:g} #{r}", "closed_forms.w1d",
                lambda sx=sx, sy=sy, p=p: ot.wasserstein_1d(sx, sy, p=p),
                lambda v, x=x, y=y, p=p: checks.close(v, checks.wasserstein_pp(x, y, p) ** (1 / p), 1e-10, "w1d"),
                size=n1d,
            ))
        ops.append(Op(
            f"ot_value_1d squared #{r}", "closed_forms.w1d",
            lambda sx=sx, sy=sy: ot.ot_value_1d(sx, sy, _squared),
            lambda v, x=x, y=y: checks.close(v, checks.wasserstein_pp(x, y, 2.0), 1e-10, "ot_value_1d"),
            size=n1d,
        ))

        points, dim, n_dir = cloud
        px = rng.standard_normal((points, dim))
        py = 0.2 + rng.standard_normal((points, dim)) @ np.diag(np.linspace(0.5, 1.5, dim))
        ops.append(Op(
            f"sliced {points}x{dim}-D {n_dir} dirs #{r}", "closed_forms.sliced",
            lambda px=px, py=py, n_dir=n_dir, r=r: ot.sliced_wasserstein(px, py, p=2.0, n_dir=n_dir, seed=r),
            lambda v, px=px, py=py, n_dir=n_dir, r=r: checks.sliced(px, py, 2.0, n_dir, r, v),
            size=points,
        ))
        x1, y1 = rng.standard_normal((points, 1)), rng.standard_normal((points - points // 10, 1))
        ops.append(Op(
            f"sliced 1-D equals w1d #{r}", "closed_forms.sliced",
            lambda x1=x1, y1=y1: ot.sliced_wasserstein(x1, y1, p=2.0, n_dir=8),
            lambda v, x1=x1, y1=y1: checks.close(v, checks.wasserstein_pp(x1[:, 0], y1[:, 0], 2.0) ** 0.5, 1e-10, "sliced d=1 vs w1d"),
            size=points,
        ))

        y0 = ot.Sample1D.from_data(rng.standard_normal(n1d))
        y1s = ot.Sample1D.from_data(0.3 + 1.2 * rng.standard_normal(n1d))
        ops.append(Op(
            f"rearrangement_bounds product #{r}", "bounds.rearrangement",
            lambda y0=y0, y1s=y1s: ot.rearrangement_bounds(_product, y0, y1s, "supermodular"),
            lambda iv, y0=y0, y1s=y1s: checks.rearrangement(y0.values, y1s.values, iv.lower, iv.upper),
            size=n1d,
        ))
        ops.append(Op(
            f"kaji_subgroup_bounds (0.2, 0.7) #{r}", "bounds.subgroup",
            lambda y0=y0, sy=sy: ot.kaji_subgroup_bounds(0.2, 0.7, y0, sy),
            lambda iv, y0=y0, y=y: checks.subgroup(y0.values, y, 0.2, 0.7, iv.lower, iv.upper),
            size=n1d,
        ))
        ops.append(Op(
            f"winners_lower_bound (0.1, 0.6) #{r}", "bounds.winners",
            lambda y0=y0, sy=sy: ot.winners_lower_bound(0.1, 0.6, y0, sy),
            lambda v, y0=y0, y=y: checks.winners(y0.values, y, 0.1, 0.6, v),
            size=n1d,
        ))

    for m in witness_rows:
        n = 30
        mu, nu = _probability(rng, m), _probability(rng, n)
        gamma = _dense_relation(rng, m, n, 0.8, 1)

        def call(mu=mu, nu=nu, gamma=gamma):
            return ot.binary_cost_ot(_measure(mu), _measure(nu), ot.BinaryRelation(gamma), witness=True)

        def check(out, mu=mu, nu=nu, gamma=gamma):
            checks.binary_witness(mu, nu, gamma, out[0], out[1])

        ops.append(Op(f"binary_cost_ot witness {m}x{n}", "bounds.witness", call, check, size=m))

    f = rng.random(dro_n)
    loc = rng.random(dro_n)
    delta = np.abs(loc[:, None] - loc[None, :])
    weights = rng.random(dro_n) + 0.5
    ops.append(Op(
        f"dro_expectation_bound n={dro_n}", "bounds.dro",
        lambda: ot.dro_expectation_bound(f, ot.CostMatrix(delta), _measure(weights), rho=0.05),
        lambda v: checks.dro(f, delta, weights, 0.05, v),
        size=dro_n,
    ))
    hn, hd = halton
    ops.append(Op(
        f"halton n={hn} d={hd}", "measures.halton",
        lambda: ot.halton(hn, hd),
        lambda h: checks.halton(h.points, hn, hd),
        size=hn,
    ))
    return ops


# ------------------------------------------------------------------ cli_io


def _write_matrix(path: Path, rows: np.ndarray) -> Path:
    np.savetxt(path, rows, fmt="%.17g", delimiter=",")
    return path


def _write_table(path: Path, flows, singles_x, singles_y) -> Path:
    with open(path, "w", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(["x", "y", "count"])
        nx, ny = flows.shape
        for i in range(nx):
            for j in range(ny):
                out.writerow([i + 1, j + 1, repr(float(flows[i, j]))])
        for i in range(nx):
            out.writerow([i + 1, 0, repr(float(singles_x[i]))])
        for j in range(ny):
            out.writerow([0, j + 1, repr(float(singles_y[j]))])
    return path


def _result(doc: dict, command: str) -> dict:
    checks.require(doc["command"] == command, f"document is for {doc['command']!r}")
    return doc["result"]


def cli_io(seed: int, workdir: Path, quick: bool = False) -> list[CliOp]:
    n_sink = 30 if quick else 300
    n_table = 12 if quick else 120
    n_rows = 2000 if quick else 50000
    rng = _rng(seed, 4)
    ops: list[CliOp] = []

    def path(name: str) -> Path:
        return workdir / name

    mu, nu = _probability(rng, n_sink, 0.5), _probability(rng, n_sink, 0.5)
    cost = rng.random((n_sink, n_sink))
    eps, tol = 0.5, 1e-9
    files = [_write_matrix(path("sk_mu.csv"), mu[:, None]), _write_matrix(path("sk_nu.csv"), nu[:, None]),
             _write_matrix(path("sk_cost.csv"), cost)]

    def check_sinkhorn(doc):
        res = _result(doc, "sinkhorn")
        plan, phi, psi = np.array(res["plan"]), np.array(res["phi"]), np.array(res["psi"])
        checks.sinkhorn(mu, nu, cost, eps, tol, plan, phi, psi)
        checks.close(res["value"], float(np.sum(plan * cost)), 1e-12, "sinkhorn value")
        log_density = (phi[:, None] + psi[None, :] - cost) / eps
        checks.close(res["entropic_value"], res["value"] + eps * float(np.sum(plan * log_density)),
                     1e-10, "entropic value")

    ops.append(CliOp(
        f"sinkhorn {n_sink}x{n_sink}",
        ["sinkhorn", "--mu", str(files[0]), "--nu", str(files[1]), "--cost", str(files[2]),
         "--eps", repr(eps), "--tol", repr(tol)],
        path("sinkhorn.json"), files, check_sinkhorn,
    ))

    flows = np.exp(rng.normal(0.0, 1.0, (n_table, n_table)))
    singles_x = np.exp(rng.normal(1.0, 0.5, n_table))
    singles_y = np.exp(rng.normal(1.0, 0.5, n_table))
    table = _write_table(path("table.csv"), flows, singles_x, singles_y)

    def check_identify(doc):
        got = np.array(_result(doc, "match-identify")["Phi"])
        want = checks.identified_surplus(flows, singles_x, singles_y)
        checks.require(got.shape == want.shape, f"Phi shape {got.shape}")
        checks.require(np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), "Phi differs")

    ops.append(CliOp(f"match-identify {n_table}x{n_table}", ["match-identify", "--table", str(table)],
                     path("identify.json"), [table], check_identify))

    x = rng.standard_normal(n_rows)
    y = 0.5 + 1.5 * rng.standard_normal(n_rows - n_rows // 25)
    xs = [_write_matrix(path("w1d_x.csv"), x[:, None]), _write_matrix(path("w1d_y.csv"), y[:, None])]
    ops.append(CliOp(
        f"w1d {n_rows} rows", ["w1d", "--x", str(xs[0]), "--y", str(xs[1]), "--p", "2"],
        path("w1d.json"), xs,
        lambda doc: checks.close(_result(doc, "w1d")["value"], checks.wasserstein_pp(x, y, 2.0) ** 0.5,
                                 1e-10, "w1d"),
    ))

    y0, y1 = rng.standard_normal(n_rows), 0.3 + 1.2 * rng.standard_normal(n_rows)
    ys = [_write_matrix(path("te_y0.csv"), y0[:, None]), _write_matrix(path("te_y1.csv"), y1[:, None])]

    def check_te(doc):
        res = _result(doc, "bounds-te")
        checks.rearrangement(y0, y1, res["lower"], res["upper"])

    ops.append(CliOp(f"bounds-te product {n_rows} rows",
                     ["bounds-te", "--y0", str(ys[0]), "--y1", str(ys[1]), "--functional", "product"],
                     path("te.json"), ys, check_te))

    d = 2 if quick else 3
    gauss = []
    for k in range(2):
        a = rng.standard_normal((d, d))
        cov = a @ a.T + 0.5 * np.eye(d)
        mean = rng.standard_normal(d)
        gauss.append((mean, cov))
    gfiles = [_write_matrix(path(f"g{k}.csv"), np.vstack([m[None, :], c])) for k, (m, c) in enumerate(gauss)]
    ops.append(CliOp(
        f"gaussian-w2 d={d}", ["gaussian-w2", "--g1", str(gfiles[0]), "--g2", str(gfiles[1])],
        path("gauss.json"), gfiles,
        lambda doc: checks.gaussian_w2(*gauss[0], *gauss[1], _result(doc, "gaussian-w2")["value"]),
    ))
    return ops


IN_PROCESS = {
    "exact_ladder": exact_ladder,
    "scaling_kernels": scaling_kernels,
    "line_bounds": line_bounds,
}
WORKLOADS = ("cli_io", "exact_ladder", "scaling_kernels", "line_bounds")
