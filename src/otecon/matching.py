"""Two-sided matching with transferable utility and its inverse problems.

In the Choo-Siow logit market, equilibrium matched flows and singles obey

    flows[x, y]  = exp(Phi[x, y]) * u[x] * v[y]
    singles_x[x] = u[x]^2,   singles_y[y] = v[y]^2

together with the population adding-up constraints; u, v solve a coupled
fixed point with closed-form positive roots.  The surplus matrix Phi is
nonparametrically identified from one observed table, and linearly
parameterized surplus is estimated by moment matching, computed by
Newton's method as the maximizer of a weighted Poisson pseudo-likelihood.
sista estimates l1-penalized coefficients by proximal Newton steps on the
entropic dual, jointly over coefficients and potentials.  Both estimators
share one damped Newton loop, which stops on residuals below tol.  The
equilibrium table is a :class:`SolveReport`, with the population residual
per sweep as its history; the fits return one as ``info["report"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import EXP_CAP, as_float_array, check_budget, check_scalar, frozen
from .errors import DomainError, ExpOverflowError, NonIdentificationError
from .measures import (
    CostMatrix, DiscreteMeasure, SolveReport, _NoSolve, _check_balanced,
    _marginal_gap,
)


@dataclass(frozen=True)
class MatchingTable(_NoSolve):
    """Observed or predicted match counts plus singles on each side.

    All entries must be strictly positive: zeros would put log-odds at
    infinity and destroy identification.  The report is that of the
    equilibrium solver; an observed table, built with no report, reads as
    converged at step 0.
    """

    flows: np.ndarray
    singles_x: np.ndarray
    singles_y: np.ndarray

    def __post_init__(self) -> None:
        fl = as_float_array(self.flows, "flows", ndim=2)
        sx = as_float_array(self.singles_x, "singles_x", ndim=1)
        sy = as_float_array(self.singles_y, "singles_y", ndim=1)
        if fl.shape != (sx.size, sy.size):
            raise DomainError(
                f"flows must be {sx.size} x {sy.size}, got {fl.shape}"
            )
        if np.any(fl <= 0) or np.any(sx <= 0) or np.any(sy <= 0):
            raise DomainError("all flows and singles must be strictly positive")
        object.__setattr__(self, "flows", frozen(fl))
        object.__setattr__(self, "singles_x", frozen(sx))
        object.__setattr__(self, "singles_y", frozen(sy))

    @property
    def mu(self) -> np.ndarray:
        """Total mass of each x type: matched plus single."""
        return self.flows.sum(axis=1) + self.singles_x

    @property
    def nu(self) -> np.ndarray:
        """Total mass of each y type: matched plus single."""
        return self.flows.sum(axis=0) + self.singles_y


@dataclass(frozen=True)
class SurplusBasis:
    """Linear surplus specification Phi(beta) = sum_k beta_k basis[:, :, k]."""

    basis: np.ndarray
    params: np.ndarray | None = None

    def __post_init__(self) -> None:
        b = as_float_array(self.basis, "basis", ndim=3)
        object.__setattr__(self, "basis", frozen(b))
        if self.params is not None:
            p = as_float_array(self.params, "params", ndim=1)
            if p.size != b.shape[2]:
                raise DomainError(
                    f"params must have length {b.shape[2]}, got {p.size}"
                )
            object.__setattr__(self, "params", frozen(p))

    @property
    def n_params(self) -> int:
        return self.basis.shape[2]

    def surplus(self, beta: np.ndarray) -> np.ndarray:
        beta = as_float_array(beta, "beta", ndim=1)
        if beta.size != self.n_params:
            raise DomainError(f"beta must have length {self.n_params}")
        return self.basis @ beta


def _guard_exp(z: np.ndarray, what: str) -> np.ndarray:
    if np.max(z) > EXP_CAP:
        raise ExpOverflowError(f"{what} exceeds the exp overflow guard ({EXP_CAP})")
    return np.exp(z)


def _exponent(basis: SurplusBasis, theta: np.ndarray, nx: int) -> np.ndarray:
    """basis @ theta[:K] + p_x + q_y for theta = (coefficients, p, q)."""
    beta, p, q = np.split(theta, [basis.n_params, basis.n_params + nx])
    return basis.surplus(beta) + p[:, None] + q[None, :]


def _cell_terms(m: np.ndarray, basis: SurplusBasis):
    """Gradient and Hessian of sum_xy m_xy exp(z_xy) at z = 0 (z: _exponent)."""
    weighted = m[:, :, None] * basis.basis
    wx, wy = weighted.sum(axis=1), weighted.sum(axis=0)
    rows, cols = m.sum(axis=1), m.sum(axis=0)
    grad = np.concatenate([wx.sum(axis=0), rows, cols])
    hess = np.block([
        [np.einsum("xyk,xyl->kl", weighted, basis.basis), wx.T, wy.T],
        [wx, np.diag(rows), m],
        [wy, m.T, np.diag(cols)],
    ])
    return grad, hess


def _prox_newton(state, theta, k, l1, tol, max_iter):
    """Damped proximal Newton on F(theta) + l1 |theta[:k]|_1, F smooth convex.

    ``state(theta)`` returns F's value, gradient and Hessian, the residuals
    of the optimality conditions in theta[k:] (they may cover conditions met
    only implicitly), and ``change(d)`` = F(theta + d) - F(theta) summed term
    by term, since near the optimum a Newton step's decrease falls below the
    float resolution of F itself; it is inf where an exponent passes the guard.

    Each step minimizes the second-order model plus the penalty: theta[k:]
    is eliminated by a Schur complement, and the lasso left in theta[:k] is
    solved by coordinate descent from the Newton step (kept when l1 = 0); a
    coordinate with zero curvature keeps its value.  Armijo backtracking
    damps the step.  Returns (theta, report), the residual the largest of
    those residuals and |beta - soft(beta - grad_beta, l1)|, the history the
    objective at the start and after each step.  It stops at "tol" once the
    residual is below tol, at "max_iter" after max_iter steps of at most 60
    halvings each, and at "step_exhausted" when backtracking finds no
    decrease or the Hessian block of theta[k:] is singular (cells at 0).
    """
    check_budget(tol, max_iter)
    history = []
    for steps in range(max_iter + 1):
        value, grad, hess, pot_res, change = state(theta)
        beta = theta[:k]
        penalty = l1 * np.abs(beta).sum()
        history.append(float(value + penalty))
        # beta - soft(beta - grad, l1), written so that it is exactly grad at l1 = 0
        prox_res = grad[:k] + np.clip(beta - grad[:k], -l1, l1)
        res = float(np.max(np.abs(np.concatenate([prox_res, pot_res]))))
        if res < tol or steps == max_iter:
            break
        try:
            solved = np.linalg.solve(
                hess[k:, k:], np.column_stack([grad[k:], hess[k:, :k]])
            )
        except np.linalg.LinAlgError:
            break
        schur = hess[:k, :k] - hess[:k, k:] @ solved[:, 1:]
        reduced = grad[:k] - hess[:k, k:] @ solved[:, 0]
        z = beta - np.linalg.pinv(schur) @ reduced
        # the cap is for nearly singular models; every sweep lowers the model
        for _ in range(1000):
            last = z.copy()
            for j in np.flatnonzero(np.diag(schur) > 0):
                u = z[j] - (reduced[j] + schur[j] @ (z - beta)) / schur[j, j]
                z[j] = np.sign(u) * max(abs(u) - l1 / schur[j, j], 0.0)
            if np.all(np.abs(z - last) <= 1e-12 + 1e-12 * np.abs(last)):
                break
        step = np.concatenate([z - beta, -solved[:, 0] - solved[:, 1:] @ (z - beta)])
        slope = grad @ step + l1 * np.abs(z).sum() - penalty
        for t in 0.5 ** np.arange(60.0):
            delta = change(t * step) + l1 * np.abs(beta + t * step[:k]).sum() - penalty
            if delta <= 1e-4 * t * slope:
                break
        else:
            break
        theta = theta + t * step
    unmet = "max_iter" if steps == max_iter else "step_exhausted"
    stop_reason = "tol" if res < tol else unmet
    return theta, SolveReport(
        iterations=steps, stop_reason=stop_reason, residual=res, history=tuple(history)
    )


def cs_equilibrium(
    phi: CostMatrix,
    mu: np.ndarray,
    nu: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> MatchingTable:
    """Solve the logit matching equilibrium for given surplus and populations.

    Iterates the closed-form positive-root updates

        u_x = 2 mu_x / (s_x + sqrt(s_x^2 + 4 mu_x)),  s_x = sum_y K_xy v_y
        v_y = 2 nu_y / (t_y + sqrt(t_y^2 + 4 nu_y)),  t_y = sum_x K_xy u_x

    (the roots of u^2 + s u = mu, written so that they do not cancel to 0
    when s^2 >> mu), with K = exp(Phi).  After each sweep (u, v) is
    rescaled to (c u, v / c), which keeps every flow, with c chosen so that
    the single totals match the population totals; without this step the
    alternation creeps along that direction at O(1/iteration) when
    surpluses are large.  Iteration stops when the population constraints

        mu_x = u_x^2 + u_x s_x,   nu_y = v_y^2 + v_y t_y

    hold within tol.  The table's report keeps their largest violation per
    sweep, and reports non-convergence inside max_iter, not an exception.
    """
    mu = as_float_array(mu, "mu", ndim=1)
    nu = as_float_array(nu, "nu", ndim=1)
    if np.any(mu <= 0) or np.any(nu <= 0):
        raise DomainError("populations must be strictly positive")
    p = phi.entries
    if p.shape != (mu.size, nu.size):
        raise DomainError(
            f"surplus shape {p.shape} does not match populations"
            f" ({mu.size}, {nu.size})"
        )
    check_budget(tol, max_iter)
    k = _guard_exp(p, "surplus")
    v = np.sqrt(nu)
    u = np.sqrt(mu)
    gap = float(mu.sum() - nu.sum())
    errors: list[float] = []
    for it in range(1, max_iter + 1):
        s = k @ v
        u = 2.0 * mu / (s + np.sqrt(s * s + 4.0 * mu))
        t = k.T @ u
        v = 2.0 * nu / (t + np.sqrt(t * t + 4.0 * nu))
        # (c u, v / c) leaves every flow unchanged; pick c so the single
        # totals absorb the population gap: a c^2 - b / c^2 = gap.
        a, b = float(u @ u), float(v @ v)
        root = np.sqrt(gap * gap + 4.0 * a * b)
        c = np.sqrt((gap + root) / (2.0 * a) if gap >= 0 else 2.0 * b / (root - gap))
        u = u * c
        v = v / c
        flows = k * np.outer(u, v)
        rows, cols = flows.sum(axis=1) + u * u, flows.sum(axis=0) + v * v
        errors.append(_marginal_gap(rows, cols, mu, nu))
        if errors[-1] < tol:
            break
    return MatchingTable(
        flows=flows,
        singles_x=u * u,
        singles_y=v * v,
        iterations=it,
        stop_reason="tol" if errors[-1] < tol else "max_iter",
        residual=errors[-1],
        history=tuple(errors),
    )


def cs_identify(table: MatchingTable) -> CostMatrix:
    """Recover the surplus matrix from one observed matching table.

    Phi[x, y] = log flows[x, y] - log(singles_x[x]) / 2 - log(singles_y[y]) / 2.
    Composing with :func:`cs_equilibrium` at the table's own populations
    reproduces the table.
    """
    phi = (
        np.log(table.flows)
        - 0.5 * np.log(table.singles_x)[:, None]
        - 0.5 * np.log(table.singles_y)[None, :]
    )
    return CostMatrix(phi)


def moment_matching(
    table: MatchingTable,
    basis: SurplusBasis,
    tol: float = 1e-9,
    max_iter: int = 1000,
    log: bool = False,
):
    """Fit surplus coefficients so predicted basis moments match observed ones.

    Maximizes the concave :func:`poisson_loglik` over theta = (lam, a, b) by
    :func:`_prox_newton` (l1 = 0) from lam = 0 and the observed table's fees
    -log(singles)/2, until the fitted market matches the table's basis
    moments and populations (the adding-up residuals) within tol, or until
    max_iter steps or a backtracking that finds no decrease (which happens
    only when tol lies below the float resolution of the gradient).  Returns
    the last iterate (lam, a, b), a and b being -log(singles)/2 of the
    fitted market; with ``log=True`` a fourth element, info, holds
    ``report``, the loop's :class:`SolveReport`, and ``objectives``, its
    history: the negated likelihood at the start and after each step.

    Raises :class:`NonIdentificationError` before the first step when the
    basis, reshaped to (X * Y, K), has column rank below K: the
    coefficients are then not identified.
    """
    if basis.basis.shape[:2] != table.flows.shape:
        raise DomainError(
            f"basis shape {basis.basis.shape[:2]} does not match table"
            f" {table.flows.shape}"
        )
    nx, ny, k = basis.basis.shape
    if np.linalg.matrix_rank(basis.basis.reshape(nx * ny, k)) < k:
        raise NonIdentificationError(
            "basis columns are linearly dependent; coefficients are not identified"
        )
    target = np.concatenate([
        np.einsum("xy,xyk->k", table.flows, basis.basis), table.mu, table.nu
    ])

    # theta = (lam, -a, -b), so that the exponent is that of _exponent
    def state(theta):
        z = _exponent(basis, theta, nx)
        e, es = np.exp(z), np.exp(2.0 * theta[k:])
        grad, hess = _cell_terms(e, basis)
        grad += np.concatenate([np.zeros(k), es]) - target
        hess[k:, k:] += np.diag(2.0 * es)

        def change(step):
            dz = _exponent(basis, step, nx)
            if max(np.max(z + dz), 2.0 * np.max(theta[k:] + step[k:])) > EXP_CAP:
                return np.inf
            singles = 0.5 * es @ np.expm1(2.0 * step[k:])
            return np.sum(e * np.expm1(dz)) + singles - target @ step

        value = np.sum(e) + 0.5 * np.sum(es) - target @ theta
        return value, grad, hess, grad[k:], change

    start = np.concatenate(
        [np.zeros(k), 0.5 * np.log(table.singles_x), 0.5 * np.log(table.singles_y)]
    )
    theta, report = _prox_newton(state, start, k, 0.0, tol, max_iter)
    lam, na, nb = np.split(theta, [k, k + nx])
    if log:
        # otbench/workloads.py counts the steps by the length of "objectives"
        return lam, -na, -nb, {"report": report, "objectives": report.history}
    return lam, -na, -nb


def poisson_loglik(
    theta: tuple[np.ndarray, np.ndarray, np.ndarray],
    table: MatchingTable,
    basis: SurplusBasis,
) -> float:
    """Weighted Poisson pseudo-log-likelihood of a parameterized market.

    theta = (lam, a, b) with surplus Phi = basis @ lam and fees a, b.  The
    likelihood treats matched cells and singles as Poisson counts with
    intensities exp(Phi - a - b), exp(-2a), exp(-2b):

        sum_xy flows_xy (Phi - a - b) - sum_xy exp(Phi - a - b)
        - sum_x singles_x a_x - (1/2) sum_x exp(-2 a_x)
        - sum_y singles_y b_y - (1/2) sum_y exp(-2 b_y)

    Its maximizer over theta coincides with the moment-matching estimator.
    Exponents beyond the overflow guard raise loudly rather than returning inf.
    """
    lam, a, b = theta
    a = as_float_array(a, "a", ndim=1)
    b = as_float_array(b, "b", ndim=1)
    phi = basis.surplus(lam)
    if phi.shape != table.flows.shape:
        raise DomainError("basis shape does not match the table")
    if a.size != phi.shape[0] or b.size != phi.shape[1]:
        raise DomainError("fee vectors must match the table dimensions")
    z = phi - a[:, None] - b[None, :]
    ez = _guard_exp(z, "match intensity exponent")
    ea = _guard_exp(-2.0 * a, "single intensity exponent")
    eb = _guard_exp(-2.0 * b, "single intensity exponent")
    return float(
        np.sum(table.flows * z)
        - np.sum(ez)
        - float(table.singles_x @ a)
        - 0.5 * float(ea.sum())
        - float(table.singles_y @ b)
        - 0.5 * float(eb.sum())
    )


def sista(
    pi_hat: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    basis: SurplusBasis,
    eps: float,
    l1: float = 0.0,
    tol: float = 1e-10,
    max_iter: int = 1000,
    log: bool = False,
):
    """l1-penalized surplus estimation by proximal Newton on the entropic dual.

    The entropic matching model with cost -Phi(beta) has the plan
    pi = mu_x nu_y exp((f_x + g_y + Phi_xy(beta)) / eps).  From
    ``basis.params`` (or 0) and f = g = 0, :func:`_prox_newton` minimizes

        L(beta, f, g) = -<pi_hat, Phi(beta)> - mu . f - nu . g
                        + eps sum_xy pi[x, y] + l1 |beta|_1.

    L is unchanged by (f + c, g - c) only when mu and nu have equal totals
    (else :class:`InfeasibleError`, at 1e-10 relative); g's last entry is
    held at 0.  ``tol`` bounds |beta - soft(beta - grad_beta, l1)| (at
    l1 = 0, the gap between model and observed basis moments) and the gaps
    of the plan's row and column sums to mu and nu.  ``log=True`` returns
    (beta, info), info holding ``report``, the loop's :class:`SolveReport`,
    ``objectives``, its history of L at the start and after each step,
    phi = f + eps log mu, psi = g + eps log nu and the plan.

    Raises :class:`NonIdentificationError` before the first step when the
    basis, reshaped to (X * Y, K) and stacked with the X row and Y column
    indicators, has rank below K + X + Y - 1: some combination of basis
    columns is then additive in x and y, the potentials absorb it, and L
    does not determine beta.
    """
    pi_hat = as_float_array(pi_hat, "pi_hat", ndim=2)
    mu = as_float_array(mu, "mu", ndim=1)
    nu = as_float_array(nu, "nu", ndim=1)
    if np.any(pi_hat <= 0):
        raise DomainError("pi_hat must be strictly positive")
    if np.any(mu <= 0) or np.any(nu <= 0):
        raise DomainError("marginals must be strictly positive")
    if pi_hat.shape != (mu.size, nu.size):
        raise DomainError(
            f"pi_hat shape {pi_hat.shape} does not match marginals"
            f" ({mu.size}, {nu.size})"
        )
    if basis.basis.shape[:2] != pi_hat.shape:
        raise DomainError("basis shape does not match pi_hat")
    check_scalar(eps, "eps", 0.0, strict=True)
    check_scalar(l1, "l1", 0.0)
    _check_balanced(DiscreteMeasure(mu), DiscreteMeasure(nu))

    nx, ny, k = basis.basis.shape
    cells = basis.basis.reshape(nx * ny, k)
    scale = np.abs(cells).max(axis=0)
    stacked = np.hstack([
        cells / np.where(scale > 0, scale, 1.0),  # so the test ignores column units
        np.repeat(np.eye(nx), ny, axis=0),
        np.tile(np.eye(ny), (nx, 1)),
    ])
    if np.linalg.matrix_rank(stacked) < k + nx + ny - 1:
        raise NonIdentificationError(
            "a combination of basis columns is additive in x and y;"
            " coefficients are not identified"
        )
    log_ref = np.log(mu)[:, None] + np.log(nu)[None, :]
    target = np.concatenate([np.einsum("xy,xyk->k", pi_hat, basis.basis), mu, nu[:-1]])

    # theta = (beta, f, g without its last entry, which is held at 0)
    def state(theta):
        w = log_ref + _exponent(basis, np.append(theta, 0.0), nx) / eps
        plan = _guard_exp(w, "plan exponent")
        grad, hess = _cell_terms(plan, basis)
        margins = np.concatenate([plan.sum(axis=1) - mu, plan.sum(axis=0) - nu])

        def change(step):
            dw = _exponent(basis, np.append(step, 0.0), nx) / eps
            if np.max(w + dw) > EXP_CAP:
                return np.inf
            return eps * np.sum(plan * np.expm1(dw)) - target @ step

        value = eps * plan.sum() - target @ theta
        return value, grad[:-1] - target, hess[:-1, :-1] / eps, margins, change

    start = np.zeros(k + nx + ny - 1)
    start[:k] = basis.params if basis.params is not None else 0.0
    theta, report = _prox_newton(state, start, k, l1, tol, max_iter)
    beta, f, g = np.split(np.append(theta, 0.0), [k, k + nx])
    if log:
        info = {
            "report": report,
            # otbench/workloads.py counts the steps by the length of "objectives",
            # and acceptance criterion 8 checks that they never rise
            "objectives": report.history,
            "phi": f + eps * np.log(mu),
            "psi": g + eps * np.log(nu),
            "plan": np.exp(log_ref + _exponent(basis, np.append(theta, 0.0), nx) / eps),
        }
        return beta, info
    return beta
