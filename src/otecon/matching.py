"""Two-sided matching with transferable utility and its inverse problems.

In the Choo-Siow logit market, equilibrium matched flows and singles obey

    flows[x, y]  = exp(Phi[x, y]) * u[x] * v[y]
    singles_x[x] = u[x]^2,   singles_y[y] = v[y]^2

together with the population adding-up constraints; u, v solve a coupled
fixed point with closed-form positive roots.  The surplus matrix Phi is
nonparametrically identified from one observed table, and linearly
parameterized surplus is estimated by moment matching, computed by
Newton's method as the maximizer of a weighted Poisson pseudo-likelihood.
sista performs proximal-gradient estimation of surplus coefficients under
an l1 penalty, alternating exact Sinkhorn marginal updates with a
soft-thresholded gradient step on the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import EXP_CAP, as_float_array, frozen
from .entropic import _half_sweep_lse
from .errors import (
    DomainError,
    ExpOverflowError,
    NonIdentificationError,
    StepSizeError,
)
from .measures import CostMatrix


@dataclass(frozen=True)
class MatchingTable:
    """Observed or predicted match counts plus singles on each side.

    All entries must be strictly positive: zeros would put log-odds at
    infinity and destroy identification.  ``converged`` and ``iterations``
    are diagnostics attached by the equilibrium solver.
    """

    flows: np.ndarray
    singles_x: np.ndarray
    singles_y: np.ndarray
    converged: bool = True
    iterations: int = 0

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

    hold within tol.  Non-convergence inside max_iter is reported through
    the table's ``converged`` flag rather than an exception.
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
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    k = _guard_exp(p, "surplus")
    v = np.sqrt(nu)
    u = np.sqrt(mu)
    gap = float(mu.sum() - nu.sum())
    converged = False
    it = 0
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
        res = max(
            float(np.max(np.abs(flows.sum(axis=1) + u * u - mu))),
            float(np.max(np.abs(flows.sum(axis=0) + v * v - nu))),
        )
        if res < tol:
            converged = True
            break
    return MatchingTable(
        flows=k * np.outer(u, v),
        singles_x=u * u,
        singles_y=v * v,
        converged=converged,
        iterations=it,
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

    Maximizes the concave :func:`poisson_loglik` over theta = (lam, a, b)
    by damped Newton steps with the exact (K + X + Y)-square Hessian and
    Armijo backtracking, starting from lam = 0 and the fees -log(singles)/2
    of the observed table.  The gradient of the negated likelihood is
    (predicted - observed basis moments) in lam and the adding-up residuals
    (observed - predicted populations) in a and b; iteration stops when
    every entry is below tol, so both the moments and the populations of
    the fitted market match the table within tol.  Returns (lam, a, b): the
    fitted coefficients and the log-inverse single shares, -log(singles)/2,
    of each side of the fitted market; with ``log=True`` a fourth element
    carries the accepted history of the negated likelihood, whose last
    entry equals -poisson_loglik((lam, a, b), table, basis).

    Raises :class:`NonIdentificationError` before the first step when the
    basis, reshaped to (X * Y, K), has column rank below K (the coefficients
    are then not identified), and when the gradient is still above tol
    after max_iter Newton steps, or earlier once backtracking finds no
    decrease, which happens only when tol lies below the float resolution
    of the gradient.
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
    theta = np.concatenate(
        [np.zeros(k), -0.5 * np.log(table.singles_x), -0.5 * np.log(table.singles_y)]
    )
    cuts = [k, k + nx]
    history = [-poisson_loglik(np.split(theta, cuts), table, basis)]
    for steps in range(max_iter + 1):
        lam, a, b = np.split(theta, cuts)
        z = basis.surplus(lam) - a[:, None] - b[None, :]
        e, ea, eb = np.exp(z), np.exp(-2.0 * a), np.exp(-2.0 * b)
        grad = np.concatenate([
            np.einsum("xy,xyk->k", e - table.flows, basis.basis),
            table.mu - e.sum(axis=1) - ea,
            table.nu - e.sum(axis=0) - eb,
        ])
        res = float(np.max(np.abs(grad)))
        if res < tol:
            if log:
                return lam, a, b, {"objectives": tuple(history)}
            return lam, a, b
        if steps == max_iter:
            break
        weighted = e[:, :, None] * basis.basis
        wx, wy = weighted.sum(axis=1), weighted.sum(axis=0)
        hess = np.block([
            [np.einsum("xyk,xyl->kl", weighted, basis.basis), -wx.T, -wy.T],
            [-wx, np.diag(e.sum(axis=1) + 2.0 * ea), e],
            [-wy, e.T, np.diag(e.sum(axis=0) + 2.0 * eb)],
        ])
        newton = np.linalg.solve(hess, grad)
        slope = float(grad @ newton)
        # The Armijo test sums the change of -poisson_loglik term by term with
        # expm1: near the optimum the change falls below the float resolution
        # of the likelihood itself long before the gradient reaches a tight tol.
        t = 1.0
        for _ in range(60):
            dlam, da, db = np.split(-t * newton, cuts)
            dz = basis.surplus(dlam) - da[:, None] - db[None, :]
            exponents = (z + dz, -2.0 * (a + da), -2.0 * (b + db))
            if max(float(np.max(x)) for x in exponents) <= EXP_CAP:
                change = (
                    np.sum(e * np.expm1(dz) - table.flows * dz)
                    + table.singles_x @ da + 0.5 * ea @ np.expm1(-2.0 * da)
                    + table.singles_y @ db + 0.5 * eb @ np.expm1(-2.0 * db)
                )
                if change <= -1e-4 * t * slope:
                    break
            t *= 0.5
        else:
            break
        theta = theta - t * newton
        history.append(-poisson_loglik(np.split(theta, cuts), table, basis))
    raise NonIdentificationError(
        f"moment residual {res!r} above {tol!r} after {steps} Newton steps"
    )


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
    step: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 20000,
    log: bool = False,
):
    """l1-penalized surplus estimation by Sinkhorn plus soft thresholding.

    The entropic matching model with cost c(beta) = -Phi(beta) assigns

        pi[x, y] = exp((phi_x + psi_y - c_xy) / eps),

    and the smooth part of the loss is the negated dual

        -F = -sum_xy pi_hat (phi + psi - c) + eps sum_xy exp((phi + psi - c)/eps).

    Each iteration performs the two exact Sinkhorn marginal updates in the
    log domain (the balanced half-sweeps of :func:`sinkhorn`: block
    minimization of -F in phi, then psi) and one proximal gradient step on
    beta: the gradient of -F in beta is the gap between model and observed
    basis moments, and the prox of the l1 penalty is soft thresholding.  The
    default step is the inverse of the beta-curvature bound of -F at fixed
    potentials, eps / (nu.sum() * max_xy |basis[x, y, :]|^2).
    Backtracking halves the step while the composite objective
    -F + l1 * |beta|_1 would increase; two consecutive exhausted searches
    signal divergence and raise :class:`StepSizeError`.  Iteration stops
    when the coefficient update is smaller than tol.  With ``log=True``
    returns (beta, info) where info carries whether that happened before
    max_iter (``converged``), the composite objective history and the final
    potentials and plan.
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
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    if l1 < 0:
        raise DomainError(f"l1 penalty must be nonnegative, got {l1!r}")
    if step is None:
        # plan mass is nu.sum() after the column update, so the beta-Hessian
        # sum_xy plan_xy b_xy b_xy' / eps of -F is at most this
        curvature = nu.sum() * float(np.max(np.sum(basis.basis**2, axis=2))) / eps
        step = 1.0 / curvature if curvature > 0 else 1.0
    if step <= 0:
        raise DomainError(f"step must be positive, got {step!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")

    beta = (
        np.array(basis.params, dtype=float)
        if basis.params is not None
        else np.zeros(basis.n_params)
    )
    log_mu = np.log(mu)
    log_nu = np.log(nu)
    # f, g are the potentials against mu x nu (phi - eps log mu and
    # psi - eps log nu), so the updates are the balanced Sinkhorn half-sweeps
    g = np.zeros(nu.size)
    ref = eps * (log_mu[:, None] + log_nu[None, :])

    def composite(arg, plan_, beta_) -> float:
        lin = float(np.sum(pi_hat * arg))
        return -lin + eps * float(plan_.sum()) + l1 * float(np.sum(np.abs(beta_)))

    fails = 0
    converged = False
    objectives: list[float] = []
    plan = np.zeros_like(pi_hat)
    for _ in range(max_iter):
        cost = -basis.surplus(beta)
        f = -eps * _half_sweep_lse(log_nu, g, cost, eps, 1)
        g = -eps * _half_sweep_lse(log_mu, f, cost, eps, 0)
        pot = f[:, None] + g[None, :] + ref
        # columns sum to nu after the half-sweep, so this exp cannot overflow
        plan = np.exp((pot - cost) / eps)
        grad = np.einsum("xy,xyk->k", plan - pi_hat, basis.basis)
        current = composite(pot - cost, plan, beta)
        objectives.append(current)
        trial_step = step
        new_beta = beta
        accepted = False
        while trial_step > step * 2.0**-40:
            cand = beta - trial_step * grad
            cand = np.sign(cand) * np.maximum(np.abs(cand) - l1 * trial_step, 0.0)
            arg = pot + basis.surplus(cand)
            trial = composite(arg, _guard_exp(arg / eps, "plan exponent"), cand)
            if trial <= current + 1e-12 * max(1.0, abs(current)):
                new_beta = cand
                accepted = True
                break
            trial_step *= 0.5
        if not accepted:
            fails += 1
            if fails >= 2:
                raise StepSizeError(
                    "backtracking exhausted twice in a row; step size diverged"
                )
            continue
        fails = 0
        delta = float(np.max(np.abs(new_beta - beta)))
        beta = new_beta
        if delta < tol:
            converged = True
            break
    if log:
        info = {
            "converged": converged,
            "objectives": tuple(objectives),
            "phi": f + eps * log_mu,
            "psi": g + eps * log_nu,
            "plan": plan,
        }
        return beta, info
    return beta
