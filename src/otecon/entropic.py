"""Entropic optimal transport: Sinkhorn iterations, balanced and unbalanced.

The balanced problem regularizes the transport LP with the relative entropy
of the plan against the product measure,

    min  <C, pi> + eps * KL(pi | mu x nu)   s.t.  pi has marginals mu, nu,

and is solved by alternating dual updates.  All updates run in the log
domain with max-subtracted log-sum-exp, so small eps is safe.  The
unbalanced variant replaces the hard marginal constraints by generalized
Kullback-Leibler penalties with weights lam_mu, lam_nu; its dual updates
are the balanced ones damped by lam / (lam + eps), followed by a
translation step (translation invariant Sinkhorn, Sejourne, Vialard & Peyre
2022).  Both run one loop, which reads its stop residual off the
log-sum-exps the updates compute anyway and builds the plan once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import check_budget, frozen, logsumexp
from .errors import DomainError
from .measures import CostMatrix, DiscreteMeasure


@dataclass(frozen=True)
class EntropicSolution:
    """Primal plan and dual potentials of an entropic transport problem.

    The plan is stored in closed form from the potentials,
    ``plan[i, j] = mu_i nu_j exp((phi_i + psi_j - C_ij) / eps)``, and the
    balanced potentials are gauge-normalized so that ``phi[0] == 0``.
    ``marginal_errors`` keeps the per-sweep residual history for
    diagnostics: the largest marginal violation for the balanced solver,
    the first-order residual for the unbalanced one.  ``marginal_error`` is
    the largest marginal violation of the plan, for the balanced solver the
    final entry of the history.
    """

    plan: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    eps: float
    iterations: int
    marginal_error: float
    converged: bool
    mu: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    marginal_errors: tuple = field(default=(), repr=False)

    def __post_init__(self) -> None:
        for name in ("plan", "phi", "psi", "mu", "nu"):
            object.__setattr__(self, name, frozen(getattr(self, name)))


def _check_probability(m: DiscreteMeasure, name: str) -> np.ndarray:
    w = _check_positive(m, name)
    if abs(w.sum() - 1.0) > 1e-10:
        raise DomainError(f"{name} must be a probability vector")
    return w


def _check_positive(m: DiscreteMeasure, name: str) -> np.ndarray:
    w = m.weights
    if np.any(w <= 0):
        raise DomainError(f"{name} must have strictly positive weights")
    return w


def _half_sweep_lse(
    log_w: np.ndarray, pot: np.ndarray, c: np.ndarray, eps: float, axis: int
) -> np.ndarray:
    """log sum_k w_k exp((pot_k - c) / eps) along ``axis`` of c.

    -eps times it is the balanced half-sweep: with axis=1 (w, pot indexed by
    column) the row update, which makes the row marginals exact.
    """
    k = (None, slice(None)) if axis == 1 else (slice(None), None)
    return logsumexp(log_w[k] + (pot[k] - c) / eps, axis=axis)


def _scaling_loop(
    w_mu: np.ndarray,
    w_nu: np.ndarray,
    cost: CostMatrix,
    eps: float,
    lam: tuple[float, float] | None,
    tol: float,
    max_iter: int,
) -> EntropicSolution:
    """Damped alternating dual updates; ``lam=None`` is the balanced problem.

    The residual of (phi, psi) comes from d = phi - phi_next, the change the
    next row half-sweep makes: the balanced plan's row sums are
    mu exp(d / eps), and its column sums come from the column log-sum-exp
    just computed.
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    check_budget(tol, max_iter)
    c = cost.entries
    if c.shape != (w_mu.size, w_nu.size):
        raise DomainError(
            f"cost shape {c.shape} does not match measures ({w_mu.size}, {w_nu.size})"
        )
    log_mu = np.log(w_mu)
    log_nu = np.log(w_nu)
    damp_mu = damp_nu = 1.0
    if lam is not None:
        lam_mu, lam_nu = lam
        damp_mu = lam_mu / (lam_mu + eps)
        damp_nu = lam_nu / (lam_nu + eps)
        shift = 1.0 / (1.0 / lam_mu + 1.0 / lam_nu)
    phi_next = -eps * damp_mu * _half_sweep_lse(log_nu, np.zeros(w_nu.size), c, eps, 1)
    errors: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        phi = phi_next
        lse_col = _half_sweep_lse(log_mu, phi, c, eps, 0)
        psi = -eps * damp_nu * lse_col
        if lam is not None:
            t = shift * (
                np.logaddexp.reduce(log_mu - phi / lam_mu)
                - np.logaddexp.reduce(log_nu - psi / lam_nu)
            )
            phi = phi + t
            psi = psi - t
        phi_next = -eps * damp_mu * _half_sweep_lse(log_nu, psi, c, eps, 1)
        d = phi - phi_next
        if lam is None:
            row_error = np.max(np.abs(w_mu * np.expm1(d / eps)))
            col_error = np.max(np.abs(w_nu * np.expm1(psi / eps + lse_col)))
        else:
            # phi + lam_mu log(row / mu) = (lam_mu + eps) / eps * d, and psi
            # met its condition before the shift, so it is off by t after it.
            # d and psi are known to one spacing of the potentials; without
            # it a float fixed point would read as a zero residual.
            ulp_phi = np.spacing(np.max(np.abs(phi)))
            row_error = (lam_mu + eps) / eps * (np.max(np.abs(d)) + ulp_phi)
            col_error = abs(t) + (lam_nu + eps) / eps * np.spacing(np.max(np.abs(psi)))
        errors.append(float(max(row_error, col_error)))
        if errors[-1] < tol:
            converged = True
            break
    if lam is None:
        phi, psi = phi - phi[0], psi + phi[0]
    plan = np.exp(
        log_mu[:, None] + log_nu[None, :] + (phi[:, None] + psi[None, :] - c) / eps
    )
    marginal_error = errors[-1] if lam is None else max(
        float(np.max(np.abs(plan.sum(axis=1) - w_mu))),
        float(np.max(np.abs(plan.sum(axis=0) - w_nu))),
    )
    return EntropicSolution(
        plan=plan,
        phi=phi,
        psi=psi,
        eps=eps,
        iterations=it,
        marginal_error=marginal_error,
        converged=converged,
        mu=w_mu,
        nu=w_nu,
        marginal_errors=tuple(errors),
    )


def sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    eps: float,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> EntropicSolution:
    """Balanced entropic transport by log-domain Sinkhorn iteration.

    Each sweep sets phi to match the row marginals exactly and then psi to
    match the column marginals exactly; the reported residual is the largest
    remaining violation of either marginal constraint, which is nonincreasing
    across sweeps.  It is read off the next sweep's row log-sum-exp and the
    column log-sum-exp just computed.  Terminates once the residual drops
    below tol, else after max_iter sweeps with ``converged=False``.
    """
    w_mu = _check_probability(mu, "mu")
    w_nu = _check_probability(nu, "nu")
    return _scaling_loop(w_mu, w_nu, cost, eps, None, tol, max_iter)


def eot_value(sol: EntropicSolution, cost: CostMatrix) -> tuple[float, float]:
    """Transport cost and full primal objective of an entropic solution.

    Returns ``(transport_cost, primal)`` where primal adds
    ``eps * KL(plan | mu x nu)`` to the transport cost.  The relative
    entropy is evaluated through the potentials, which represent the
    density of the plan against the product measure exactly.
    """
    if not sol.converged:
        raise DomainError("solution did not converge; value would be meaningless")
    c = cost.entries
    if c.shape != sol.plan.shape:
        raise DomainError(
            f"cost shape {c.shape} does not match plan shape {sol.plan.shape}"
        )
    transport = float(np.sum(sol.plan * c))
    log_density = (sol.phi[:, None] + sol.psi[None, :] - c) / sol.eps
    entropy = float(np.sum(sol.plan * log_density))
    return transport, transport + sol.eps * entropy


def unbalanced_sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    eps: float,
    lam_mu: float,
    lam_nu: float,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> EntropicSolution:
    """Unbalanced entropic transport with soft-marginal KL penalties.

    Solves  min <C, pi> + eps KL(pi | mu x nu)
                 + lam_mu KL(pi 1 | mu) + lam_nu KL(pi' 1 | nu)
    over all nonnegative pi, with generalized (unnormalized) KL divergences.
    The dual updates are the balanced Sinkhorn updates multiplied by
    lam / (lam + eps).  Each sweep ends with the shift (phi + t, psi - t),
    t = lam_mu lam_nu / (lam_mu + lam_nu) * (LSE(log mu - phi / lam_mu)
    - LSE(log nu - psi / lam_nu)), which keeps the plan and maximizes the
    dual along that direction; without it the updates creep along it at a
    rate near 1 - eps / lam per sweep.  Convergence is measured on the
    residual of the first-order conditions phi = -lam_mu log(pi 1 / mu) and
    psi = -lam_nu log(pi' 1 / nu): for the rows (lam_mu + eps) / eps times
    the change the next row half-sweep makes to phi, for the columns |t|.
    As lam_mu, lam_nu grow the solution approaches the balanced one.  Unlike
    the balanced solver, mu and nu may have arbitrary positive total masses.
    """
    if lam_mu <= 0 or lam_nu <= 0:
        raise DomainError("marginal penalties lam_mu, lam_nu must be positive")
    w_mu = _check_positive(mu, "mu")
    w_nu = _check_positive(nu, "nu")
    return _scaling_loop(w_mu, w_nu, cost, eps, (lam_mu, lam_nu), tol, max_iter)
