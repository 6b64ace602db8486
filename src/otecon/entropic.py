"""Entropic optimal transport: Sinkhorn iterations, balanced and unbalanced.

The balanced problem regularizes the transport LP with the relative entropy
of the plan against the product measure,

    min  <C, pi> + eps * KL(pi | mu x nu)   s.t.  pi has marginals mu, nu,

and is solved by alternating dual updates.  The updates run as stabilized
kernel scaling (Schmitzer 2019): log potentials are held in a Gibbs kernel
and each half-sweep is one matrix-vector product with it; scalings that
grow past a threshold are absorbed into the log potentials, which rebuilds
the kernel, so small eps is safe.  The first row half-sweep runs in the log
domain with max-subtracted log-sum-exp, and so does any half-sweep whose
product under- or overflows.  The unbalanced variant replaces the hard
marginal constraints by generalized Kullback-Leibler penalties with weights
lam_mu, lam_nu; its updates are the balanced ones raised to the power
lam / (lam + eps) (Chizat, Peyre, Schmitzer & Vialard 2018), followed by a
translation step (translation invariant Sinkhorn, Sejourne, Vialard & Peyre
2022).  Both run one loop, which reads its stop residual off the products
the updates compute anyway and builds the plan once, at the end.  Once the
residual contracts at a measured rate theta per sweep for which
omega = 2 / (1 + sqrt(1 - theta)) is at most OMEGA_CAP, the loop
over-relaxes each half-sweep by that omega (Thibault, Chizat, Dossal &
Papadakis 2021), and it returns to plain sweeps for good if the residual
then grows past REVERT times its value where relaxation began.  The
solution is a :class:`SolveReport` with that residual of each sweep as its
history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import check_budget, check_scalar, frozen
from .errors import DomainError
from .measures import (
    CostMatrix, DiscreteMeasure, SolveReport, _check_cost_shape, _marginal_gap,
)


@dataclass(frozen=True)
class EntropicSolution(SolveReport):
    """Primal plan and dual potentials of an entropic transport problem.

    The plan is stored in closed form from the potentials,
    ``plan[i, j] = mu_i nu_j exp((phi_i + psi_j - C_ij) / eps)``, and the
    balanced potentials are gauge-normalized so that ``phi[0] == 0``.  The
    report's residual, like each entry of its per-sweep history, is the
    largest marginal violation for the balanced solver and the first-order
    residual for the unbalanced one.
    """

    plan: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    eps: float

    def __post_init__(self) -> None:
        for name in ("plan", "phi", "psi"):
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


# A scaling that leaves [1 / TAU, TAU] is absorbed into the log potentials.
TAU = 1e3
_TINY = np.finfo(float).tiny
# Over-relaxation (see _scaling_loop): the sweep from which the contraction
# rate is measured, the sweeps it is measured over, the largest omega and the
# growth of the residual that ends relaxation.
WARMUP = 20
WINDOW = 10
OMEGA_CAP = 1.75
REVERT = 10.0


def _half_sweep_lse(
    log_w: np.ndarray, pot: np.ndarray, c: np.ndarray, eps: float, axis: int
) -> np.ndarray:
    """log sum_k w_k exp((pot_k - c) / eps) along ``axis`` of c.

    -eps times it is the balanced half-sweep: with axis=1 (w, pot indexed by
    column) the row update, which makes the row marginals exact.  The max
    along ``axis``, where it is finite, is subtracted before exp.
    """
    k = (None, slice(None)) if axis == 1 else (slice(None), None)
    a = log_w[k] + (pot[k] - c) / eps
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    return np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)


def _gibbs(
    log_mu: np.ndarray, log_nu: np.ndarray, f: np.ndarray, g: np.ndarray,
    c: np.ndarray, eps: float,
) -> np.ndarray:
    """mu_i nu_j exp((f_i + g_j - C_ij) / eps), the plan of potentials (f, g)."""
    return np.exp(log_mu[:, None] + log_nu[None, :] + (f[:, None] + g[None, :] - c) / eps)


def _kernel(
    log_mu: np.ndarray, log_nu: np.ndarray, f: np.ndarray, g: np.ndarray,
    c: np.ndarray, eps: float,
) -> np.ndarray:
    """The Gibbs kernel of (f, g) with subnormal entries set to zero.

    With scalings in [1 / TAU, TAU] that moves a product by less than
    m n TAU 2^-1022, far below the rounding of sums near the marginals;
    left in, subnormal entries make every product several times slower.
    """
    k = _gibbs(log_mu, log_nu, f, g, c, eps)
    k[k < _TINY] = 0.0
    return k


def _scaling(
    s: np.ndarray, w: np.ndarray, pot: np.ndarray, shift: float, damp: float,
    eps: float, prev: np.ndarray, omega: float,
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """Half-sweep scalings against the kernel product s, and whether in range.

    Returns (x, y, in_range).  Balanced x = w / s, which makes that marginal
    exact; damped x = exp((damp - 1) (pot + shift) / eps) (w / s)^damp,
    pot + shift being the log potential the kernel holds.  y is the scaling
    to use, prev^(1 - omega) x^omega, x itself at omega = 1; it is None when
    zero or not finite, which happens when s has a zero or non-finite entry
    or a power over- or underflows, and the flag says whether it lies in
    [1 / TAU, TAU].
    """
    x = w / s
    if damp != 1.0:
        x = np.exp(damp * np.log(x) + (damp - 1.0) / eps * (pot + shift))
    y = x if omega == 1.0 else x * (prev / x) ** (1.0 - omega)
    lo, hi = np.minimum.reduce(y), np.maximum.reduce(y)
    if not (0.0 < lo and hi < np.inf):
        return x, None, False
    return x, y, 1.0 / TAU <= lo and hi <= TAU


def _scaling_loop(
    w_mu: np.ndarray,
    w_nu: np.ndarray,
    cost: CostMatrix,
    eps: float,
    lam: tuple[float, float] | None,
    tol: float,
    max_iter: int,
) -> EntropicSolution:
    """Damped, over-relaxed alternating dual updates; ``lam=None`` is balanced.

    Stabilized kernel scaling (Schmitzer 2019, section 3): the potentials are
    phi = f + eps log u and psi = g + eps log v, with log potentials (f, g)
    held in the kernel K = mu x nu exp((f + g - C) / eps), so that each
    half-sweep is one product with K and a scaling update.  A scaling that
    leaves [1 / TAU, TAU] is absorbed into (f, g), which rebuilds K with one
    exp.  f starts from the log-domain row half-sweep, and a half-sweep whose
    scaling is zero or not finite is absorbed and redone in the log domain.
    The translation steps add to (f, g) only at an absorption, so that K
    stays the kernel of f + g to the last bit.

    Each half-sweep is over-relaxed (Thibault, Chizat, Dossal & Papadakis
    2021; Lehmann, von Renesse, Sambale & Uschmajew 2022): its new potential
    is (1 - omega) times the old one plus omega times the damped update, the
    scaling prev^(1 - omega) x^omega, and the log-domain half-sweeps do the
    same.  The sweeps are plain (omega = 1) until the residual contracts at a
    rate theta per sweep, measured over the last WINDOW sweeps from sweep
    WARMUP on, for which omega = 2 / (1 + sqrt(1 - theta)), the choice of
    successive over-relaxation that turns the rate theta into about
    omega - 1, is at most OMEGA_CAP; that omega holds from the next sweep
    on.  A residual that hardly falls can be a plateau of the largest
    violation rather than a slow linear rate, and relaxing it at omega near
    2 can take more sweeps than the plain loop, so such a rate waits.  If the
    residual ever exceeds REVERT times its value where relaxation began,
    the loop returns to plain sweeps for good.

    The balanced residual is the largest violation of the true marginals of
    the current scalings, u (K v) - mu and v (K' u) - nu.  The unbalanced one
    comes from d = phi - phi_next, the change the next row half-sweep makes
    before relaxation (the relaxed change reads omega times too large), here
    eps log(u / x); for the columns from the translation t and from how far
    relaxation left psi from its update.
    """
    check_scalar(eps, "eps", 0.0, strict=True)
    check_budget(tol, max_iter)
    _check_cost_shape(cost, w_mu.size, w_nu.size)
    c = cost.entries
    log_mu = np.log(w_mu)
    log_nu = np.log(w_nu)
    damp_mu = damp_nu = 1.0
    if lam is not None:
        lam_mu, lam_nu = lam
        damp_mu = lam_mu / (lam_mu + eps)
        damp_nu = lam_nu / (lam_nu + eps)
        shift = 1.0 / (1.0 / lam_mu + 1.0 / lam_nu)
    m, n = w_mu.size, w_nu.size
    f = -eps * damp_mu * _half_sweep_lse(log_nu, np.zeros(n), c, eps, 1)
    g = np.zeros(n)
    kernel = _kernel(log_mu, log_nu, f, g, c, eps)
    u_next, v = np.ones(m), np.ones(n)
    # t_sum: translation not yet added to (f, g); f_next: a log-domain row
    # half-sweep's phi_next, which becomes f at the next sweep
    t_sum, f_next = 0.0, None
    in_range = True
    omega, ceiling = 1.0, np.inf
    errors: list[float] = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            if f_next is not None or not in_range:
                if f_next is None:
                    f_next = f + t_sum + eps * np.log(u_next)
                f, g = f_next, g - t_sum + eps * np.log(v)
                kernel = _kernel(log_mu, log_nu, f, g, c, eps)
                u_next, v = np.ones(m), np.ones(n)
                t_sum, f_next = 0.0, None
            u = u_next
            # col_lag: largest |psi - psi_x|, psi_x the column update before relaxation
            col_lag = 0.0
            ktu = kernel.T @ u
            x, v_new, in_range = _scaling(ktu, w_nu, g, -t_sum, damp_nu, eps, v, omega)
            if v_new is None:
                f = f + t_sum + eps * np.log(u)
                g_new = -eps * damp_nu * _half_sweep_lse(log_mu, f, c, eps, 0)
                if omega != 1.0:
                    lag = (1.0 - omega) * (g - t_sum + eps * np.log(v) - g_new)
                    g_new, col_lag = g_new + lag, np.abs(lag).max()
                g = g_new
                kernel = _kernel(log_mu, log_nu, f, g, c, eps)
                u, v = np.ones(m), np.ones(n)
                t_sum, in_range = 0.0, True
                ktu = kernel.sum(axis=0)
            else:
                v = v_new
                if omega != 1.0 and lam is not None:
                    col_lag = eps * np.abs(np.log(v / x)).max()
            if lam is not None:
                phi = f + t_sum + eps * np.log(u)
                psi = g - t_sum + eps * np.log(v)
                t = shift * (
                    np.logaddexp.reduce(log_mu - phi / lam_mu)
                    - np.logaddexp.reduce(log_nu - psi / lam_nu)
                )
                t_sum += t
                phi, psi = phi + t, psi - t
            kv = kernel @ v
            x, u_next, u_in_range = _scaling(kv, w_mu, f, t_sum, damp_mu, eps, u, omega)
            in_range = in_range and u_in_range
            if u_next is None:
                phi = f + t_sum + eps * np.log(u)
                psi = g - t_sum + eps * np.log(v)
                f_next = -eps * damp_mu * _half_sweep_lse(log_nu, psi, c, eps, 1)
                d = phi - f_next
                if omega != 1.0:
                    f_next = phi - omega * d
                row = w_mu * np.exp(d / eps)
            elif lam is None:
                row = u * kv
            else:
                d = eps * np.log(u / x)
            if lam is None:
                errors.append(_marginal_gap(row, v * ktu, w_mu, w_nu))
            else:
                # phi + lam_mu log(row / mu) = (lam_mu + eps) / eps * d, and psi
                # was off its condition by (lam_nu + eps) / eps * col_lag before
                # the shift, and by up to t more after it.  d and psi are known
                # to one spacing of the potentials; without it a float fixed
                # point would read as a zero residual.
                ulp_phi = np.spacing(np.abs(phi).max())
                row_error = (lam_mu + eps) / eps * (np.abs(d).max() + ulp_phi)
                col_error = abs(t) + (lam_nu + eps) / eps * (
                    col_lag + np.spacing(np.abs(psi).max())
                )
                errors.append(float(max(row_error, col_error)))
            if errors[-1] < tol:
                break
            if ceiling == np.inf and it >= WARMUP:
                theta = (errors[-1] / errors[-1 - WINDOW]) ** (1.0 / WINDOW)
                rate_omega = 2.0 / (1.0 + max(1.0 - theta, 0.0) ** 0.5)
                if rate_omega <= OMEGA_CAP:
                    omega, ceiling = rate_omega, REVERT * errors[-1]
            elif errors[-1] > ceiling:
                omega = 1.0
    phi = f + t_sum + eps * np.log(u)
    psi = g - t_sum + eps * np.log(v)
    if lam is None:
        phi, psi = phi - phi[0], psi + phi[0]
    return EntropicSolution(
        plan=_gibbs(log_mu, log_nu, phi, psi, c, eps),
        phi=phi,
        psi=psi,
        eps=eps,
        iterations=it,
        stop_reason="tol" if errors[-1] < tol else "max_iter",
        residual=errors[-1],
        history=tuple(errors),
    )


def sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    eps: float,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> EntropicSolution:
    """Balanced entropic transport by Sinkhorn iteration with kernel scaling.

    Each plain sweep sets phi to match the row marginals exactly and then
    psi to match the column marginals exactly; the reported residual is the
    largest remaining violation of either marginal constraint.  Once the
    residual contracts at a measured rate theta per sweep for which
    omega = 2 / (1 + sqrt(1 - theta)) is at most OMEGA_CAP (not before sweep
    WARMUP), each half-sweep moves the potential omega times as far; if the
    residual then grows past REVERT times its value where relaxation began,
    the sweeps are plain again for good.  The residual falls at every plain
    sweep on well-conditioned problems, but not on all of them (at eps =
    0.001 a plain sweep can raise it), and relaxed sweeps need not lower it
    at every step.  It is read off the true marginals u (K v) and v (K' u)
    of the current scalings, from the kernel products the two half-sweeps
    compute.  Terminates once the residual drops below tol, else after
    max_iter sweeps with ``converged=False``.
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
    lam / (lam + eps), that is the balanced kernel scalings raised to that
    power.  Each sweep ends with the shift (phi + t, psi - t),
    t = lam_mu lam_nu / (lam_mu + lam_nu) * (LSE(log mu - phi / lam_mu)
    - LSE(log nu - psi / lam_nu)), which keeps the plan and the kernel and
    maximizes the dual along that direction; without it the updates creep
    along it at a rate near 1 - eps / lam per sweep.  Convergence is measured on the
    residual of the first-order conditions phi = -lam_mu log(pi 1 / mu) and
    psi = -lam_nu log(pi' 1 / nu): for the rows (lam_mu + eps) / eps times
    the change the next row half-sweep makes to phi, for the columns |t|.
    Over-relaxation follows the rule of :func:`sinkhorn`; the row residual
    is then read off the unrelaxed half-sweep, since the relaxed change is
    omega times as large, and the column residual adds (lam_nu + eps) / eps
    times how far relaxation left psi from its update.
    As lam_mu, lam_nu grow the solution approaches the balanced one.  Unlike
    the balanced solver, mu and nu may have arbitrary positive total masses.
    """
    check_scalar(lam_mu, "lam_mu", 0.0, strict=True)
    check_scalar(lam_nu, "lam_nu", 0.0, strict=True)
    w_mu = _check_positive(mu, "mu")
    w_nu = _check_positive(nu, "nu")
    return _scaling_loop(w_mu, w_nu, cost, eps, (lam_mu, lam_nu), tol, max_iter)
