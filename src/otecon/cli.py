"""Command line front end: CSV inputs, solver dispatch, JSON output.

Every command writes a single JSON document with five fixed keys:
``command``, ``version``, ``config`` (the resolved options), ``result``
(the payload) and ``diagnostics``.  An iterative command's diagnostics are
its solver's :class:`SolveReport`, written by :func:`_diagnostics`; for
``ot`` and ``binary-ot`` the network simplex's plan is the report, and
``converged`` also needs a certificate: the optimality check for ``ot``,
the witness's duality gap for ``binary-ot`` with a witness.  Floats are
serialized with 17 significant digits, so repeated runs of the same config
are byte-identical and values round-trip exactly.

Exit codes: 0 success, 2 malformed input, 3 solver non-convergence or a
failed certificate.  Exit 3 still writes the document, with
``converged: false``; an iterative command's ``result`` is its solver's
last iterate, and that of ``ranks`` and ``binary-ot`` what the simplex's
last basis gives.  ``result`` is empty only for a basis that does not
identify the fit's coefficients.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .csvio import (
    _numeric,
    read_basis_csv,
    read_gaussian_csv,
    read_matching_csv,
    read_matrix_csv,
    read_measure_csv,
    read_sample_csv,
    read_values_csv,
)
from .errors import (
    DomainError,
    ExpOverflowError,
    NonIdentificationError,
    ResourceError,
)
from .measures import CostMatrix, SolveReport, _marginal_gap


def __getattr__(name: str):
    """The package's public names, bound here on their first lookup, so that
    a command imports only the solver modules its handler uses."""
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


def _bind(handler) -> None:
    """Bind the package names the handler refers to, since a global lookup
    inside a function does not reach __getattr__.  A name already bound, by
    an earlier lookup or by a caller wrapping it, is kept."""
    module, package = sys.modules[__name__], sys.modules[__package__]
    for name in set(handler.__code__.co_names).intersection(package.__all__):
        getattr(module, name)


_TE_FUNCTIONALS = {
    "diff": (lambda a, b: b - a, "submodular"),
    "product": (lambda a, b: a * b, "supermodular"),
    "sqdiff": (lambda a, b: (b - a) ** 2, "submodular"),
}


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(f"cannot serialize non-finite float {x!r}")
    return "%.17g" % x


def _float_array(values: np.ndarray, indent: int) -> str:
    """A finite float array as _to_json writes its nested lists, with one
    %-format per innermost row."""
    if len(values) == 0:
        return "[]"
    inner = "  " * (indent + 1)
    if values.ndim == 1:
        template = (",\n" + inner).join(["%.17g"] * len(values))
        body = template % tuple(values.tolist())
    else:
        body = (",\n" + inner).join(_float_array(row, indent + 1) for row in values)
    return "[\n" + inner + body + "\n" + "  " * indent + "]"


def _to_json(value, indent: int = 0) -> str:
    """Serialize with %.17g floats; deterministic for identical inputs.

    A non-finite float raises :class:`DomainError`, so that the command
    exits 2 and writes no document.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f'{inner}"{key}": {_to_json(val, indent + 1)}'
            for key, val in value.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.ndim:
            finite = np.isfinite(value)
            if not finite.all():
                _format_float(float(value[~finite][0]))  # raises
            return _float_array(value, indent)
        return _to_json(value.tolist(), indent)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = (f"{inner}{_to_json(val, indent + 1)}" for val in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


class _Parser(argparse.ArgumentParser):
    """Reads ``--flag -1e-3`` as ``--flag=-1e-3`` for a numeric option.

    argparse takes a word that starts with '-' for an option unless it looks
    like -12 or -1.5, so a negative value with an exponent, or -inf, would
    end the option without its value.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.numeric: dict[str, bool] = {}  # option string: takes a number
        super().__init__(*args, **kwargs)

    def add_argument(self, *flags, **kwargs):
        self.numeric.update(dict.fromkeys(flags, kwargs.get("type") in (int, float)))
        return super().add_argument(*flags, **kwargs)

    def _takes_number(self, word: str) -> bool:
        """Whether word names a numeric option, in full or, as argparse
        accepts, by a prefix of exactly one long option."""
        if word in self.numeric or not word.startswith("--"):
            return self.numeric.get(word, False)
        matches = [flag for flag in self.numeric if flag.startswith(word)]
        return len(matches) == 1 and self.numeric[matches[0]]

    def parse_known_args(self, args=None, namespace=None):
        words: list[str] = []
        for word in sys.argv[1:] if args is None else args:
            if (words and word.startswith("-") and _numeric(word)
                    and self._takes_number(words[-1])):
                words[-1] += "=" + word
            else:
                words.append(word)
        return super().parse_known_args(words, namespace)


def build_parser() -> argparse.ArgumentParser:
    """Subcommands; a handler returns result, or (result, diagnostics) if iterative."""
    parser = _Parser(
        prog="otecon",
        description="Optimal transport solvers and econometric bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name: str, help_text: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(run=run)
        return p

    # An unset cap (no --max-iter or OTECON_MAX_ITER) or tol is the named
    # solver's own default, read when the command runs.
    def iterative(p, solver: str, tol: bool = True, cap_help=None) -> None:
        if tol:
            p.add_argument("--tol", type=float)
        p.add_argument("--max-iter", type=int, help=cap_help)
        p.set_defaults(capped_solver=solver)

    p = cmd("ot", "exact discrete transport by network simplex", _cmd_ot)
    p.add_argument("--mu", required=True, help="source measure CSV (w,x1..xd)")
    p.add_argument("--nu", required=True, help="target measure CSV")
    p.add_argument("--cost", required=True, help="cost matrix CSV")
    iterative(p, "solve_discrete_ot", tol=False, cap_help="pivot cap")

    p = cmd("sinkhorn", "entropic transport, Sinkhorn by kernel scaling", _cmd_sinkhorn)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--eps", type=float, required=True, help="regularization strength")
    iterative(p, "sinkhorn")

    p = cmd("uot", "unbalanced entropic transport with soft marginals", _cmd_uot)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--lam-mu", type=float, required=True, help="source KL penalty")
    p.add_argument("--lam-nu", type=float, required=True, help="target KL penalty")
    iterative(p, "unbalanced_sinkhorn")

    p = cmd("w1d", "p-Wasserstein distance between scalar samples", _cmd_w1d)
    p.add_argument("--x", required=True, help="sample CSV, one value per row")
    p.add_argument("--y", required=True)
    p.add_argument("--p", type=float, default=2.0)

    p = cmd("gaussian-w2", "closed-form W2 between Gaussians", _cmd_gaussian_w2)
    p.add_argument("--g1", required=True, help="mean row + covariance rows CSV")
    p.add_argument("--g2", required=True)

    p = cmd("sliced", "sliced Wasserstein distance between point clouds", _cmd_sliced)
    p.add_argument("--x", required=True, help="points CSV, one row per point")
    p.add_argument("--y", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--n-dir", type=int, default=100, help="number of directions")
    p.add_argument("--seed", type=int, default=0)

    p = cmd("semidiscrete", "Laguerre weights for uniform-to-discrete transport",
            _cmd_semidiscrete)
    p.add_argument("--nu", required=True, help="sites measure CSV (w,x1..xd)")
    p.add_argument("--grid-res", type=int, help="grid cells per axis")
    iterative(p, "semidiscrete_solve")

    p = cmd("ranks", "assignment-based vector ranks onto a Halton set", _cmd_ranks)
    p.add_argument("--sample", required=True, help="points CSV")

    p = cmd("bounds-te", "rearrangement bounds for a treatment functional",
            _cmd_bounds_te)
    p.add_argument("--y0", required=True, help="control sample CSV")
    p.add_argument("--y1", required=True, help="treated sample CSV")
    p.add_argument(
        "--functional",
        required=True,
        choices=sorted(_TE_FUNCTIONALS),
        help="diff: b-a, product: a*b, sqdiff: (b-a)^2",
    )

    p = cmd("bounds-subgroup", "quantile-window bounds on a subgroup effect",
            _cmd_bounds_subgroup)
    p.add_argument("--y0", required=True)
    p.add_argument("--y1", required=True)
    p.add_argument("--a", type=float, required=True, help="window lower rank")
    p.add_argument("--b", type=float, required=True, help="window upper rank")

    p = cmd("bounds-winners", "lower bound on the gaining fraction in a window",
            _cmd_bounds_winners)
    p.add_argument("--y0", required=True)
    p.add_argument("--y1", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)

    p = cmd("binary-ot", "minimal coupled mass on a 0/1 relation, with witness",
            _cmd_binary_ot)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--gamma", required=True, help="0/1 relation matrix CSV")
    p.add_argument(
        "--witness",
        choices=["yes", "no"],
        default="yes",
        help="compute the dual witness set",
    )

    p = cmd("dro", "worst-case expectation over a transport ball", _cmd_dro)
    p.add_argument("--f", required=True, help="objective values CSV, one per row")
    p.add_argument("--delta", required=True, help="discrepancy matrix CSV")
    p.add_argument("--mu", required=True, help="reference weights CSV (w)")
    p.add_argument("--rho", type=float, required=True, help="ball radius")

    p = cmd("match-identify", "surplus matrix from matched and single counts",
            _cmd_match_identify)
    p.add_argument("--table", required=True, help="matching CSV (x,y,count)")

    p = cmd("match-equilibrium", "logit matching equilibrium for given surplus",
            _cmd_match_equilibrium)
    p.add_argument("--phi", required=True, help="surplus matrix CSV")
    p.add_argument("--mu", required=True, help="x-side masses CSV (w)")
    p.add_argument("--nu", required=True, help="y-side masses CSV (w)")
    iterative(p, "cs_equilibrium")

    p = cmd("match-fit", "surplus coefficients by moment matching", _cmd_match_fit)
    p.add_argument("--table", required=True, help="matching CSV (x,y,count)")
    p.add_argument("--basis", required=True, help="basis CSV (x,y,k,value)")
    iterative(p, "moment_matching")

    p = cmd("match-sista", "sparse surplus coefficients from an observed plan",
            _cmd_match_sista)
    p.add_argument("--pi", required=True, help="observed plan matrix CSV")
    p.add_argument("--mu", required=True, help="row marginals CSV (w)")
    p.add_argument("--nu", required=True, help="column marginals CSV (w)")
    p.add_argument("--basis", required=True, help="basis CSV (x,y,k,value)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--l1", type=float, default=0.0, help="soft-threshold penalty")
    iterative(p, "sista")

    return parser


def _diagnostics(report: SolveReport) -> dict:
    """How an iterative command's solve ended, the same keys for every one."""
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual,
        "stop_reason": report.stop_reason,
    }


def _resolve_defaults(args: argparse.Namespace) -> None:
    """Fill in the unset solver options: the cap (flag beats OTECON_MAX_ITER
    beats the solver's default) and tol (flag beats the solver's default)."""
    if not hasattr(args, "max_iter"):
        return
    # the solver as defined, not a wrapper bound in its place here
    solver = getattr(sys.modules[__package__], args.capped_solver)
    defaults = inspect.signature(solver).parameters
    if hasattr(args, "tol") and args.tol is None:
        args.tol = defaults["tol"].default
    if args.max_iter is not None:
        return
    env = os.environ.get("OTECON_MAX_ITER")
    if env is None:
        # None defers to the solver's size-dependent cap
        args.max_iter = defaults["max_iter"].default
        return
    try:
        args.max_iter = int(env)
    except ValueError:
        raise DomainError(f"OTECON_MAX_ITER is not an integer: {env!r}") from None
    if args.max_iter < 1:
        raise DomainError(f"OTECON_MAX_ITER must be at least 1, got {args.max_iter}")


def _cmd_ot(args):
    mu = read_measure_csv(args.mu)
    nu = read_measure_csv(args.nu)
    cost = CostMatrix(read_matrix_csv(args.cost))
    plan, pots, value = solve_discrete_ot(mu, nu, cost, max_iter=args.max_iter)
    certified = verify_optimality(plan, pots, mu, nu, cost)
    result = {
        "value": value,
        "plan": plan.mass,
        "phi": pots.phi,
        "psi": pots.psi,
        "certified": certified,
    }
    # converged needs the certificate as well as the pivot tolerance, so
    # the cap exits 3 even when its last basis passes the certificate
    diagnostics = _diagnostics(plan)
    diagnostics["converged"] = certified and plan.converged
    return result, diagnostics


def _cmd_sinkhorn(args):
    mu = read_measure_csv(args.mu)
    nu = read_measure_csv(args.nu)
    cost = CostMatrix(read_matrix_csv(args.cost))
    sol = sinkhorn(mu, nu, cost, eps=args.eps, tol=args.tol, max_iter=args.max_iter)
    result = {
        "value": float(np.sum(sol.plan * cost.entries)),
        "entropic_value": eot_value(sol, cost)[1] if sol.converged else None,
        "plan": sol.plan,
        "phi": sol.phi,
        "psi": sol.psi,
    }
    return result, _diagnostics(sol)


def _cmd_uot(args):
    mu = read_measure_csv(args.mu)
    nu = read_measure_csv(args.nu)
    cost = CostMatrix(read_matrix_csv(args.cost))
    sol = unbalanced_sinkhorn(
        mu,
        nu,
        cost,
        eps=args.eps,
        lam_mu=args.lam_mu,
        lam_nu=args.lam_nu,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    result = {
        "value": float(np.sum(sol.plan * cost.entries)),
        "plan": sol.plan,
        "phi": sol.phi,
        "psi": sol.psi,
        "marginal_gap": _marginal_gap(
            sol.plan.sum(axis=1), sol.plan.sum(axis=0), mu.weights, nu.weights
        ),
    }
    return result, _diagnostics(sol)


def _cmd_w1d(args):
    x = read_sample_csv(args.x)
    y = read_sample_csv(args.y)
    return {"value": wasserstein_1d(x, y, p=args.p)}


def _cmd_gaussian_w2(args):
    g1 = read_gaussian_csv(args.g1)
    g2 = read_gaussian_csv(args.g2)
    return {"value": gaussian_w2(g1, g2)}


def _cmd_sliced(args):
    x = read_matrix_csv(args.x)
    y = read_matrix_csv(args.y)
    value = sliced_wasserstein(x, y, p=args.p, n_dir=args.n_dir, seed=args.seed)
    return {"value": value}


def _cmd_semidiscrete(args):
    nu = read_measure_csv(args.nu)
    if nu.points is None:
        raise DomainError(f"{args.nu}: sites need coordinate columns x1..xd")
    diagram = semidiscrete_solve(
        nu, nu.dim, grid_res=args.grid_res, tol=args.tol, max_iter=args.max_iter
    )
    result = {
        "sites": diagram.sites,
        "weights": diagram.weights,
        "target_masses": diagram.target_masses,
    }
    return result, _diagnostics(diagram)


def _cmd_ranks(args):
    sample = read_matrix_csv(args.sample)
    assignment = vector_rank(sample)
    result = {
        "permutation": [int(k) for k in assignment.permutation],
        "halton": assignment.reference.points,
        "ranks": assignment.ranks,
    }
    return result, _diagnostics(assignment)


def _cmd_bounds_te(args):
    y0 = read_sample_csv(args.y0)
    y1 = read_sample_csv(args.y1)
    h, modularity = _TE_FUNCTIONALS[args.functional]
    interval = rearrangement_bounds(h, y0, y1, modularity)
    return {"lower": interval.lower, "upper": interval.upper}


def _cmd_bounds_subgroup(args):
    y0 = read_sample_csv(args.y0)
    y1 = read_sample_csv(args.y1)
    interval = kaji_subgroup_bounds(args.a, args.b, y0, y1)
    return {"lower": interval.lower, "upper": interval.upper}


def _cmd_bounds_winners(args):
    y0 = read_sample_csv(args.y0)
    y1 = read_sample_csv(args.y1)
    value = winners_lower_bound(args.a, args.b, y0, y1)
    return {"value": value}


def _cmd_binary_ot(args):
    mu = read_measure_csv(args.mu)
    nu = read_measure_csv(args.nu)
    rel = BinaryRelation(read_matrix_csv(args.gamma))
    value, witness_set, info = binary_cost_ot(
        mu, nu, rel, witness=args.witness == "yes", log=True
    )
    result = {
        "value": value,
        "witness": None if witness_set is None else sorted(witness_set),
    }
    # with a witness, converged also needs its duality certificate, as for ot
    diagnostics = _diagnostics(info["report"])
    diagnostics["converged"] = info.get("certified", True) and diagnostics["converged"]
    return result, diagnostics


def _cmd_dro(args):
    f = read_values_csv(args.f)
    delta = CostMatrix(read_matrix_csv(args.delta))
    mu = read_measure_csv(args.mu)
    value = dro_expectation_bound(f, delta, mu, rho=args.rho)
    return {"value": value}


def _cmd_match_identify(args):
    table = read_matching_csv(args.table)
    phi = cs_identify(table)
    return {"Phi": phi.entries}


def _cmd_match_equilibrium(args):
    phi = CostMatrix(read_matrix_csv(args.phi))
    mu = read_measure_csv(args.mu).weights
    nu = read_measure_csv(args.nu).weights
    table = cs_equilibrium(phi, mu, nu, tol=args.tol, max_iter=args.max_iter)
    result = {
        "flows": table.flows,
        "singles_x": table.singles_x,
        "singles_y": table.singles_y,
    }
    return result, _diagnostics(table)


def _cmd_match_fit(args):
    table = read_matching_csv(args.table)
    basis = SurplusBasis(read_basis_csv(args.basis, shape=table.flows.shape))
    lam, a, b, info = moment_matching(
        table, basis, tol=args.tol, max_iter=args.max_iter, log=True
    )
    return {"lam": lam, "a": a, "b": b}, _diagnostics(info["report"])


def _cmd_match_sista(args):
    pi_hat = read_matrix_csv(args.pi)
    mu = read_measure_csv(args.mu).weights
    nu = read_measure_csv(args.nu).weights
    basis = SurplusBasis(read_basis_csv(args.basis, shape=pi_hat.shape))
    beta, info = sista(
        pi_hat,
        mu,
        nu,
        basis,
        eps=args.eps,
        l1=args.l1,
        tol=args.tol,
        max_iter=args.max_iter,
        log=True,
    )
    return {"beta": beta}, _diagnostics(info["report"])


# a non-finite result is reported once, by the serializer, not as warnings
@np.errstate(all="ignore")
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_defaults(args)
        _bind(args.run)
        try:
            out = args.run(args)
        except NonIdentificationError as exc:
            # no iterate to report; exit 3 still writes the document
            print(f"otecon {args.command}: {exc}", file=sys.stderr)
            out = {}, {"converged": False}
        if not isinstance(out, tuple):
            out = out, {"converged": True}
        result, diagnostics = out
        config = {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("command", "run", "capped_solver")
        }
        document = {
            "command": args.command,
            "version": __version__,
            "config": config,
            "result": result,
            "diagnostics": diagnostics,
        }
        text = _to_json(document) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as handle:
                handle.write(text)
    except (DomainError, ResourceError, ExpOverflowError, OSError) as exc:
        print(f"otecon {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0 if diagnostics["converged"] else 3


if __name__ == "__main__":
    sys.exit(main())
