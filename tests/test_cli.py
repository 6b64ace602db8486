"""End-to-end command line checks: JSON shape, determinism, exit codes."""

import argparse
import ast
import contextlib
import inspect
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib import import_module, resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import to_json_loop

import otecon
from otecon import (
    BinaryRelation,
    CostMatrix,
    DomainError,
    __version__,
    binary_cost_ot,
    cli,
    cs_equilibrium,
    moment_matching,
    semidiscrete_solve,
    sinkhorn,
    sista,
    solve_discrete_ot,
    unbalanced_sinkhorn,
    vector_rank,
)
from otecon.cli import build_parser, main
from otecon.csvio import read_matrix_csv, read_measure_csv

DATA = Path(__file__).parent / "data"


def load_schema():
    with resources.files("otecon.data").joinpath("result_schema.json").open() as fh:
        return json.load(fh)


SCHEMA = load_schema()
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def data(name):
    return str(DATA / name)


# one representative invocation per subcommand, relative to tests/data,
# and a degenerate ot case: tied costs, two optimal plans and no unique dual
COMMANDS = {
    "ot": ["ot", "--mu", "mu_half.csv", "--nu", "nu_half.csv", "--cost", "cost_2x2.csv"],
    "ot degenerate": [
        "ot", "--mu", "mu_quarter.csv", "--nu", "mu_quarter.csv",
        "--cost", "cost_4x4_ties.csv",
    ],
    "sinkhorn": [
        "sinkhorn", "--mu", "mu_half.csv", "--nu", "nu_half.csv",
        "--cost", "cost_2x2.csv", "--eps", "1.0",
    ],
    "uot": [
        "uot", "--mu", "mu_half.csv", "--nu", "nu_half.csv",
        "--cost", "cost_2x2.csv", "--eps", "0.5", "--lam-mu", "5", "--lam-nu", "5",
    ],
    "w1d": ["w1d", "--x", "xs.csv", "--y", "ys.csv", "--p", "2"],
    "gaussian-w2": ["gaussian-w2", "--g1", "gauss_diag14.csv", "--g2", "gauss_diag91.csv"],
    "sliced": [
        "sliced", "--x", "points_a.csv", "--y", "points_b.csv",
        "--n-dir", "16", "--seed", "3",
    ],
    "semidiscrete": ["semidiscrete", "--nu", "sites_line.csv", "--grid-res", "512"],
    "ranks": ["ranks", "--sample", "points_a.csv"],
    "bounds-te": [
        "bounds-te", "--y0", "y0_six.csv", "--y1", "y1_six.csv",
        "--functional", "product",
    ],
    "bounds-subgroup": [
        "bounds-subgroup", "--y0", "y0_six.csv", "--y1", "y1_six.csv",
        "--a", "0.2", "--b", "0.8",
    ],
    "bounds-winners": [
        "bounds-winners", "--y0", "y0_six.csv", "--y1", "y1_six.csv",
        "--a", "0.0", "--b", "1.0",
    ],
    "binary-ot": [
        "binary-ot", "--mu", "mu_64.csv", "--nu", "nu_half.csv",
        "--gamma", "gamma_2x2.csv",
    ],
    "dro": [
        "dro", "--f", "f_four.csv", "--delta", "delta_4x4.csv",
        "--mu", "w_four.csv", "--rho", "0.5",
    ],
    "match-identify": ["match-identify", "--table", "table_1x1.csv"],
    "match-equilibrium": [
        "match-equilibrium", "--phi", "phi_2x2.csv",
        "--mu", "ones_two.csv", "--nu", "ones_two.csv",
    ],
    "match-fit": ["match-fit", "--table", "table_1x1.csv", "--basis", "basis_1x1.csv"],
    "match-sista": [
        "match-sista", "--pi", "pi_prod.csv", "--mu", "mu_46.csv",
        "--nu", "nu_37.csv", "--basis", "basis_2x2.csv", "--eps", "1.0",
    ],
}


# the commands whose diagnostics are their solver's SolveReport
REPORTING = {"ot", "sinkhorn", "uot", "semidiscrete", "ranks", "binary-ot",
             "match-equilibrium", "match-fit", "match-sista"}


def resolve(argv):
    """Prefix the file-valued options with the fixture directory."""
    out = []
    for token in argv:
        out.append(data(token) if token.endswith(".csv") else token)
    return out


def run_cli(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(resolve(argv) + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


class TestEveryCommand:
    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_runs_and_validates(self, name, tmp_path):
        code, payload = run_cli(COMMANDS[name], tmp_path)
        assert code == 0
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert doc["command"] == COMMANDS[name][0]
        assert doc["version"] == __version__
        assert list(doc) == ["command", "version", "config", "result", "diagnostics"]
        if name in REPORTING:
            diag = doc["diagnostics"]
            assert list(diag) == ["converged", "iterations", "residual", "stop_reason"]
            assert diag["stop_reason"] == "tol" and diag["converged"] is True

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_byte_identical_rerun(self, name, tmp_path):
        _, first = run_cli(COMMANDS[name], tmp_path, "same.json")
        _, second = run_cli(COMMANDS[name], tmp_path, "same.json")
        assert first == second

    def test_schema_lists_the_parser_commands(self):
        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == set(SCHEMA["properties"]["command"]["enum"])
        assert set(subparsers.choices) == {argv[0] for argv in COMMANDS.values()}


class TestValues:
    def test_ot_value(self, tmp_path):
        _, payload = run_cli(COMMANDS["ot"], tmp_path)
        doc = json.loads(payload)
        assert doc["result"]["value"] == 1.0
        assert doc["result"]["certified"] is True

    def test_ot_degenerate_certified(self, tmp_path):
        _, payload = run_cli(COMMANDS["ot degenerate"], tmp_path)
        doc = json.loads(payload)
        assert doc["result"]["value"] == 0.0
        assert doc["result"]["certified"] is True

    def test_w1d_identical_samples(self, tmp_path):
        code, payload = run_cli(
            ["w1d", "--x", "xs.csv", "--y", "xs.csv"], tmp_path
        )
        assert code == 0
        assert json.loads(payload)["result"]["value"] == 0.0

    def test_gaussian_w2_diag(self, tmp_path):
        _, payload = run_cli(COMMANDS["gaussian-w2"], tmp_path)
        value = json.loads(payload)["result"]["value"]
        assert value == pytest.approx(np.sqrt(5.0), abs=1e-10)

    def test_match_identify_flat(self, tmp_path):
        _, payload = run_cli(COMMANDS["match-identify"], tmp_path)
        assert json.loads(payload)["result"]["Phi"] == [[0.0]]

    def test_bounds_subgroup_narrower_than_resolution(self, tmp_path):
        # b - a is 2^-54, so 1 - (b - a) rounds to 1
        code, payload = run_cli(
            ["bounds-subgroup", "--y0", "y0_six.csv", "--y1", "y1_six.csv",
             "--a", "0.3", "--b", "0.30000000000000004"],
            tmp_path,
        )
        assert code == 0
        result = json.loads(payload)["result"]
        assert result["lower"] == pytest.approx(-0.5, abs=1e-12)
        assert result["upper"] == pytest.approx(3.3, abs=1e-12)

    def test_binary_ot_witness(self, tmp_path):
        _, payload = run_cli(COMMANDS["binary-ot"], tmp_path)
        doc = json.loads(payload)
        assert doc["result"]["value"] == pytest.approx(0.1, abs=1e-12)
        assert doc["result"]["witness"] == [0]
        assert doc["config"]["witness"] == "yes"

    def test_binary_ot_without_witness(self, tmp_path):
        code, payload = run_cli(COMMANDS["binary-ot"] + ["--witness", "no"], tmp_path)
        assert code == 0
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert doc["result"]["value"] == pytest.approx(0.1, abs=1e-12)
        assert doc["result"]["witness"] is None
        with pytest.raises(SystemExit) as exc:
            run_cli(COMMANDS["binary-ot"] + ["--witness", "auto"], tmp_path)
        assert exc.value.code == 2

    def test_semidiscrete_weight_gap(self, tmp_path):
        _, payload = run_cli(COMMANDS["semidiscrete"], tmp_path)
        doc = json.loads(payload)
        w = doc["result"]["weights"]
        assert w[1] - w[0] == pytest.approx(0.5, abs=1e-3)

    def test_ranks_permutation(self, tmp_path):
        _, payload = run_cli(COMMANDS["ranks"], tmp_path)
        doc = json.loads(payload)
        assert sorted(doc["result"]["permutation"]) == [0, 1, 2, 3]

    def test_sista_null_fit(self, tmp_path):
        # pi is exactly the product coupling, so no surplus is needed
        _, payload = run_cli(COMMANDS["match-sista"], tmp_path)
        beta = json.loads(payload)["result"]["beta"]
        assert abs(beta[0]) < 1e-8

    def test_match_equilibrium_large_surplus(self, tmp_path):
        # s^2 >> mu here: the textbook root form cancels to 0 singles
        code, payload = run_cli(
            ["match-equilibrium", "--phi", "phi_3x3_twenties.csv",
             "--mu", "ones_three.csv", "--nu", "ones_three.csv"],
            tmp_path,
        )
        assert code == 0
        result = json.loads(payload)["result"]
        flows = np.array(result["flows"])
        assert np.all(flows > 0)
        assert np.all(np.array(result["singles_x"]) > 0)
        assert np.all(np.array(result["singles_y"]) > 0)
        assert np.allclose(flows.sum(axis=1) + result["singles_x"], 1.0, rtol=0, atol=1e-12)
        assert np.allclose(flows.sum(axis=0) + result["singles_y"], 1.0, rtol=0, atol=1e-12)

    def test_config_echoes_arguments(self, tmp_path):
        _, payload = run_cli(COMMANDS["dro"], tmp_path)
        doc = json.loads(payload)
        assert doc["config"]["rho"] == 0.5
        assert "command" not in doc["config"]

    def test_stdout_when_no_out_flag(self, capsys):
        code = main(resolve(COMMANDS["w1d"]))
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        VALIDATOR.validate(doc)


class TestConfigEcho:
    # the solver behind each command that takes --max-iter
    SOLVERS = {
        "ot": solve_discrete_ot,
        "sinkhorn": sinkhorn,
        "uot": unbalanced_sinkhorn,
        "semidiscrete": semidiscrete_solve,
        "match-equilibrium": cs_equilibrium,
        "match-fit": moment_matching,
        "match-sista": sista,
    }

    def test_every_capped_command_listed(self):
        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        capped = {
            name
            for name, p in subparsers.choices.items()
            if any(a.dest == "max_iter" for a in p._actions)
        }
        assert capped == set(self.SOLVERS)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_default_cap_is_the_solvers(self, name, tmp_path, monkeypatch):
        monkeypatch.delenv("OTECON_MAX_ITER", raising=False)
        _, payload = run_cli(COMMANDS[name], tmp_path)
        config = json.loads(payload)["config"]
        defaults = inspect.signature(self.SOLVERS[name]).parameters
        assert config["max_iter"] == defaults["max_iter"].default
        if "tol" in defaults:
            assert config["tol"] == defaults["tol"].default
        else:
            assert "tol" not in config

    def test_control_characters_in_paths(self, tmp_path):
        # a tab in an input and in the output path is echoed in config
        x = tmp_path / "x\ts.csv"
        shutil.copy(DATA / "xs.csv", x)
        out = tmp_path / "out\tput.json"
        code = main(["w1d", "--x", str(x), "--y", data("ys.csv"), "--out", str(out)])
        assert code == 0
        with open(out) as handle:
            doc = json.load(handle)
        VALIDATOR.validate(doc)
        assert doc["config"]["x"] == str(x)
        assert doc["config"]["out"] == str(out)


class TestFailureModes:
    def test_malformed_first_line(self, tmp_path, capsys):
        code = main(
            ["ot", "--mu", data("mu_half.csv"), "--nu", data("nu_half.csv"),
             "--cost", data("broken_first.csv"), "--out", str(tmp_path / "o.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_malformed_second_line(self, tmp_path, capsys):
        code = main(
            ["ot", "--mu", data("mu_half.csv"), "--nu", data("nu_half.csv"),
             "--cost", data("broken_second.csv"), "--out", str(tmp_path / "o.json")]
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(
            ["w1d", "--x", data("xs.csv"), "--y", data("no_such_file.csv"),
             "--out", str(tmp_path / "o.json")]
        )
        assert code == 2

    def test_infeasible_masses(self, tmp_path, capsys):
        # total masses 2.0 vs 1.0 cannot be coupled
        code = main(
            ["ot", "--mu", data("ones_two.csv"), "--nu", data("mu_46.csv"),
             "--cost", data("cost_2x2.csv"), "--out", str(tmp_path / "o.json")]
        )
        assert code == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(
            ["sinkhorn", "--mu", data("mu_uneven.csv"), "--nu", data("nu_uneven.csv"),
             "--cost", data("cost_2x2.csv"), "--eps", "0.5",
             "--tol", "1e-15", "--max-iter", "2", "--out", str(out)]
        )
        assert code == 3
        doc = json.loads(out.read_bytes())
        VALIDATOR.validate(doc)
        assert doc["diagnostics"]["converged"] is False

    def test_sista_cap_reports_nonconvergence(self, tmp_path):
        code, payload = run_cli(
            ["match-sista", "--pi", "pi_tilted.csv", "--mu", "mu_46.csv",
             "--nu", "nu_37.csv", "--basis", "basis_2x2.csv", "--eps", "1.0",
             "--max-iter", "2"],
            tmp_path,
        )
        assert code == 3
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert doc["diagnostics"]["converged"] is False
        assert doc["diagnostics"]["iterations"] == 2

    # each iterative command at a cap its fixture cannot meet
    CAPPED = {
        "ot": [
            "ot", "--mu", "mu_six.csv", "--nu", "nu_six.csv", "--cost", "cost_6x6.csv",
        ],
        "sinkhorn": [
            "sinkhorn", "--mu", "mu_uneven.csv", "--nu", "nu_uneven.csv",
            "--cost", "cost_2x2.csv", "--eps", "0.5",
        ],
        "uot": [
            "uot", "--mu", "mu_uneven.csv", "--nu", "nu_uneven.csv",
            "--cost", "cost_2x2.csv", "--eps", "0.5", "--lam-mu", "5", "--lam-nu", "5",
        ],
        "semidiscrete": ["semidiscrete", "--nu", "sites_three.csv"],
        "match-equilibrium": [
            "match-equilibrium", "--phi", "phi_3x3_twenties.csv",
            "--mu", "ones_three.csv", "--nu", "ones_three.csv",
        ],
        "match-fit": ["match-fit", "--table", "table_3x3.csv", "--basis", "basis_3x3.csv"],
        "match-sista": [
            "match-sista", "--pi", "pi_tilted.csv", "--mu", "mu_46.csv",
            "--nu", "nu_37.csv", "--basis", "basis_2x2.csv", "--eps", "1.0",
        ],
    }

    @pytest.mark.parametrize("name", sorted(CAPPED))
    def test_cap_writes_document(self, name, tmp_path):
        code, payload = run_cli(self.CAPPED[name] + ["--max-iter", "1"], tmp_path)
        assert code == 3
        assert payload is not None
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert doc["command"] == name
        assert doc["config"]["max_iter"] == 1
        assert doc["diagnostics"]["converged"] is False
        assert doc["result"]
        assert doc["diagnostics"]["stop_reason"] == "max_iter"
        assert doc["diagnostics"]["iterations"] == 1
        if name == "ot":
            assert doc["result"]["certified"] is False
            assert np.array(doc["result"]["plan"]).shape == (6, 6)

    @pytest.fixture
    def simplex_cap_1(self, monkeypatch):
        # vector_rank and binary_cost_ot reach the solver by its module name
        solve = otecon.discrete.solve_discrete_ot
        monkeypatch.setattr(
            otecon.discrete, "solve_discrete_ot",
            lambda *args, **kwargs: solve(*args, **{**kwargs, "max_iter": 1}),
        )

    def test_simplex_callers_return_last_basis_at_cap(self, simplex_cap_1):
        # both instances need more than one pivot: 2 and 7; each caller
        # carries the simplex's report and returns what its last basis gives
        assignment = vector_rank(read_matrix_csv(data("points_a.csv")))
        assert sorted(assignment.permutation) == [0, 1, 2, 3]
        assert assignment.stop_reason == "max_iter"
        assert assignment.iterations == 1
        mu, nu = read_measure_csv(data("mu_six.csv")), read_measure_csv(data("nu_six.csv"))
        gamma = (read_matrix_csv(data("cost_6x6.csv")) > 1.0).astype(float)
        value, witness, info = binary_cost_ot(mu, nu, BinaryRelation(gamma), log=True)
        # the last basis is feasible, so its value bounds the optimum from above
        optimum = solve_discrete_ot(mu, nu, CostMatrix(gamma))[2]
        assert value >= optimum
        assert info["report"].stop_reason == "max_iter"
        assert info["report"].iterations == 1
        assert info["certified"] is False

    def test_ranks_at_cap_writes_last_assignment(self, simplex_cap_1, tmp_path, capsys):
        code, payload = run_cli(COMMANDS["ranks"], tmp_path)
        assert code == 3
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert sorted(doc["result"]) == ["halton", "permutation", "ranks"]
        assert sorted(doc["result"]["permutation"]) == [0, 1, 2, 3]
        halton = np.array(doc["result"]["halton"])
        assert doc["result"]["ranks"] == halton[doc["result"]["permutation"]].tolist()
        assert doc["diagnostics"]["converged"] is False
        assert doc["diagnostics"]["stop_reason"] == "max_iter"
        assert doc["diagnostics"]["iterations"] == 1
        assert capsys.readouterr().err == ""

    def test_binary_ot_at_cap_writes_last_basis(self, simplex_cap_1, tmp_path, capsys):
        gamma = tmp_path / "gamma.csv"
        rows = (read_matrix_csv(data("cost_6x6.csv")) > 1.0).astype(int).tolist()
        gamma.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
        code, payload = run_cli(
            ["binary-ot", "--mu", "mu_six.csv", "--nu", "nu_six.csv", "--gamma", str(gamma)],
            tmp_path,
        )
        assert code == 3
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert sorted(doc["result"]) == ["value", "witness"]
        assert doc["result"]["value"] > 0.0
        assert doc["diagnostics"]["converged"] is False
        assert doc["diagnostics"]["stop_reason"] == "max_iter"
        assert doc["diagnostics"]["iterations"] == 1
        assert capsys.readouterr().err == ""

    def test_binary_ot_failed_certificate_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(otecon.bounds, "_witness_certified", lambda *args: False)
        code, payload = run_cli(COMMANDS["binary-ot"], tmp_path)
        assert code == 3
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert doc["result"] == {"value": pytest.approx(0.1, abs=1e-12), "witness": [0]}
        assert doc["diagnostics"]["converged"] is False
        assert doc["diagnostics"]["stop_reason"] == "tol"
        # without a witness there is no certificate to fail
        code, _ = run_cli(COMMANDS["binary-ot"] + ["--witness", "no"], tmp_path)
        assert code == 0

    @pytest.mark.parametrize("name", ["match-fit", "match-sista"])
    def test_unidentified_basis_writes_empty_result(self, name, tmp_path, capsys):
        # two equal basis columns: the coefficients are not identified
        basis = tmp_path / "basis.csv"
        basis.write_text("1,1,1,1\n1,1,2,1\n")
        argv = [str(basis) if t.startswith("basis_") else t for t in COMMANDS[name]]
        code, payload = run_cli(argv, tmp_path)
        assert code == 3
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert doc["result"] == {}
        assert doc["diagnostics"] == {"converged": False}
        err = capsys.readouterr().err
        assert err.startswith(f"otecon {name}: ")
        assert err.endswith("coefficients are not identified\n")
        assert err.count("\n") == 1

    def test_match_fit_cap_writes_last_iterate(self, tmp_path):
        code, payload = run_cli(self.CAPPED["match-fit"] + ["--max-iter", "1"], tmp_path)
        assert code == 3
        doc = json.loads(payload)
        assert sorted(doc["result"]) == ["a", "b", "lam"]
        assert [len(doc["result"][key]) for key in ("lam", "a", "b")] == [1, 3, 3]
        assert doc["diagnostics"]["iterations"] == 1

    def test_failed_certificate_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "verify_optimality", lambda *args: False)
        code, payload = run_cli(COMMANDS["ot"], tmp_path)
        assert code == 3
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert doc["result"]["certified"] is False
        assert doc["diagnostics"]["converged"] is False
        assert doc["result"]["value"] == 1.0
        assert np.array(doc["result"]["plan"]).shape == (2, 2)

    def test_certified_cap_exits_3(self, tmp_path, monkeypatch):
        # a last basis that passes the certificate is still a capped solve
        monkeypatch.setattr(cli, "verify_optimality", lambda *args: True)
        code, payload = run_cli(self.CAPPED["ot"] + ["--max-iter", "1"], tmp_path)
        assert code == 3
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert doc["result"]["certified"] is True
        assert doc["diagnostics"]["converged"] is False
        assert doc["diagnostics"]["stop_reason"] == "max_iter"

    @pytest.mark.parametrize("cap", ["0", "-3"])
    @pytest.mark.parametrize("name", sorted(CAPPED))
    def test_nonpositive_cap_rejected(self, name, cap, tmp_path):
        code, payload = run_cli(self.CAPPED[name] + ["--max-iter", cap], tmp_path)
        assert code == 2
        assert payload is None

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    @pytest.mark.parametrize("name", sorted(set(CAPPED) - {"ot"}))
    def test_bad_tol_rejected(self, name, tol, tmp_path, capsys):
        code, payload = run_cli(self.CAPPED[name] + ["--tol", tol], tmp_path)
        assert code == 2
        assert payload is None
        assert "tol must be finite and positive" in capsys.readouterr().err

    def test_sista_singular_potentials_block(self, tmp_path):
        # pi's margins are far from mu and nu: plan cells underflow to 0
        code, payload = run_cli(
            ["match-sista", "--pi", "pi_prod.csv", "--mu", "mu_half.csv",
             "--nu", "nu_half.csv", "--basis", "basis_2x2.csv", "--eps", "1.0"],
            tmp_path,
        )
        assert code == 3
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert doc["diagnostics"]["converged"] is False
        assert doc["diagnostics"]["stop_reason"] == "step_exhausted"

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        x = tmp_path / "latin1.csv"
        x.write_bytes("a\u00f1o\n1\n2\n".encode("latin-1"))
        code, payload = run_cli(["w1d", "--x", str(x), "--y", "xs.csv"], tmp_path)
        assert code == 2
        assert payload is None
        assert capsys.readouterr().err == f"otecon w1d: {x}: not UTF-8 text\n"

    def test_zero_mass_dro_exits_2(self, tmp_path, capsys):
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("0\n0\n0\n0\n")
        code, payload = run_cli(
            ["dro", "--f", "f_four.csv", "--delta", "delta_4x4.csv",
             "--mu", str(zeros), "--rho", "0.5"],
            tmp_path,
        )
        assert code == 2
        assert payload is None
        err = capsys.readouterr().err
        assert err == "otecon dro: mu must have positive total mass\n"

    def test_sista_unequal_totals_rejected(self, tmp_path, capsys):
        code, payload = run_cli(
            ["match-sista", "--pi", "pi_tilted.csv", "--mu", "mu_46.csv",
             "--nu", "ones_two.csv", "--basis", "basis_2x2.csv", "--eps", "1.0"],
            tmp_path,
        )
        assert code == 2
        assert payload is None
        assert "infeasible" in capsys.readouterr().err

    def test_tiny_unequal_masses_rejected(self, tmp_path, capsys):
        # totals 1e-9 and 9.5e-10: a plan 10 % off a row mass was certified
        mu, nu = tmp_path / "mu.csv", tmp_path / "nu.csv"
        mu.write_text("5e-10\n5e-10\n")
        nu.write_text("4.5e-10\n5e-10\n")
        code, payload = run_cli(
            ["ot", "--mu", str(mu), "--nu", str(nu), "--cost", "cost_2x2.csv"], tmp_path
        )
        assert code == 2
        assert payload is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "infeasible" in err

    def test_product_bounds_at_large_magnitudes(self, tmp_path):
        # both endpoints are one sum taken in two orders; at 5e16 they
        # cross by an ulp, which an absolute slack of 1e-12 rejected
        y0, y1 = tmp_path / "y0.csv", tmp_path / "y1.csv"
        y0.write_text("3.3e7\n" * 500)
        draws = 1e9 * (1.0 + np.random.default_rng(10).random(500))
        y1.write_text("".join(f"{v!r}\n" for v in draws.tolist()))
        code, payload = run_cli(
            ["bounds-te", "--y0", str(y0), "--y1", str(y1), "--functional", "product"],
            tmp_path,
        )
        assert code == 0
        result = json.loads(payload)["result"]
        assert result["lower"] <= result["upper"]

    @pytest.mark.parametrize("seed", range(6))
    def test_placebo_diff_bounds_in_order(self, tmp_path, seed):
        # y1 = y0: the comonotone mean is exactly 0 and the antitone one is
        # the same zero summed in another order, about -1e-17 at seeds 1, 2, 4, 5
        y = tmp_path / "y.csv"
        draws = np.random.default_rng(seed).normal(size=100)
        y.write_text("".join(f"{v!r}\n" for v in draws.tolist()))
        code, payload = run_cli(
            ["bounds-te", "--y0", str(y), "--y1", str(y), "--functional", "diff"],
            tmp_path,
        )
        assert code == 0
        result = json.loads(payload)["result"]
        assert result["lower"] <= result["upper"]

    def test_bad_window_rejected(self, tmp_path):
        code = main(
            ["bounds-subgroup", "--y0", data("y0_six.csv"), "--y1", data("y1_six.csv"),
             "--a", "0.5", "--b", "0.5", "--out", str(tmp_path / "o.json")]
        )
        assert code == 2

    @staticmethod
    def huge_pair(tmp_path):
        # finite points 3.4e308 apart: the distance is above the largest float
        x, y = tmp_path / "huge.csv", tmp_path / "neg_huge.csv"
        x.write_text("1.7e308\n")
        y.write_text("-1.7e308\n")
        return str(x), str(y)

    def test_overflowing_result_exits_2(self, tmp_path, capsys):
        x, y = self.huge_pair(tmp_path)
        code, payload = run_cli(["w1d", "--x", x, "--y", y], tmp_path)
        assert code == 2
        assert payload is None
        err = capsys.readouterr().err
        assert err == "otecon w1d: cannot serialize non-finite float inf\n"

    def test_overflow_one_stderr_line_in_subprocess(self, tmp_path):
        # numpy's RuntimeWarnings reach stderr only outside pytest's capture
        x, y = self.huge_pair(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "otecon.cli", "w1d", "--x", x,
             "--y", y, "--out", str(tmp_path / "o.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "otecon w1d: cannot serialize non-finite float inf\n"

    def test_large_finite_distance_exits_0(self, tmp_path):
        # W_2 is about 1e308, though its squared gaps overflow
        x = tmp_path / "large.csv"
        x.write_text("1e308\n-1e308\n")
        code, payload = run_cli(["w1d", "--x", str(x), "--y", "xs.csv"], tmp_path)
        assert code == 0
        assert json.loads(payload)["result"]["value"] == pytest.approx(1e308, rel=1e-15)

    @pytest.mark.parametrize("scale", ["1e7", "1e-7"])
    def test_high_order_distance_at_any_scale(self, tmp_path, scale):
        # |gap|^50 overflowed to inf at 1e7 (exit 2) and underflowed to 0
        # at 1e-7 (exit 0 with value 0)
        rng = np.random.default_rng(5)
        draws = rng.standard_normal(1000), 0.5 + 1.5 * rng.standard_normal(900)
        values = {}
        for s in ("1", scale):
            x, y = tmp_path / f"x{s}.csv", tmp_path / f"y{s}.csv"
            for path, v in zip((x, y), draws):
                path.write_text("".join(f"{u!r}\n" for u in (float(s) * v).tolist()))
            code, payload = run_cli(
                ["w1d", "--x", str(x), "--y", str(y), "--p", "50"], tmp_path
            )
            assert code == 0
            values[s] = json.loads(payload)["result"]["value"]
        assert values[scale] == pytest.approx(float(scale) * values["1"], rel=1e-12)

    @staticmethod
    def rejected_at_once(argv, tmp_path, capsys):
        """Run argv, check it exits 2 within a second with no document and
        under 4 MB allocated, and return its stderr."""
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, payload = run_cli(argv, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert payload is None
        assert peak < 4e6
        return capsys.readouterr().err

    def test_ranks_over_the_cost_limit_exits_2_at_once(self, tmp_path, capsys):
        # 3 163^2 cost entries is just over the 10 000 000 limit; without
        # it the run built the 80 MB cost and grew past 4 GB in the solve
        sample = tmp_path / "pts.csv"
        sample.write_text("".join(f"{k / 3163!r},{k % 7 / 7!r}\n" for k in range(3163)))
        err = self.rejected_at_once(["ranks", "--sample", str(sample)], tmp_path, capsys)
        assert err.count("\n") == 1 and "limit" in err

    def test_semidiscrete_over_the_score_limit_exits_2_at_once(self, tmp_path, capsys):
        # 3000^2 grid points are under the 10 000 000 point limit, but times
        # 100 sites they needed a 7.2 GB score array
        rng = np.random.default_rng(0)
        sites = tmp_path / "sites.csv"
        rows = rng.random((100, 2)).tolist()
        sites.write_text("".join(f"1,{a!r},{b!r}\n" for a, b in rows))
        err = self.rejected_at_once(
            ["semidiscrete", "--nu", str(sites), "--grid-res", "3000"], tmp_path, capsys
        )
        assert err.count("\n") == 1 and "limit" in err

    def test_semidiscrete_sites_past_a_square_limit_run(self, tmp_path):
        # 3 163 sites on 2 cells are far under the score limit; their n x n
        # Laplacian, just over 10 000 000 entries, was rejected with exit 2,
        # and the edge-list Newton step keeps no such array
        sites = tmp_path / "sites.csv"
        sites.write_text("".join(f"1,{(k + 0.5) / 3163!r}\n" for k in range(3163)))
        code, payload = run_cli(
            ["semidiscrete", "--nu", str(sites), "--grid-res", "2", "--max-iter", "1"],
            tmp_path,
        )
        assert code in (0, 3)
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert len(doc["result"]["weights"]) == 3163
        assert doc["diagnostics"]["iterations"] <= 1

    def test_semidiscrete_over_the_grid_limit_exits_2_at_once(self, tmp_path, capsys):
        # 2e7 points times 2 sites is under the score limit, so the grid's
        # own 10 000 000 point limit is the one that stops it; at 5 sites
        # or more the score limit comes first
        sites = tmp_path / "sites.csv"
        sites.write_text("1,0.25\n1,0.75\n")
        err = self.rejected_at_once(
            ["semidiscrete", "--nu", str(sites), "--grid-res", "20000000"],
            tmp_path, capsys,
        )
        assert err == (
            "otecon semidiscrete: grid of 20000000^1 points: 20,000,000 entries,"
            " over the 10,000,000 limit\n"
        )

    def test_matching_labels_over_the_cell_limit_exit_2_at_once(self, tmp_path, capsys):
        # three rows labelled up to 30 000 asked for a 7.2 GB flows array
        table = tmp_path / "table.csv"
        table.write_text("1,1,1.0\n30000,0,2.0\n0,30000,3.0\n")
        err = self.rejected_at_once(["match-identify", "--table", str(table)], tmp_path, capsys)
        assert err == (
            f"otecon match-identify: {table}: labels' 30000 x 30000 array:"
            " 900,000,000 entries, over the 10,000,000 limit\n"
        )

    def test_basis_index_over_the_cell_limit_exits_2_at_once(self, tmp_path, capsys):
        # k = 1e9 on a 1 x 1 table asked for an 8 GB basis
        basis = tmp_path / "basis.csv"
        basis.write_text("1,1,1000000000,1.0\n")
        err = self.rejected_at_once(
            ["match-fit", "--table", "table_1x1.csv", "--basis", str(basis)], tmp_path, capsys
        )
        assert err == (
            f"otecon match-fit: {basis}: labels' 1 x 1 x 1000000000 array:"
            " 1,000,000,000 entries, over the 10,000,000 limit\n"
        )

    def test_semidiscrete_sites_without_coordinates_exit_2(self, tmp_path, capsys):
        err = self.rejected_at_once(
            ["semidiscrete", "--nu", "mu_six.csv"], tmp_path, capsys
        )
        assert err == (
            f"otecon semidiscrete: {data('mu_six.csv')}: sites need coordinate"
            " columns x1..xd\n"
        )

    def test_ranks_in_one_dimension_has_no_cost_limit(self, tmp_path):
        # d = 1 sorts and builds no n x n cost
        sample = tmp_path / "pts.csv"
        sample.write_text("".join(f"{(k * 7919) % 3163!r}\n" for k in range(3163)))
        code, payload = run_cli(["ranks", "--sample", str(sample)], tmp_path)
        assert code == 0
        assert sorted(json.loads(payload)["result"]["permutation"]) == list(range(3163))


class TestWriterParity:
    """Whole-array formatting against the element-by-element writer."""

    INVOCATIONS = (
        [COMMANDS[name] for name in sorted(COMMANDS)]
        + [TestFailureModes.CAPPED[name] for name in sorted(TestFailureModes.CAPPED)]
        + [TestFailureModes.CAPPED[name] + ["--max-iter", "1"]
           for name in sorted(TestFailureModes.CAPPED)]
    )

    @pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
    def test_documents_byte_identical(self, argv, tmp_path, monkeypatch):
        code, payload = run_cli(argv, tmp_path)
        monkeypatch.setattr(cli, "_to_json", to_json_loop)
        assert run_cli(argv, tmp_path) == (code, payload)

    @pytest.mark.parametrize(
        "value",
        [
            np.zeros(0),
            np.zeros((0, 3)),
            np.zeros((2, 0)),
            np.zeros((2, 0, 3)),
            np.array(2.5),
            np.array([-0.0, 1e-320, 1.7976931348623157e308, 0.1]),
            np.arange(24.0).reshape(2, 3, 4) / 7,
            np.arange(6, dtype=np.float32).reshape(3, 2) / 3,
            np.array([3, 1, 2]),
            np.array([True, False]),
            [np.float64(0.5), 1, None, True, "s\u00e9", (2.0,), []],
            {"a": {}, "b": {"c": np.ones((1, 1))}, "d": np.float32(0.1)},
        ],
        ids=repr,
    )
    def test_values_byte_identical(self, value):
        document = {"result": value}
        assert cli._to_json(document) == to_json_loop(document)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            cli._to_json({"result": object()})

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        for value in (bad, np.array([[0.0, bad]]), [1.0, bad]):
            with pytest.raises(DomainError, match="non-finite"):
                cli._to_json({"result": value})


class TestMaxIterEnv:
    BASE = [
        "sinkhorn", "--mu", "mu_uneven.csv", "--nu", "nu_uneven.csv",
        "--cost", "cost_2x2.csv", "--eps", "0.5", "--tol", "1e-13",
    ]

    def test_env_cap_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OTECON_MAX_ITER", "2")
        code, payload = run_cli(self.BASE, tmp_path)
        assert code == 3
        assert json.loads(payload)["diagnostics"]["converged"] is False

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OTECON_MAX_ITER", "2")
        code, payload = run_cli(self.BASE + ["--max-iter", "100000"], tmp_path)
        assert code == 0
        assert json.loads(payload)["diagnostics"]["converged"] is True

    def test_invalid_env_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OTECON_MAX_ITER", "soon")
        code = main(
            resolve(self.BASE) + ["--out", str(tmp_path / "o.json")]
        )
        assert code == 2
        assert "OTECON_MAX_ITER" in capsys.readouterr().err

    def test_nonpositive_env_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OTECON_MAX_ITER", "0")
        code = main(resolve(self.BASE) + ["--out", str(tmp_path / "o.json")])
        assert code == 2


class TestProcessEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "o.json"
        proc = subprocess.run(
            [sys.executable, "-m", "otecon.cli", "w1d",
             "--x", data("xs.csv"), "--y", data("ys.csv"), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        VALIDATOR.validate(json.loads(out.read_bytes()))

    def test_dro_large_multiplier_returns(self, tmp_path):
        # the minimizing multiplier is 1e7; the timeout turns a hang into a failure
        (tmp_path / "f.csv").write_text("0\n1e7\n")
        (tmp_path / "delta.csv").write_text("0,1\n1,0\n")
        (tmp_path / "w.csv").write_text("0.5\n0.5\n")
        out = tmp_path / "o.json"
        proc = subprocess.run(
            [sys.executable, "-m", "otecon.cli", "dro",
             "--f", str(tmp_path / "f.csv"), "--delta", str(tmp_path / "delta.csv"),
             "--mu", str(tmp_path / "w.csv"), "--rho", "0.1", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_bytes())["result"]["value"] == 6e6

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "otecon.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout


# the otecon modules every command loads: the CLI, CSV reading and the
# measure types it builds
BASE_MODULES = {"otecon._util", "otecon.cli", "otecon.csvio", "otecon.errors",
                "otecon.measures"}
LOADED = """
import sys
from otecon.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("otecon")))
"""


def _loaded_modules(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestModulesPerCommand:
    # the solver modules each command loads, and no other
    SOLVER_MODULES = {
        "w1d": {"otecon.closed_forms"},
        "sinkhorn": {"otecon.entropic"},
        "match-identify": {"otecon.matching"},
        "ot": {"otecon.discrete"},
        "bounds-te": {"otecon.bounds"},
        "dro": {"otecon.bounds"},
        "semidiscrete": {"otecon.semidiscrete"},
        # binary_cost_ot and vector_rank import the simplex inside the function
        "binary-ot": {"otecon.bounds", "otecon.discrete"},
        "ranks": {"otecon.semidiscrete", "otecon.discrete"},
        "bounds-subgroup": {"otecon.bounds"},
    }

    @pytest.mark.parametrize("name", sorted(SOLVER_MODULES))
    def test_command_loads_only_its_solvers(self, name, tmp_path):
        argv = resolve(COMMANDS[name]) + ["--out", str(tmp_path / "o.json")]
        loaded = _loaded_modules("-c", LOADED, *argv)
        assert loaded == {"0", "otecon"} | BASE_MODULES | self.SOLVER_MODULES[name]

    def test_bare_package_import_loads_no_submodule(self):
        code = "import sys, otecon; print(*(m for m in sys.modules if m.startswith('otecon')))"
        assert _loaded_modules("-c", code) == {"otecon"}

    def test_cli_import_loads_no_solver(self):
        code = "import sys, otecon.cli; print(*(m for m in sys.modules if m.startswith('otecon')))"
        assert _loaded_modules("-c", code) == {"otecon"} | BASE_MODULES


def _traced_names():
    """CLI_READERS and CLI_SOLVERS of otbench/run.py: the names of otecon.cli
    that its traced run wraps, to time the readers and solvers main calls."""
    tree = ast.parse((Path(__file__).parent.parent / "otbench" / "run.py").read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("CLI_READERS", "CLI_SOLVERS"):
                names[node.targets[0].id] = ast.literal_eval(node.value)
    return names["CLI_READERS"] + names["CLI_SOLVERS"]


class TestNamespace:
    # a command whose handler calls each traced name
    TRACED = {
        "read_measure_csv": "sinkhorn",
        "read_matrix_csv": "sinkhorn",
        "read_sample_csv": "w1d",
        "read_matching_csv": "match-identify",
        "read_gaussian_csv": "gaussian-w2",
        "sinkhorn": "sinkhorn",
        "eot_value": "sinkhorn",
        "cs_identify": "match-identify",
        "wasserstein_1d": "w1d",
        "rearrangement_bounds": "bounds-te",
        "gaussian_w2": "gaussian-w2",
    }

    @pytest.mark.parametrize("name", otecon.__all__)
    def test_export_is_the_submodules_object(self, name):
        value = getattr(otecon, name)
        assert getattr(import_module(value.__module__), name) is value
        assert name in dir(otecon)

    @pytest.mark.parametrize("module", [otecon, cli])
    def test_unknown_name_raises_attribute_error(self, module):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")

    def test_traced_names_listed(self):
        assert sorted(_traced_names()) == sorted(self.TRACED)

    @pytest.mark.parametrize("name", sorted(TRACED))
    def test_main_calls_the_bound_object(self, name, tmp_path, monkeypatch):
        original = getattr(cli, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        code, _ = run_cli(COMMANDS[self.TRACED[name]], tmp_path)
        assert code == 0
        assert calls


class TestRepeatedSite:
    def test_duplicate_site_stops_early(self, tmp_path):
        # the copy of the first site can never win a grid point, so no Newton
        # step keeps every nonempty cell nonempty and the loop ends at once
        code, payload = run_cli(
            ["semidiscrete", "--nu", "sites_repeated.csv", "--grid-res", "64",
             "--max-iter", "50"],
            tmp_path,
        )
        assert code == 3
        doc = json.loads(payload)
        VALIDATOR.validate(doc)
        assert doc["diagnostics"]["converged"] is False
        assert doc["diagnostics"]["iterations"] < 50


class TestScalarOptions:
    BAD = {
        "sliced --seed -1": (["sliced", "--x", "points_a.csv", "--y", "points_b.csv",
                              "--seed=-1"], "seed"),
        "sliced --n-dir": (["sliced", "--x", "points_a.csv", "--y", "points_b.csv",
                            "--n-dir", "1250001"], "n_dir"),
        "sliced --p nan": (COMMANDS["sliced"] + ["--p", "nan"], "p"),
        "sinkhorn --eps nan": (COMMANDS["sinkhorn"] + ["--eps", "nan"], "eps"),
        "sinkhorn --eps inf": (COMMANDS["sinkhorn"] + ["--eps", "inf"], "eps"),
        "uot --lam-mu nan": (COMMANDS["uot"] + ["--lam-mu", "nan"], "lam_mu"),
        "uot --lam-nu inf": (COMMANDS["uot"] + ["--lam-nu", "inf"], "lam_nu"),
        "w1d --p nan": (COMMANDS["w1d"] + ["--p", "nan"], "p"),
        "w1d --p inf": (COMMANDS["w1d"] + ["--p", "inf"], "p"),
        "dro --rho nan": (COMMANDS["dro"] + ["--rho", "nan"], "rho"),
        "dro --rho inf": (COMMANDS["dro"] + ["--rho", "inf"], "rho"),
        "match-sista --eps nan": (COMMANDS["match-sista"] + ["--eps", "nan"], "eps"),
        "match-sista --l1 nan": (COMMANDS["match-sista"] + ["--l1", "nan"], "l1"),
        # a negative value argparse alone would take for an option
        "sinkhorn --eps -1e-3": (COMMANDS["sinkhorn"] + ["--eps", "-1e-3"], "eps"),
        "sinkhorn --eps -inf": (COMMANDS["sinkhorn"] + ["--eps", "-inf"], "eps"),
        "dro --rho -1E2": (COMMANDS["dro"] + ["--rho", "-1E2"], "rho"),
        "uot --lam-n -1e3": (COMMANDS["uot"] + ["--lam-n", "-1e3"], "lam_nu"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_rejected_with_one_line(self, case, tmp_path, capsys):
        argv, name = self.BAD[case]
        code, payload = run_cli(argv, tmp_path)
        assert code == 2
        assert payload is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert f"{name} " in err

    @pytest.mark.parametrize(
        "case", ["sinkhorn --eps -1e-3", "sinkhorn --eps -inf", "dro --rho -1E2",
                 "uot --lam-n -1e3"]
    )
    def test_value_as_its_own_word_reads_as_joined(self, case, tmp_path, capsys):
        argv, _ = self.BAD[case]
        split = run_cli(argv, tmp_path), capsys.readouterr().err
        joined = run_cli(argv[:-2] + ["=".join(argv[-2:])], tmp_path), capsys.readouterr().err
        assert split == joined


# ------------------------------------------------------------------ property

SUBPARSERS = next(
    action.choices
    for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)
# ranges of the integer options, always given, so that every draw stays cheap
INT_RANGES = {
    "grid_res": (-1, 32), "n_dir": (-1, 64), "max_iter": (-1, 50), "seed": (-3, 9),
}
SPECIAL = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300"]


def _fmt(value):
    return "%.4g" % value


NUMBERS = st.one_of(
    st.integers(0, 3).map(str),
    st.floats(0.01, 5.0).map(_fmt),
    st.floats(-1e3, 1e3).map(_fmt),
)
TOKENS = st.one_of(NUMBERS, st.sampled_from(SPECIAL + ["", "x", " 1", "1;2"]))


@st.composite
def csv_bytes(draw):
    """CSV text of at most 8 rows, clean or with bad tokens, ragged rows, a
    header, a byte-order mark or a byte that is not UTF-8."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    dirty = draw(st.booleans())
    token = TOKENS if dirty else NUMBERS
    lines = []
    for _ in range(rows):
        width = draw(st.integers(max(1, cols - 1), cols + 1)) if dirty else cols
        lines.append(",".join(draw(token) for _ in range(width)))
    if draw(st.booleans()):
        lines.insert(0, ",".join("abcd"[:cols]))
    data = ("\n".join(lines) + "\n").encode()
    if dirty and draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if dirty and draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def _base_values(command):
    """Option values of the command's representative invocation."""
    argv = COMMANDS[command]
    return dict(zip(argv[1::2], argv[2::2]))


@st.composite
def invocations(draw):
    """A command, its options and their spelling:
    (command, ((flag, is_file, value), ...), split).

    A file option holds either the representative fixture or generated CSV
    text; a float option its representative value, a generated number or
    one of nan, inf and the like.  With split, every option that is not a
    file is written as two words, ``--flag value``, else as ``--flag=value``.
    """
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    base = _base_values(command)
    options = []
    for action in SUBPARSERS[command]._actions:
        if not action.option_strings or action.dest in ("help", "out"):
            continue
        flag = action.option_strings[0]
        if action.dest in INT_RANGES:
            options.append((flag, False, str(draw(st.integers(*INT_RANGES[action.dest])))))
            continue
        if not action.required and not draw(st.booleans()):
            continue
        if action.choices:
            options.append((flag, False, draw(st.sampled_from(sorted(action.choices)))))
        elif action.type is float:
            # half of the draws keep the representative value, if there is one
            kind = draw(st.integers(0, 3 if flag in base else 1))
            value = (draw(st.sampled_from(SPECIAL)) if kind == 0
                     else draw(st.floats(-1.0, 4.0).map(_fmt)) if kind == 1
                     else base[flag])
            options.append((flag, False, value))
        elif flag in base and draw(st.integers(0, 3)):
            # three in four file draws keep the representative fixture
            options.append((flag, True, (DATA / base[flag]).read_bytes()))
        else:
            options.append((flag, True, draw(csv_bytes())))
    return command, tuple(options), draw(st.booleans())


def _run_in(directory, spec):
    """Write the spec's files into directory and run main once on it."""
    command, options, split = spec
    argv = [command]
    for k, (flag, is_file, value) in enumerate(options):
        if is_file:
            path = directory / f"in{k}.csv"
            path.write_bytes(value)
            value = str(path)
        argv += [flag, value] if split and not is_file else [f"{flag}={value}"]
    out = directory / "out.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else None, err.getvalue()


class TestExitCodeProperty:
    @settings(max_examples=200, deadline=None)
    @given(invocations())
    # a negative seed and a nan eps reach numpy (Philox, the SVD in sista's
    # Newton step) and end in a traceback unless the scalar checks stop them
    @example(("sliced", (
        ("--x", True, b"0,0\n1,0\n"), ("--y", True, b"0,1\n2,2\n"),
        ("--n-dir", False, "4"), ("--seed", False, "-1")), False))
    @example(("match-sista", (
        ("--pi", True, (DATA / "pi_prod.csv").read_bytes()),
        ("--mu", True, (DATA / "mu_46.csv").read_bytes()),
        ("--nu", True, (DATA / "nu_37.csv").read_bytes()),
        ("--basis", True, (DATA / "basis_2x2.csv").read_bytes()),
        ("--eps", False, "nan"), ("--max-iter", False, "5")), False))
    # sites of total mass 0 once passed the positive-mass check as nan
    @example(("semidiscrete", (
        ("--nu", True, b"0,0\n"), ("--grid-res", False, "2"),
        ("--max-iter", False, "1")), False))
    # argparse alone takes a negative value with an exponent for an option
    @example(("uot", (
        ("--mu", True, (DATA / "mu_half.csv").read_bytes()),
        ("--nu", True, (DATA / "nu_half.csv").read_bytes()),
        ("--cost", True, (DATA / "cost_2x2.csv").read_bytes()),
        ("--eps", False, "-1e-05"), ("--lam-mu", False, "-inf"),
        ("--lam-nu", False, "5"), ("--max-iter", False, "5")), True))
    def test_exit_code_and_document(self, spec):
        with tempfile.TemporaryDirectory() as name:
            directory = Path(name)
            code, payload, err = _run_in(directory, spec)
            assert code in (0, 2, 3), err
            if code == 2:
                assert payload is None
                assert err.count("\n") == 1 and err.endswith("\n"), err
                return
            VALIDATOR.validate(json.loads(payload))
            assert _run_in(directory, spec)[:2] == (code, payload)
