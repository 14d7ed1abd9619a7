"""End-to-end command-line behavior: exit codes, CSV output, custom jets."""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matderiv import experiments, hermitian_eig, loads_matrix, write_matrix
from matderiv import cli
from matderiv.cli import build_parser, main
from matderiv.funcs import ALIASES, FUNCTIONS, get_function
from matderiv.experiments import random_complex_matrix, random_hermitian


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import matderiv.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_subcommand_is_config_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_fig1_real_stdout_csv(capsys):
    code = main(["fig1-real", "--points", "5", "--h-min", "1e-9", "--deterministic"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "h,method,rel_error,runtime_micros"
    assert len(lines) == 1 + 4 * 5
    assert all(line.endswith(",0.0") for line in lines[1:])


def test_fig1_out_file_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["fig1-complex", "--seed", "5", "--points", "6", "--h-min", "1e-9", "--deterministic"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "h,method,rel_error,runtime_micros"


def test_fig1_complex_notes_regular_step(capsys):
    code = main(["fig1-complex", "--points", "4", "--h-min", "1e-6"])
    captured = capsys.readouterr()
    assert code == 0
    assert "regular_cs" in captured.err


def test_fig2_runs_and_reports_orders(capsys):
    code = main(["fig2", "--deterministic"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "h,method,rel_error,runtime_micros"
    assert len(lines) == 1 + 4 * 15
    assert "reference validated" in captured.err
    assert "fitted orders" in captured.err


def test_fig2_reference_gate_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "REFERENCE_GATE", 1e-18)
    code = main(["fig2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "reference validation failed" in captured.err


def test_bad_grid_is_config_error(capsys):
    code = main(["fig1-real", "--h-min", "1", "--h-max", "0.1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "configuration error" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["fig2", "--points", "100000000000"],
        ["fig2", "--n", "1000000"],
        ["fig1-real", "--h-max", "inf"],
        ["fig2", "--h-max", "inf"],
    ],
    ids=["points-too-many", "n-too-large", "fig1-h-max-inf", "fig2-h-max-inf"],
)
def test_sweep_beyond_bounds_is_config_error(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("configuration error:")


_FLAGS = {
    "fig1-real": {"--seed", "--h-max", "--h-min", "--points", "--out", "--deterministic"},
    "fig1-complex": {"--seed", "--h-max", "--h-min", "--points", "--out", "--deterministic"},
    "fig2": {"--seed", "--n", "--h-max", "--h-min", "--points", "--out", "--deterministic"},
    "density-demo": {"--seed", "--n", "--mu", "--out", "--deterministic"},
    "custom": {"--seed", "--deterministic", "--out", "--h-max", "--jet", "--function", "--alpha",
               "--route"},
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_subcommand_takes_only_its_flags(capsys, command):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed - {"--help"} == _FLAGS[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1-real", "--n", "2"],
        ["fig1-complex", "--n", "2"],
        ["density-demo", "--h-max", "1"],
        ["density-demo", "--h-min", "1e-9"],
        ["density-demo", "--points", "5"],
        ["custom", "--alpha", "1", "--n", "3"],
        ["custom", "--alpha", "1", "--h-min", "1e-9"],
        ["custom", "--alpha", "1", "--points", "1"],
        ["custom", "--dirs", "1"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]),
)
def test_removed_flag_is_config_error(capsys, argv):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_function_choices_are_the_names_get_function_accepts():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    action = next(a for a in sub.choices["custom"]._actions if a.dest == "function")
    assert set(action.choices) == set(FUNCTIONS) | set(ALIASES)
    for name in action.choices:
        get_function(name)
    with pytest.raises(KeyError):
        get_function("x4")


def test_density_demo_passes(capsys):
    code = main(["density-demo"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "check,value,threshold,status"
    assert len(lines) == 11
    assert all(line.endswith(",pass") for line in lines[1:])
    assert "occupied levels" in captured.err


def test_density_demo_reads_any_negative_float_as_mu(capsys):
    # argparse alone reads "-1e-3" as a flag; "--mu=-1e-3" is the same request
    assert main(["density-demo", "--mu", "-1e-3", "--seed", "1"]) == 0
    spaced = capsys.readouterr()
    assert "mu = -0.001," in spaced.err
    assert main(["density-demo", "--mu=-1e-3", "--seed", "1"]) == 0
    assert capsys.readouterr() == spaced


@pytest.mark.parametrize("extra", [[], ["--mu", "0.1"]], ids=["widest-gap", "mu"])
@pytest.mark.parametrize("n", ["1", "0"])
def test_density_demo_needs_two_levels(capsys, extra, n):
    assert main(["density-demo", "--n", n] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--n >= 2" in err


@pytest.mark.parametrize("mu", ["nan", "inf", "1e300", "-inf"])
def test_density_demo_mu_outside_levels_is_input_error(capsys, mu):
    # every level on one side of mu: no gap to sit in, every derivative zero
    assert main(["density-demo", "--mu", mu]) == 1
    err = capsys.readouterr().err
    assert "--mu" in err and "between the levels" in err


def test_density_demo_failed_check_exit_code(monkeypatch, capsys):
    failing = experiments.DensityDemoResult(
        checks=[experiments.CheckRecord("p1_vs_fd", 2e-5, 1e-5, False)], mu=0.5, n_occ=3
    )
    monkeypatch.setattr(cli, "run_density_demo", lambda cfg, mu: failing)
    code = main(["density-demo"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines()[1].endswith(",fail")
    assert "failed checks: p1_vs_fd" in captured.err


def test_density_demo_mu_on_eigenvalue(capsys):
    rng = np.random.default_rng(0)
    h0 = random_hermitian(rng, 6)
    mu_bad = float(hermitian_eig(h0).eigenvalues[2])
    code = main(["density-demo", "--mu", repr(mu_bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_custom_identity_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(21)
    a = random_hermitian(rng, 3)
    e = random_complex_matrix(rng, 3)
    base = tmp_path / "base.txt"
    dirn = tmp_path / "d1.txt"
    write_matrix(base, a)
    write_matrix(dirn, e)
    code = main([
        "custom",
        "--jet", f"0={base}",
        "--jet", f"1={dirn}",
        "--function", "identity",
        "--alpha", "1",
        "--route", "blocktri",
    ])
    captured = capsys.readouterr()
    assert code == 0
    np.testing.assert_array_equal(loads_matrix(captured.out), e)


def test_custom_cross_route_comparison(tmp_path, capsys):
    rng = np.random.default_rng(22)
    a = random_hermitian(rng, 3)
    e = random_hermitian(rng, 3)
    base = tmp_path / "base.txt"
    dirn = tmp_path / "d1.txt"
    write_matrix(base, a)
    write_matrix(dirn, e)
    code = main([
        "custom",
        "--jet", f"0={base}",
        "--jet", f"1={dirn}",
        "--function", "exp",
        "--alpha", "1",
        "--route", "blocktri",
        "--route", "dk",
    ])
    captured = capsys.readouterr()
    assert code == 0
    compare_lines = [l for l in captured.err.splitlines() if l.startswith("compare,")]
    assert len(compare_lines) == 1
    gap = float(compare_lines[0].split(",")[3])
    assert gap <= 1e-10


def test_custom_dk_rejects_non_hermitian_base(tmp_path, capsys):
    rng = np.random.default_rng(23)
    a = random_complex_matrix(rng, 3)
    e = random_complex_matrix(rng, 3)
    base = tmp_path / "base.txt"
    dirn = tmp_path / "d1.txt"
    write_matrix(base, a)
    write_matrix(dirn, e)
    code = main([
        "custom",
        "--jet", f"0={base}",
        "--jet", f"1={dirn}",
        "--alpha", "1",
        "--route", "dk",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_custom_missing_jet_file(tmp_path, capsys):
    code = main([
        "custom",
        "--jet", f"0={tmp_path / 'absent.txt'}",
        "--alpha", "1",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "configuration error" in captured.err


def test_custom_needs_jet_terms(capsys):
    code = main(["custom", "--alpha", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "configuration error" in captured.err


def test_custom_needs_alpha(tmp_path, capsys):
    a = np.eye(2, dtype=complex)
    base = tmp_path / "base.txt"
    write_matrix(base, a)
    code = main(["custom", "--jet", f"0={base}"])
    captured = capsys.readouterr()
    assert code == 1
    assert "configuration error" in captured.err
    assert "--alpha" in captured.err and "dirs" not in captured.err


def test_unknown_route_rejected_by_parser(tmp_path, capsys):
    base = tmp_path / "base.txt"
    write_matrix(base, np.eye(2, dtype=complex))
    code = main([
        "custom", "--jet", f"0={base}", "--alpha", "1", "--route", "psychic",
    ])
    assert code == 1


def _custom_with_files(tmp_path, base, second):
    base_path = tmp_path / "base.txt"
    second_path = tmp_path / "d1.txt"
    write_matrix(base_path, base)
    write_matrix(second_path, second)
    code = main([
        "custom",
        "--jet", f"0={base_path}",
        "--jet", f"1={second_path}",
        "--alpha", "1",
    ])
    return code, second_path


def test_custom_non_square_term_is_config_error(tmp_path, capsys):
    rng = np.random.default_rng(24)
    code, path = _custom_with_files(
        tmp_path, random_hermitian(rng, 4), random_complex_matrix(rng, 4)[:, :3]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error" in err
    assert str(path) in err and "not square" in err


def test_custom_nan_entry_is_config_error(tmp_path, capsys):
    rng = np.random.default_rng(25)
    bad = random_complex_matrix(rng, 4)
    bad[1, 2] = complex(np.nan, 0.0)
    code, path = _custom_with_files(tmp_path, random_hermitian(rng, 4), bad)
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error" in err
    assert str(path) in err and "non-finite" in err


def test_custom_term_size_mismatch_is_config_error(tmp_path, capsys):
    rng = np.random.default_rng(26)
    code, path = _custom_with_files(
        tmp_path, random_hermitian(rng, 5), random_complex_matrix(rng, 4)
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error" in err
    assert str(path) in err and "has dim 4, expected 5" in err


def test_custom_duplicate_jet_key_is_config_error(tmp_path, capsys):
    # a second file for the same term would silently replace the first
    rng = np.random.default_rng(29)
    a, b, e = (tmp_path / f"{name}.txt" for name in "abe")
    for path in (a, b, e):
        write_matrix(path, random_hermitian(rng, 3))
    code = main(["custom", "--jet", f"0={a}", "--jet", f"0={b}", "--jet", f"1={e}", "--alpha", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error" in err
    assert str(b) in err and "jet term (0,) given twice" in err


@pytest.mark.parametrize("route", ["blocktri", "frechet_sum", "dk", "cs", "hybrid", "fd"])
def test_custom_empty_jet_terms_are_config_error(tmp_path, capsys, route):
    # a "0 0" file reads as a 0x0 matrix: there is nothing to differentiate
    args = ["custom", "--alpha", "1,1", "--route", route]
    for key in ("0,0", "1,0", "0,1", "1,1"):
        path = tmp_path / f"t{key.replace(',', '_')}.txt"
        write_matrix(path, np.zeros((0, 0)))
        args += ["--jet", f"{key}={path}"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "0x0" in err


def _custom_two_var(tmp_path, jet_keys, alpha, sep="="):
    """Run custom on a random two-variable jet with the given term keys,
    each joined to its file by ``sep``."""
    rng = np.random.default_rng(27)
    args = ["custom", "--alpha", alpha]
    for key in jet_keys:
        path = tmp_path / f"t{key.replace(',', '_')}.txt"
        write_matrix(path, random_hermitian(rng, 3))
        args += ["--jet", f"{key}{sep}{path}"]
    return main(args)


@pytest.mark.parametrize(
    "jet_keys,alpha,sep",
    [
        (("0,0", "1", "0,1"), "1,1", "="),  # keys of mixed length
        (("1,0", "0,1", "1,1"), "1,1", "="),  # no base term
        (("0,0", "1,0", "0,1"), "0,0", "="),  # order zero
        (("0,0", "1,0", "0,1"), "1,0,0", "="),  # alpha longer than the jet
        (("0,0", "1,0", "0,1"), "1,1", ":"),  # no INDEX=FILE split
    ],
    ids=["mixed-key-lengths", "no-base", "order-zero", "alpha-too-long", "jet-without-equals"],
)
def test_custom_malformed_request_is_config_error(tmp_path, capsys, jet_keys, alpha, sep):
    assert _custom_two_var(tmp_path, jet_keys, alpha, sep) == 1
    assert "configuration error" in capsys.readouterr().err


def test_custom_missing_term_for_request_is_route_error(tmp_path, capsys):
    # a well-formed request the jet cannot serve fails in the route
    assert _custom_two_var(tmp_path, ("0,0", "1,0", "0,1"), "2,0") == 2
    assert "error" in capsys.readouterr().err


def _custom_full_jet(tmp_path, alpha, extra):
    """Run custom on a random jet holding every term up to ``alpha``."""
    rng = np.random.default_rng(28)
    args = ["custom", "--alpha", ",".join(map(str, alpha)), *extra]
    for key in np.ndindex(*(a + 1 for a in alpha)):
        path = tmp_path / f"t{'_'.join(map(str, key))}.txt"
        write_matrix(path, random_complex_matrix(rng, 3))
        args += ["--jet", f"{','.join(map(str, key))}={path}"]
    return main(args)


def test_custom_stepped_routes_above_order_two(tmp_path, capsys):
    routes = ["--route", "blocktri", "--route", "cs", "--route", "hybrid"]
    assert _custom_full_jet(tmp_path, (2, 1), routes) == 0
    compare = [l for l in capsys.readouterr().err.splitlines() if l.startswith("compare,")]
    assert len(compare) == 3
    assert all(float(line.split(",")[3]) <= 1e-6 for line in compare)


def test_custom_non_finite_step_is_route_error(tmp_path, capsys):
    # h^2 underflows: the stepped quotient is not finite and is refused
    step = ["--route", "cs", "--h-max", "1e-170"]
    with pytest.warns(RuntimeWarning, match="to the power 2"):
        code = _custom_full_jet(tmp_path, (1, 1), step)
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "non-finite" in err


def test_custom_step_below_grid_floor_runs(tmp_path, capsys):
    # custom has no grid: a step below the sweeps' default h_min runs
    routes = ["--route", "blocktri", "--route", "cs", "--h-max", "1e-9"]
    assert _custom_full_jet(tmp_path, (1, 1), routes) == 0
    compare = [l for l in capsys.readouterr().err.splitlines() if l.startswith("compare,")]
    assert len(compare) == 1 and float(compare[0].split(",")[3]) <= 1e-6


@pytest.mark.parametrize("h", ["0", "-1", "inf", "nan"])
def test_custom_bad_step_is_config_error(tmp_path, capsys, h):
    assert _custom_full_jet(tmp_path, (1, 1), ["--route", "cs", "--h-max", h]) == 1
    assert "configuration error" in capsys.readouterr().err
