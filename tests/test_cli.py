"""End-to-end command-line behavior: exit codes, CSV output, custom jets."""
import numpy as np
import pytest

from matderiv import experiments, hermitian_eig, loads_matrix, write_matrix
from matderiv.cli import main
from matderiv.experiments import random_complex_matrix, random_hermitian


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


def test_density_demo_passes(capsys):
    code = main(["density-demo"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "check,value,threshold,status"
    assert len(lines) == 11
    assert all(line.endswith(",pass") for line in lines[1:])
    assert "occupied levels" in captured.err


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
        "--dirs", "1",
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


def test_custom_needs_alpha_or_dirs(tmp_path, capsys):
    a = np.eye(2, dtype=complex)
    base = tmp_path / "base.txt"
    write_matrix(base, a)
    code = main(["custom", "--jet", f"0={base}"])
    captured = capsys.readouterr()
    assert code == 1
    assert "configuration error" in captured.err


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
