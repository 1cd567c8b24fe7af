import errno
import json
import multiprocessing
import os
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

from anisolayer import (
    Field2D,
    Grid2D,
    NoConvergence,
    builtin_problem,
    composite,
    solve_fd,
)
from anisolayer import fdsolver
from anisolayer.cli import run
import anisolayer.cli as cli_module
from anisolayer.fdsolver import DEFAULT_TOL


def test_check_paper_passes(capsys):
    assert run(["check", "--problem", "paper"]) == 0
    out = capsys.readouterr().out
    assert "compatibility: PASS" in out
    assert "y-derivative sanity (4 supplied): PASS" in out


def test_unknown_problem_is_usage_error(capsys):
    assert run(["check", "--problem", "nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    assert run([]) == 1


def test_version_flag():
    assert run(["--version"]) == 0


def test_fd_writes_field_csv(tmp_path):
    out = tmp_path / "field.csv"
    code = run(["fd", "--problem", "constant-force", "--eps2", "0.05",
                "--nx", "8", "--ny", "16", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("anisolayer" in c for c in comments)
    assert any("problem: constant-force" in c for c in comments)
    header_idx = len(comments)
    assert lines[header_idx] == "x,y,value"
    rows = [ln.split(",") for ln in lines[header_idx + 1:]]
    assert len(rows) == 8 * 17
    # first row is the bottom Dirichlet node (phi0 = 0)
    assert float(rows[0][0]) == pytest.approx(1 / 16)
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][2]) == 0.0
    # interior value matches the exact parabola
    values = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    assert values[(1 / 16, 0.5)] == pytest.approx(0.125, abs=1e-10)


def test_fd_reruns_are_byte_identical(tmp_path):
    args = ["fd", "--problem", "paper", "--eps2", "0.1",
            "--nx", "16", "--ny", "16"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_expand_matches_library_values(tmp_path):
    out = tmp_path / "u0.csv"
    code = run(["expand", "--problem", "paper", "--eps2", "0.05", "--order", "1",
                "--nx", "4", "--ny", "4", "--modes", "16",
                "--quad-points", "256", "--out", str(out)])
    assert code == 0
    p = builtin_problem("paper", eps=float(np.sqrt(0.05)))
    grid = Grid2D(4, 4)
    expected = composite(p, order=1, n_modes=16, quad_points=256).evaluate_grid(
        grid.x_nodes(), grid.y_nodes())
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("x,")]
    got = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    for i, x in enumerate(grid.x_nodes()):
        for j, y in enumerate(grid.y_nodes()):
            assert got[(x, y)] == pytest.approx(expected[i, j], abs=1e-15)


def test_convergence_writes_table_and_sidecar(tmp_path):
    out = tmp_path / "table.csv"
    code = run(["convergence", "--problem", "no-layer",
                "--eps2", "0.001,0.01,0.1", "--orders", "0",
                "--nx", "8", "--ny", "32", "--modes", "8",
                "--quad-points", "128", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "eps2,r0"
    assert len(data) == 4
    sidecar = json.loads((tmp_path / "table.json").read_text())
    assert "slopes" in sidecar and "r0" in sidecar["slopes"]
    assert sidecar["grid"] == {"n_x": 8, "n_y": 32}
    assert sidecar["meta"]["problem"] == "no-layer"
    # the sweep's reference solves always run at the library tolerance
    assert sidecar["solver_tol"] == DEFAULT_TOL
    assert "tol" not in sidecar["meta"]
    assert not any(ln.startswith("# tol:") for ln in lines)


def test_convergence_sidecar_locates_norms_and_series_tails(tmp_path):
    out = tmp_path / "table.csv"
    code = run(["convergence", "--problem", "paper", "--eps2", "0.02,0.05,0.1",
                "--nx", "16", "--ny", "16", "--modes", "8", "--quad-points", "64",
                "--no-fd-error-estimate", "--out", str(out)])
    assert code == 0
    sidecar = json.loads((tmp_path / "table.json").read_text())
    grid = Grid2D(16, 16)
    for name in ("r0", "r2"):
        assert len(sidecar["argmax"][name]) == 3
        for x, y in sidecar["argmax"][name]:
            assert x in grid.x_nodes() and y in grid.y_nodes()[1:-1]
    tails = sidecar["tail_magnitudes"]
    assert set(tails) == {"bottom", "top", "force"}
    assert len(tails["force"]) == 1 and tails["force"][0] > 0.0
    assert "tail" not in out.read_text()


def test_field_csv_metadata_is_the_flag_echo(tmp_path):
    # diagnostics go to the convergence sidecar; the field CSVs carry only
    # the tool version and the flags
    for command in ("fd", "expand"):
        out = tmp_path / f"{command}.csv"
        assert run([command, "--problem", "paper", "--eps2", "0.05",
                    "--nx", "4", "--ny", "4", "--out", str(out)]) == 0
        keys = [ln[2:].split(":")[0] for ln in out.read_text().splitlines()
                if ln.startswith("#")]
        flags = vars(cli_module.build_parser().parse_args([command, "--problem", "paper",
                                                           "--eps2", "0.05", "--nx", "4",
                                                           "--ny", "4", "--out", str(out)]))
        assert keys == ["tool", "command"] + sorted(set(flags) - {"command", "out"})


def _table_norms(path):
    data = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [[float(c) for c in ln.split(",")[1:]] for ln in data[1:]]


def test_convergence_default_keeps_single_solve_norms(tmp_path, capsys):
    # without --refine the reference is one solve on the output grid, so the
    # table holds the norms measured before references were refined: the
    # sup over all rows, whose maxima lie on interior rows here
    out = tmp_path / "table.csv"
    eps2 = [0.02, 0.05, 0.1]
    code = run(["convergence", "--problem", "paper", "--eps2", "0.02,0.05,0.1",
                "--nx", "64", "--ny", "32", "--modes", "16",
                "--quad-points", "256", "--out", str(out)])
    assert code == 0
    grid = Grid2D(64, 32)
    xs, ys = grid.x_nodes(), grid.y_nodes()
    expected = []
    for e2 in eps2:
        p = builtin_problem("paper", eps=float(np.sqrt(e2)))
        field, _ = solve_fd(p, grid)
        row = []
        for n in (0, 1):
            approx = composite(p, order=n, n_modes=16, quad_points=256)
            diff = np.abs(field.values - approx.evaluate_grid(xs, ys))
            row.append(float(np.max(diff)))
        expected.append(row)
    assert _table_norms(out) == expected
    sidecar = json.loads((tmp_path / "table.json").read_text())
    assert sidecar["meta"]["refine"] == 1
    assert sidecar["reference"]["grid"] == {"n_x": 64, "n_y": 32}
    # dy = 1/32 does not resolve the layers: the flagged cells are named
    err = capsys.readouterr().err
    assert "warning" in err and "eps2=0.02/r2" in err and "--refine auto" in err


def test_convergence_refine_auto_records_solved_grid(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = run(["convergence", "--problem", "paper", "--eps2", "0.02,0.05,0.1",
                "--nx", "64", "--ny", "32", "--modes", "16",
                "--quad-points", "256", "--refine", "auto", "--out", str(out)])
    assert code == 0
    sidecar = json.loads((tmp_path / "table.json").read_text())
    assert sidecar["meta"]["refine"] == "auto"
    assert "# refine: auto" in out.read_text()
    # 16 pi dy / eps_min = 11.1 rounds up to r = 16
    solves = sidecar["reference"].pop("solves")
    assert sidecar["reference"] == {"grid": {"n_x": 64, "n_y": 512}, "refinement": 16,
                                    "capped": False}
    # per eps^2, the two y-levels the extrapolation comes from, each certified
    assert [[s["grid"] for s in eps_solves] for eps_solves in solves] == \
        [[{"n_x": 64, "n_y": 512}, {"n_x": 64, "n_y": 256}]] * 3
    for s in (s for eps_solves in solves for s in eps_solves):
        assert s["iterations"] == 1
        assert s["relative_residual"] <= 1e-11 + s["residual_floor"]
    assert sidecar["grid"] == {"n_x": 64, "n_y": 32}
    # the rows left out of the norm: K = 16 truncation of phi1 on y = 1
    for name in ("r0", "r2"):
        errors = sidecar["dirichlet_row_errors"][name]
        assert len(errors) == 3 and all(1e-6 < e < 1e-3 for e in errors)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def test_convergence_sidecar_without_estimate_is_strict_json(tmp_path):
    # estimates that were not made are null, not NaN
    out = tmp_path / "table.csv"
    code = run(["convergence", "--problem", "paper", "--eps2", "0.02,0.05,0.1",
                "--nx", "16", "--ny", "16", "--modes", "8", "--quad-points", "64",
                "--no-fd-error-estimate", "--out", str(out)])
    assert code == 0
    sidecar = json.loads((tmp_path / "table.json").read_text(),
                         parse_constant=_reject_constant)
    assert sidecar["fd_error_estimates"] == [None] * 3
    assert sidecar["flagged"] == {"r0": [False] * 3, "r2": [False] * 3}


def test_convergence_sidecar_reruns_are_byte_identical(tmp_path):
    # the reference block carries the solver diagnostics but no wall time
    argv = ["convergence", "--problem", "paper", "--eps2", "0.02,0.05,0.1",
            "--nx", "32", "--ny", "16", "--modes", "16", "--quad-points", "256",
            "--refine", "auto", "--out"]
    assert run(argv + [str(tmp_path / "a.csv")]) == 0
    assert run(argv + [str(tmp_path / "b.csv")]) == 0
    first = (tmp_path / "a.json").read_bytes()
    assert first == (tmp_path / "b.json").read_bytes()
    solves = json.loads(first)["reference"]["solves"]
    assert len(solves) == 3
    assert all(set(s) == {"grid", "iterations", "relative_residual", "residual_floor"}
               for eps_solves in solves for s in eps_solves)


def test_convergence_rejects_bad_refine(capsys):
    code = run(["convergence", "--problem", "paper", "--eps2", "0.01,0.05,0.1",
                "--nx", "8", "--ny", "8", "--refine", "3", "--out", "/dev/null"])
    assert code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_convergence_needs_three_eps_values(capsys):
    code = run(["convergence", "--problem", "paper", "--eps2", "0.01,0.1",
                "--orders", "0", "--nx", "8", "--ny", "8", "--out", "/dev/null"])
    assert code == 1
    assert "3" in capsys.readouterr().err


def test_mc_stdout_json(capsys):
    code = run(["mc", "--problem", "zero", "--eps2", "0.05", "--x", "0.5",
                "--y", "0.5", "--paths", "100", "--seed", "3", "--dt", "1e-3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean"] == 0.0
    assert payload["n_paths"] == 100
    assert payload["seed"] == 3
    assert payload["meta"]["command"] == "mc"


def test_mc_file_reruns_byte_identical(tmp_path):
    args = ["mc", "--problem", "paper", "--eps2", "0.05", "--x", "0.5",
            "--y", "0.5", "--paths", "200", "--seed", "7", "--dt", "1e-3"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mc_json_same_for_any_worker_count(tmp_path, monkeypatch):
    # 40 001 paths make three chunks, run by two processes or by one
    args = ["mc", "--problem", "paper", "--eps2", "0.05", "--x", "0.5",
            "--y", "0.1", "--paths", "40001", "--seed", "3", "--dt", "1e-3"]
    outs = []
    for cores in (2, 2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        outs.append(tmp_path / f"{len(outs)}.json")
        assert run(args + ["--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_mc_degenerate_start_is_usage_error(capsys):
    code = run(["mc", "--problem", "paper", "--eps2", "0.05", "--x", "0.5",
                "--y", "0.0", "--paths", "100", "--dt", "1e-3"])
    assert code == 1


def test_identity_json(tmp_path):
    out = tmp_path / "identity.json"
    code = run(["identity", "--problem", "paper", "--kmax", "4",
                "--quad-points", "1024", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["max_deviation"] < 1e-7
    assert payload["kmax"] == 4
    assert len(payload["y_samples"]) == 9


def test_check_step_too_small_for_doubles_is_usage_error(capsys):
    # 1 - 1e-300 rounds to 1, so every slope would read 0 and pass
    code = run(["check", "--problem", "paper", "--h", "1e-300"])
    _assert_one_line_usage_error(code, capsys, "check", "h = 1e-300 is too small")


@pytest.mark.parametrize("flag", ["--kmax", "--y-samples"])
def test_identity_empty_check_is_usage_error(flag, tmp_path, capsys):
    out = tmp_path / "identity.json"
    code = run(["identity", "--problem", "paper", "--quad-points", "64",
                flag, "0", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert flag in err and "positive integer" in err
    assert not out.exists()


def test_numerical_failure_maps_to_exit_2(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise NoConvergence("stalled")

    monkeypatch.setattr(cli_module, "solve_fd", explode)
    code = run(["fd", "--problem", "paper", "--eps2", "0.05",
                "--nx", "8", "--ny", "8", "--out", "/dev/null"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def _refuse(*args, **kwargs):
    raise AssertionError("numerical work started before the request was checked")


_PATH_CASES = {
    "fd": ("solve_fd", ["fd", "--problem", "paper", "--eps2", "0.05",
                        "--nx", "8", "--ny", "8"]),
    "expand": ("composite", ["expand", "--problem", "paper", "--eps2", "0.05",
                             "--nx", "8", "--ny", "8"]),
    "convergence": ("remainder_norms", ["convergence", "--problem", "paper",
                                        "--eps2", "0.01,0.05,0.1", "--nx", "8", "--ny", "8"]),
    "mc": ("estimate_point", ["mc", "--problem", "paper", "--eps2", "0.05",
                              "--x", "0.5", "--y", "0.5"]),
    "identity": ("decompose", ["identity", "--problem", "paper"]),
}


def _assert_one_line_usage_error(code, capsys, command, *needles):
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"anisolayer {command}: ")
    for needle in needles:
        assert needle in lines[0]


@pytest.mark.parametrize("command", sorted(_PATH_CASES))
def test_missing_output_directory_is_usage_error_before_computing(
        command, tmp_path, monkeypatch, capsys):
    target, argv = _PATH_CASES[command]
    monkeypatch.setattr(cli_module, target, _refuse)
    out = tmp_path / "missing" / "out.csv"
    code = run(argv + ["--out", str(out)])
    _assert_one_line_usage_error(code, capsys, command, "does not exist")
    assert not out.parent.exists()


@pytest.mark.parametrize("command", sorted(_PATH_CASES))
def test_directory_output_is_usage_error_before_computing(
        command, tmp_path, monkeypatch, capsys):
    target, argv = _PATH_CASES[command]
    monkeypatch.setattr(cli_module, target, _refuse)
    code = run(argv + ["--out", str(tmp_path)])
    _assert_one_line_usage_error(code, capsys, command, "is a directory")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_fd_max_iter_below_one_is_usage_error(value, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "solve_fd", _refuse)
    out = tmp_path / "field.csv"
    code = run(["fd", "--problem", "paper", "--eps2", "0.01", "--nx", "16", "--ny", "16",
                "--max-iter", value, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--max-iter" in err and "positive integer" in err
    assert not out.exists()


def test_mc_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "estimate_point", _refuse)
    out = tmp_path / "estimate.json"
    code = run(["mc", "--problem", "paper", "--eps2", "0.05", "--x", "0.5", "--y", "0.5",
                "--paths", "100", "--dt", "1e-3", "--seed", "-1", "--out", str(out)])
    _assert_one_line_usage_error(code, capsys, "mc", "seed must be >= 0, got -1")
    assert not out.exists()


_BAD_VALUE_CASES = {
    "fd-tol-nan": ["fd", "--problem", "paper", "--eps2", "0.05", "--nx", "8", "--ny", "8",
                   "--tol", "nan", "--out", "field.csv"],
    "fd-eps2-inf": ["fd", "--problem", "paper", "--eps2", "inf", "--nx", "8", "--ny", "8",
                    "--out", "field.csv"],
    "mc-eps2-inf": ["mc", "--problem", "paper", "--eps2", "inf", "--x", "0.5", "--y", "0.5",
                    "--paths", "100", "--dt", "1e-3", "--out", "estimate.json"],
    "check-tol-compat-inf": ["check", "--problem", "paper", "--tol-compat", "inf"],
    "convergence-eps2-nan": ["convergence", "--problem", "paper", "--eps2", "0.01,nan,0.1",
                             "--nx", "8", "--ny", "8", "--out", "table.csv"],
    "convergence-orders-empty": ["convergence", "--problem", "paper", "--eps2", "0.01,0.05,0.1",
                                 "--orders", "", "--nx", "8", "--ny", "8", "--out", "table.csv"],
    "convergence-orders-repeated": ["convergence", "--problem", "paper",
                                    "--eps2", "0.01,0.05,0.1", "--orders", "0,0",
                                    "--nx", "8", "--ny", "8", "--out", "table.csv"],
    "convergence-tol": ["convergence", "--problem", "paper", "--eps2", "0.01,0.05,0.1",
                        "--nx", "8", "--ny", "8", "--tol", "1e-6", "--out", "table.csv"],
}


@pytest.mark.parametrize("argv", list(_BAD_VALUE_CASES.values()), ids=list(_BAD_VALUE_CASES))
def test_bad_values_are_usage_errors_before_computing(argv, tmp_path, monkeypatch, capsys):
    # repeated orders reach remainder_norms, which refuses them before any solve
    monkeypatch.chdir(tmp_path)
    for target in ("solve_fd", "estimate_point", "check_compatibility"):
        monkeypatch.setattr(cli_module, target, _refuse)
    code = run(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("modes,code", [("8", 0), ("9", 1), ("2000", 1)])
def test_expand_modes_past_half_the_quadrature_intervals(modes, code, tmp_path, capsys):
    # 16 Simpson intervals resolve cosine modes up to 8; mode k > 8 would alias
    out = tmp_path / "u0.csv"
    assert run(["expand", "--problem", "paper", "--eps2", "0.05", "--nx", "4", "--ny", "4",
                "--modes", modes, "--quad-points", "16", "--out", str(out)]) == code
    if code:
        _assert_one_line_usage_error(code, capsys, "expand", "aliases")
    assert out.exists() == (code == 0)


def test_convergence_sidecar_directory_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "remainder_norms", _refuse)
    (tmp_path / "table.json").mkdir()
    code = run(_PATH_CASES["convergence"][1] + ["--out", str(tmp_path / "table.csv")])
    _assert_one_line_usage_error(code, capsys, "convergence", "table.json", "is a directory")
    assert not (tmp_path / "table.csv").exists()


def test_os_error_while_writing_is_usage_error(tmp_path, monkeypatch, capsys):
    def disk_full(self, stream, metadata=None):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Field2D, "write_csv", disk_full)
    code = run(_PATH_CASES["fd"][1] + ["--out", str(tmp_path / "field.csv")])
    _assert_one_line_usage_error(code, capsys, "fd", "No space left on device")


@pytest.mark.parametrize("message", ["Unable to allocate 1.16 TiB for an array with "
                                     "shape (400000, 400001) and data type float64", ""],
                         ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["fd", "expand"])
def test_out_of_memory_is_one_line_error(command, message, tmp_path, monkeypatch, capsys):
    # the stage raises as numpy does for a request too large to allocate;
    # nothing is allocated for real
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    stage, argv = _PATH_CASES[command]
    monkeypatch.setattr(cli_module, stage, out_of_memory)
    code = run(argv + ["--out", str(tmp_path / "field.csv")])
    _assert_one_line_usage_error(code, capsys, command, "out of memory", message)


def test_worker_death_while_writing_is_one_line_error(tmp_path, monkeypatch, capsys):
    # eight blocks of two y-rows, formatted on two forked workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(fdsolver, "_CSV_BLOCK_ENTRIES", 16)
    caller, format_rows = os.getpid(), fdsolver._format_rows

    def format_or_die(job, index):
        if index == 1 and os.getpid() != caller:
            os._exit(3)
        return format_rows(job, index)

    monkeypatch.setattr(fdsolver, "_format_rows", format_or_die)
    code = run(_PATH_CASES["fd"][1] + ["--out", str(tmp_path / "field.csv")])
    _assert_one_line_usage_error(code, capsys, "fd", "worker process died")
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_is_one_line_error(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    code = run(["fd", "--problem", "paper", "--eps2", "0.01", "--nx", "128", "--ny", "4096",
                "--out", "/dev/full"])
    _assert_one_line_usage_error(code, capsys, "fd", "No space left on device")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["fd", "expand"])
def test_small_field_runs_fork_nothing(command, tmp_path, monkeypatch):
    def refuse(proc):
        raise AssertionError("a one-block field forked a worker")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(ForkProcess, "start", refuse)
    out = tmp_path / "field.csv"
    assert run(_PATH_CASES[command][1] + ["--out", str(out)]) == 0
    assert out.read_text().count("x,y,value\n") == 1


def test_fd_tiny_eps_never_writes_zero_interior(tmp_path, capsys):
    # eps^2 = 1e-300 makes ||rhs||^2 underflow; the solve must either agree
    # with the eps^2 = 1e-12 field (both sit at the eps -> 0 limit on this
    # grid) or report a numerical failure, never exit 0 with a zero interior
    out = tmp_path / "field.csv"
    code = run(["fd", "--problem", "paper", "--eps2", "1e-300",
                "--nx", "16", "--ny", "16", "--out", str(out)])
    if code == 2:
        assert "numerical failure" in capsys.readouterr().err
        return
    assert code == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    rows = np.loadtxt(body[1:], delimiter=",")
    got = rows[:, 2].reshape(17, 16).T
    grid = Grid2D(16, 16)
    limit, _ = solve_fd(builtin_problem("paper", eps=1e-6), grid)
    assert np.any(got[:, 1:-1] != 0.0)
    assert np.max(np.abs(got - limit.values)) <= 1e-8
