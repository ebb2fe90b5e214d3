"""Command-line runner: exit codes, trace formats, determinism, config files."""

from pathlib import Path

import numpy as np
import pytest

import subderiv as sd
import subderiv.cli as cli
from subderiv.cli import (CSV_HEADER, emit_trace, main, read_report,
                          read_trace_csv)
from subderiv.problems import REGISTRY, build_problem, load_matrix, load_vector

GOLDEN = Path(__file__).parent / "golden"


def test_list_prints_registry(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out


def test_unknown_problem_names_the_flag(capsys):
    code = main(["--problem", "nope"])
    assert code == 2
    assert "--problem" in capsys.readouterr().err


def test_missing_problem_is_usage_error(capsys):
    assert main([]) == 2


def test_end_to_end_dc_run(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["--problem", "dc_quadratic_l1", "--epsilon", "1e-3",
                 "--norm", "l1", "--mu", "0.5", "--max-iter", "10000",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[-1].startswith("# status=")
    rows, status = read_trace_csv(str(out))
    assert status == "EpsStationary"
    assert len(rows) == len(lines) - 2


def test_emit_trace_format_contract(tmp_path):
    recs = [sd.IterationRecord(k, 1.0 - k, -1.0, 1.0, 0, 1.0, 123) for k in range(3)]
    tr = sd.Trace(records=recs, status=sd.TerminalStatus.MAX_ITER,
                  x_final=np.zeros(1), f_final=-2.0, certified=True)
    path = tmp_path / "t.csv"
    emit_trace(tr, str(path), "csv")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 3 + 1
    assert lines[0] == CSV_HEADER
    assert lines[-1] == "# status=MaxIter"


def test_json_round_trip(tmp_path):
    recs = [sd.IterationRecord(0, 2.0, -1.5, 0.5, 1, 0.5, 7)]
    tr = sd.Trace(records=recs, status=sd.TerminalStatus.EPS_STATIONARY,
                  x_final=np.array([1.0, 2.0]), f_final=0.5, certified=True)
    path = tmp_path / "t.json"
    emit_trace(tr, str(path), "json", config_echo={"problem": "demo"},
               audit={"holds": True})
    got = read_report(str(path))
    assert got["status"] == "EpsStationary"
    assert got["config"] == {"problem": "demo"}
    assert got["iterations"][0]["dir_value"] == -1.5
    assert got["x_final"] == [1.0, 2.0]
    assert got["rate_audit"] == {"holds": True}


def test_rate_audit_block_present_iff_configured(tmp_path):
    out1 = tmp_path / "dc.json"
    assert main(["--problem", "dc_quadratic_l1", "--format", "json",
                 "--out", str(out1)]) == 0
    rep1 = read_report(str(out1))
    assert rep1["rate_audit"] is not None
    assert rep1["rate_audit"]["holds"]
    out2 = tmp_path / "relu.json"
    assert main(["--problem", "relu_net", "--format", "json",
                 "--out", str(out2)]) == 0
    rep2 = read_report(str(out2))
    assert rep2["rate_audit"] is None


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    flags = ["--problem", "dc_quadratic_l1", "--epsilon", "1e-3", "--norm", "l1",
             "--mu", "0.5", "--max-iter", "10000", "--seed", "7", "--no-timing"]
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_timing_zeroes_wall(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["--problem", "quadratic", "--no-timing", "--out", str(out)]) == 0
    rows, _ = read_trace_csv(str(out))
    assert all(r["wall_ns"] == 0 for r in rows)


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem=quadratic\nepsilon=0.5\nmax_iter=7\n# comment\n")
    out = tmp_path / "t.csv"
    assert main(["--config", str(cfgfile), "--out", str(out)]) == 0
    rows, status = read_trace_csv(str(out))
    # epsilon=0.5 from the file: gradient norm 5 at x0, stops within a few steps
    assert status == "EpsStationary"
    assert main(["--config", str(cfgfile), "--epsilon", "1e-6",
                 "--out", str(out)]) == 0
    rows2, _ = read_trace_csv(str(out))
    assert len(rows2) > len(rows)  # flag overrode the file's looser epsilon


def test_problem_params_via_config(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem=dc_quadratic_l1\nparam.n=3\nparam.lam=2.0\n")
    out = tmp_path / "t.json"
    assert main(["--config", str(cfgfile), "--format", "json",
                 "--out", str(out)]) == 0
    rep = read_report(str(out))
    assert len(rep["x_final"]) == 3
    # minimizers of (1/2)x^2 - 2|x| sit at |x| = 2
    assert np.allclose(np.abs(rep["x_final"]), 2.0, atol=1e-3)


def test_moreau_r_flag(tmp_path):
    out = tmp_path / "s.json"
    assert main(["--problem", "sparse_moreau", "--r", "0.25", "--format", "json",
                 "--out", str(out)]) == 0
    rep = read_report(str(out))
    assert rep["rate_audit"]["L"] == pytest.approx(4.0)  # 1/r wired through


def test_unbounded_run_exits_nonzero(tmp_path, capsys):
    # The linear problem with a huge slope and enough iterations hits the floor.
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem=linear\nparam.c=2e11,0\nmax_iter=200\n")
    code = main(["--config", str(cfgfile)])
    assert code == 1
    assert "Unbounded" in capsys.readouterr().err


def test_sweep_runs_all_lines(tmp_path):
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("problem=quadratic epsilon=1e-3\n"
                     "problem=dc_quadratic_l1 epsilon=1e-3\n")
    out = tmp_path / "s.csv"
    assert main(["--sweep", str(sweep), "--no-timing", "--out", str(out)]) == 0
    assert (tmp_path / "s.csv.0").exists()
    assert (tmp_path / "s.csv.1").exists()


def test_sweep_runs_lines_in_file_order(tmp_path, capsys):
    # Summary lines follow the file even when the first line is the slowest.
    # A failing line in the middle prints one diagnostic, scores exit 1, and
    # the lines after it still run.
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("problem=dc_quadratic_l1 param.n=20 epsilon=1e-3\n"
                     "problem=quadratic param.x0=1,2,3\n"
                     "problem=sparse_moreau\n"
                     "problem=quadratic epsilon=1e-3\n")
    assert main(["--sweep", str(sweep), "--no-timing"]) == 1
    captured = capsys.readouterr()
    names = [ln.split(":", 1)[0] for ln in captured.out.splitlines()]
    assert names == ["dc_quadratic_l1", "sparse_moreau", "quadratic"]
    assert captured.err.count("error:") == 1
    assert "DimensionMismatch" in captured.err


def test_fixture_file_loading(tmp_path):
    mat = tmp_path / "m.txt"
    mat.write_text("# fixture\n1 2 3\n4 5 6\n")
    M = load_matrix(str(mat))
    assert M.shape == (2, 3) and M[1, 2] == 6.0
    vec = tmp_path / "v.txt"
    vec.write_text("1.5\n-2\n")
    v = load_vector(str(vec))
    assert v == pytest.approx(np.array([1.5, -2.0]))
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3\n")
    with pytest.raises(ValueError):
        load_matrix(str(bad))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "# only a comment\n\n   \n# another\n"])
def test_fixture_without_rows_raises_without_a_warning(text, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="no numeric rows"):
        load_matrix(str(path))


def test_fixture_shapes_and_refusals(tmp_path):
    one = tmp_path / "one.txt"
    one.write_text("7  # a scalar\n")
    assert load_matrix(str(one)).shape == (1, 1) and load_matrix(str(one))[0, 0] == 7.0
    for text in ["1 2 3\n4 5\n", "1\n2 3\n", "1 x\n"]:
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(ValueError):
            load_matrix(str(bad))


def test_problem_vector_param_from_file(tmp_path):
    x0file = tmp_path / "x0.txt"
    x0file.write_text("2 2\n")
    built = build_problem("quadratic", {"x0": str(x0file)})
    assert built.x0 == pytest.approx(np.array([2.0, 2.0]))
    built2 = build_problem("quadratic", {"x0": "1.0,-1.0"})
    assert built2.x0 == pytest.approx(np.array([1.0, -1.0]))


def test_every_registered_problem_reaches_terminal_status():
    for name in REGISTRY:
        built = build_problem(name)
        tr = sd.run(built.model, built.x0, built.defaults)
        assert tr.status in (sd.TerminalStatus.EPS_STATIONARY,
                             sd.TerminalStatus.MAX_ITER), name


def test_r_flag_beats_the_config_files_radius(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem=sparse_moreau\nparam.r=0.5\n")
    out = tmp_path / "s.json"
    assert main(["--config", str(cfgfile), "--r", "0.25", "--format", "json",
                 "--out", str(out)]) == 0
    rep = read_report(str(out))
    assert rep["rate_audit"]["L"] == pytest.approx(4.0)
    assert rep["config"]["param.r"] == 0.25
    assert "r" not in rep["config"]


def test_config_no_timing_false_keeps_wall_times(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem=quadratic\nno_timing=false\n")
    out = tmp_path / "t.csv"
    assert main(["--config", str(cfgfile), "--out", str(out)]) == 0
    rows, _ = read_trace_csv(str(out))
    assert any(r["wall_ns"] > 0 for r in rows)
    cfgfile.write_text("problem=quadratic\nno_timing=maybe\n")
    assert main(["--config", str(cfgfile), "--out", str(out)]) == 2
    assert "no_timing" in capsys.readouterr().err


def test_sweep_line_format_and_no_timing_win(tmp_path):
    sweep = tmp_path / "sweep.txt"
    sweep.write_text("problem=quadratic\n"
                     "problem=quadratic format=json no_timing=true\n")
    out = tmp_path / "s.out"
    assert main(["--sweep", str(sweep), "--out", str(out)]) == 0
    rows, status = read_trace_csv(str(tmp_path / "s.out.0"))
    assert status == "EpsStationary"
    assert any(r["wall_ns"] > 0 for r in rows)
    rep = read_report(str(tmp_path / "s.out.1"))
    assert rep["status"] == "EpsStationary"
    assert all(it["wall_ns"] == 0 for it in rep["iterations"])


def test_unknown_format_exits_2_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the run went on past an unknown format")

    monkeypatch.setattr(cli, "build_problem", no_solve)
    monkeypatch.setattr(cli, "run", no_solve)
    out = tmp_path / "x.out"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"problem=dc_quadratic_l1\nparam.n=200\nformat=xml\nout={out}\n")
    assert main(["--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and "'xml'" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("source", ["config", "sweep"])
def test_unknown_schedule_exits_2_before_anything_is_built(source, tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the run went on past an unknown schedule")

    monkeypatch.setattr(cli, "build_problem", no_solve)
    monkeypatch.setattr(cli, "run", no_solve)
    out = tmp_path / "x.out"
    path = tmp_path / "settings.txt"
    if source == "config":
        path.write_text(f"problem=quadratic\nschedule=constant\nout={out}\n")
    else:
        path.write_text(f"problem=quadratic schedule=constant out={out}\n")
    assert main([f"--{source}", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and "'constant'" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("source", ["config", "sweep"])
@pytest.mark.parametrize("setting", [
    "norm=l3", "strategy=foo", "max_iter=abc", "epsilon=abc", "seed=1.5", "budget=x",
    "mu=abc", "alpha0=abc", "param.r=abc", "no_timing=maybe"])
def test_a_value_its_flag_refuses_exits_2_before_anything_is_built(
        source, setting, tmp_path, capsys, monkeypatch):
    # the same value given to the flag is a usage error; from a file or a
    # sweep line it exited 1 once the problem was built
    def no_build(*args, **kwargs):
        raise AssertionError("the run went on past a refused value")

    monkeypatch.setattr(cli, "build_problem", no_build)
    key, value = setting.split("=")
    path = tmp_path / "settings.txt"
    sep = "\n" if source == "config" else " "
    path.write_text(sep.join(["problem=sparse_moreau", setting]) + "\n")
    assert main([f"--{source}", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1
    assert key in captured.err and repr(value) in captured.err
    assert captured.out == ""


def test_diminishing_schedule_runs_alpha0_over_k(tmp_path):
    out = tmp_path / "d.json"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"problem=quadratic\nschedule=diminishing\nalpha0=0.5\nmax_iter=5\n"
                       f"format=json\nout={out}\n")
    assert main(["--config", str(cfgfile), "--no-timing"]) == 0
    rep = read_report(str(out))
    assert rep["status"] == "MaxIter"
    assert [it["alpha"] for it in rep["iterations"]] == [0.5, 0.25, 0.5 / 3, 0.125, 0.1]
    assert [it["backtracks"] for it in rep["iterations"]] == [0] * 5
    assert rep["rate_audit"] is None     # the rate audit reads Armijo runs only


def test_unknown_setting_exits_2_and_names_the_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("problem=quadratic\nmax-iter=3\n")
    assert main(["--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and "'max-iter'" in captured.err
    assert captured.out == ""


def test_parameter_the_problem_does_not_take_exits_2(tmp_path, capsys):
    assert main(["--problem", "quadratic", "--r", "0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and "'param.r'" in captured.err
    assert captured.out == ""
    # sparse_moreau lists r among its params, so the flag runs there
    assert main(["--problem", "sparse_moreau", "--r", "0.25"]) == 0


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_default_trace_matches_golden(name, tmp_path):
    # Golden files: each registered problem at its defaults with --no-timing.
    # Floats compare within 1e-9 relative so that another CPU's dot kernels
    # do not fail the test; every discrete column compares exactly.
    out = tmp_path / "t.csv"
    assert main(["--problem", name, "--no-timing", "--out", str(out)]) == 0
    rows, status = read_trace_csv(str(out))
    want_rows, want_status = read_trace_csv(str(GOLDEN / f"{name}.csv"))
    assert status == want_status
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        for key in ("iter", "backtracks", "wall_ns"):
            assert got[key] == want[key], (got["iter"], key)
        for key in ("f", "dir_value", "alpha", "step_norm"):
            assert got[key] == pytest.approx(want[key], rel=1e-9, abs=0.0), (got["iter"], key)
