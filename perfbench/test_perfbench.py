"""Self-tests of the benchmark, on its workloads built at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench_probe
import bench_workloads as wl
import run
import subderiv as sd

SPEC = run.load_spec()
TINY = {
    "vertex": {"n": 4, "m": 3},
    "separable": {"n": 6},
    "network": {"widths": "1,2,1", "m": 3},
    "verify": {"pairs": 1},
}


def FIXED_SETUP():
    return 0.25, 0.5


def tiny(name, seed=0):
    return wl.build(name, seed, **TINY[name])


def traced_pass(ops):
    tracer = bench_probe.Tracer()
    with tracer.instrument_solver():
        outs, _ = wl.run_pass(ops, tracer)
    return tracer, outs


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(capsys, trace):
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = run.measure(SPEC, wl, tiny("vertex"), FIXED_SETUP, 0.0, bool(trace), None, "tiny")
    printed = capsys.readouterr().out
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert f"  {m['name']} = {run.fmt(got['value'])} {m['unit']}\n" in printed
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        json.dumps(result)


@pytest.mark.parametrize("name", ["vertex", "separable", "network", "verify"])
def test_probes_preserve_every_output(name):
    ops = tiny(name)
    plain, _ = wl.run_pass(ops)
    tracer, traced = traced_pass(ops)
    assert [o.fingerprint for o in traced] == [o.fingerprint for o in plain]
    assert tracer.starts and all(e >= s for s, e in zip(tracer.starts, tracer.ends))
    for op in ops:
        probe = tracer.model(op.model)
        for flag in bench_probe.FLAGS:
            assert getattr(probe, flag) == getattr(op.model, flag), (name, flag)


def test_solve_fingerprint_covers_the_no_timing_trace():
    op = tiny("vertex")[0]
    x0 = op.x0.copy()
    x0[0] += 0.5
    moved = wl.Solve(op.label, op.problem, op.params, x0, op.cfg, op.build, op.f_star)
    a = op.execute(op.model, wl.PLAIN)
    b = moved.execute(op.model, wl.PLAIN)
    assert a.fingerprint == op.execute(op.model, wl.PLAIN).fingerprint
    assert a.fingerprint != b.fingerprint


def test_structural_counts_per_iterate():
    tracer, outs = traced_pass(tiny("vertex"))
    assert tracer.layer_metrics()["oracles.subderivative.per_point"] == 2 * 4 + 1
    tracer, outs = traced_pass(tiny("network"))
    p = tracer.probes[0].dim
    assert p == 7
    assert tracer.layer_metrics()["oracles.subderivative.per_point"] == 2 * p + 64 + 1


def test_repeat_share_matches_the_seed_count_on_quadratic():
    op = wl._registered("quadratic", {"n": 1000})
    op.model = op.build(wl.PLAIN)
    tracer, _ = traced_pass([op])
    probe = tracer.probes[0]
    assert (probe.value_repeats, probe.value_calls) == (216, 437)


class _Lying(sd.FunctionModel):
    """|x_1| with a subderivative that is off by one."""

    semi_differentiable = True

    @property
    def dim(self):
        return 1

    def value(self, x):
        return sd.ExtReal(abs(float(x[0])))

    def subderivative(self, x, w):
        return sd.ExtReal(float(np.sign(x[0]) * w[0]) + 1.0)


def test_injected_failing_operation_raises_fail_share(capsys):
    ops = tiny("vertex")
    base = run.measure(SPEC, wl, ops, FIXED_SETUP, 0.0, True, None, "base")
    bad = wl.FDBatch("fd.lying", lambda p: p.model(_Lying()),
                     [(np.array([0.5]), np.array([1.0]))])
    bad.model = bad.build(wl.PLAIN)
    hit = run.measure(SPEC, wl, ops + [bad], FIXED_SETUP, 0.0, True, None, "hit")
    capsys.readouterr()
    assert base["correct"] and base["failed"] == 0
    assert not hit["correct"] and hit["failed"] == 1 and hit["attempted"] == 3
    assert hit["metrics"]["fail_share"]["value"] > base["metrics"]["fail_share"]["value"]


def test_timed_step_that_changes_its_output_is_not_correct(capsys):
    weights = itertools.chain([1.0], itertools.repeat(2.0))
    op = wl.FDBatch("fd.moving", lambda p: p.model(sd.L1Norm(2, next(weights))),
                    [(np.array([0.5, -0.5]), np.array([1.0, 0.5]))])
    op.model = op.build(wl.PLAIN)
    result = run.measure(SPEC, wl, [op], FIXED_SETUP, 0.0, False, None, "moving")
    capsys.readouterr()
    assert result["failed"] == 0 and not result["correct"]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "vertex",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
