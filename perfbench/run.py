"""Benchmark runner for subderiv.

    python3 perfbench/run.py --workload vertex --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed. One run:

1. sets up: a fresh import of ``subderiv`` and a build of every model,
   problem and dataset of the workload (numpy is imported once, before);
2. with ``--trace 0``, runs every operation of the workload once and checks
   it, then for ``--seconds`` repeats rounds of timed steps replayed from
   that pass and reports the end-to-end metrics, with times scaled to a
   nominal host speed (see ``measure_plain`` and ``KERNEL_NOMINAL_S``);
3. with ``--trace 1``, alternates a plain pass and a traced pass until
   ``--seconds`` have elapsed, checks that the traced pass reproduced every
   output of the plain one exactly, and reports the per-layer metrics
   (low medians over traced passes) and the tracing overhead (see
   ``overhead_share``). The spans of the first traced pass go to
   ``perfbench/out/``.

Set-up is repeated between rounds, at most every ``SETUP_EVERY_S`` (and once
per pass pair when traced), and ``setup_s`` is the fastest repetition: the
set-ups spread over the whole run, like the timed steps.

Every operation is checked (see ``bench_workloads``). The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; metric names and units come from ``BENCHMARK.json``.
``attempted`` and ``failed`` count one pass, which is the same every pass.
``correct`` is false when an output value is wrong, or when a timed step,
a later pass or a traced pass does not reproduce the checked pass exactly;
a solve that ends in a disallowed status counts in ``failed`` only.

The loop is single-process and single-threaded, with BLAS threads pinned to 1.
Exit code 2, with no result line, when the package or an input is missing.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402  (imported once, outside the timed set-up)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
# set-up is repeated between rounds at most this often, so that short rounds
# are not dominated by imports
SETUP_EVERY_S = 0.25
# The host's speed drifts by up to 1.7x for minutes at a time (measured on a
# shared 2-vCPU VM), more than a fastest-of-many-repetitions filters out, so
# timed runs also time ``host_kernel`` once per KERNEL_EVERY_S between steps
# and scale step and set-up times by KERNEL_NOMINAL_S over the kernel's 1/R
# quantile, R the number of rounds: a step's time is its fastest of R
# repetitions, so the kernel's speed is read at the same depth. Over ten
# seeds on that VM this took the quartile spread of step_ms from 0.064 to
# 0.016 of its median on vertex, 0.116 to 0.032 on separable, 0.153 to
# 0.075 on verify and 0.085 to 0.049 on network. The kernel's 10% quantile
# over-corrected the workloads with many rounds (0.35 on vertex), its square
# root still spread 0.10-0.15, and its median did worse than no scaling.
KERNEL_EVERY_S = 0.02
# the kernel's time on that VM at its usual speed
KERNEL_NOMINAL_S = 0.85e-3
_KERNEL_V = numpy.linspace(-1.0, 1.0, 50)
WORKLOADS = ("vertex", "separable", "network", "verify")


class BenchError(Exception):
    """The benchmark cannot run here (missing package, file or workload)."""


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _ours(name: str) -> bool:
    return name == "subderiv" or name.startswith("subderiv.") or name == "bench_workloads"


def fresh_import():
    """Import ``subderiv`` and the workload module anew, from ``src/``."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    try:
        wl = importlib.import_module("bench_workloads")
    except ImportError as exc:
        raise BenchError(f"cannot import subderiv from {SRC}: {exc}") from exc
    origin = Path(sys.modules["subderiv"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"subderiv was imported from {origin}, not from {SRC}")
    return wl


def setup(workload: str, seed: int):
    """Import and build once: (module, ops, set-up seconds, build seconds)."""
    t0 = time.perf_counter()
    wl = fresh_import()
    t1 = time.perf_counter()
    ops = wl.build(workload, seed)
    t2 = time.perf_counter()
    return wl, ops, t2 - t0, t2 - t1


def timed_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set up once more, timed, and put back the modules in use."""
    saved = {n: m for n, m in sys.modules.items() if _ours(n)}
    try:
        return setup(workload, seed)[2:]
    finally:
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def step_times(passes) -> dict[str, list[float]]:
    """Step wall times per operation group, in seconds.

    A group is one registered problem (a step is a solver iteration, pooled
    over its solves) or one check batch (a step is one check). Every pass
    repeats the same steps, so a step's time is its fastest repetition.
    """
    pooled: dict[str, list[float]] = {}
    for i, out in enumerate(passes[0][0]):
        reps = [outs[i].step_walls for outs, _ in passes]
        k = min(len(r) for r in reps)
        fastest = numpy.min([r[:k] for r in reps], axis=0)
        pooled.setdefault(out.group, []).extend(fastest)
    return pooled


def fingerprints(outs) -> list[str]:
    return [o.fingerprint for o in outs]


def host_kernel() -> float:
    """Seconds taken by a fixed loop of interpreter work and small-vector
    numpy calls, the mix the library's own code runs; nothing in it depends
    on ``subderiv``, so a change to the library cannot change it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        v = _KERNEL_V * 0.5 + i
        acc += float(v @ _KERNEL_V) + float(numpy.max(numpy.abs(v)))
    return time.perf_counter() - t0


def measure_plain(wl, ops, seconds: float, resetup) -> dict:
    """One checked pass, then rounds of its timed steps for ``seconds``.

    A timed step is one solver iteration replayed from the pass (a fixed
    number per solve, evenly spaced from the first iterate to the last) or
    one check. Each round builds every model anew and runs every step once;
    a step's time is its fastest round. A shared host slows execution by up
    to 1.9x for seconds at a time (measured on a 2-vCPU VM), so the steps of
    a round are few and short (a round takes 0.1-1.5 s), each is timed in
    every round, spread over the run, and only its fastest repetition is
    kept. ``step_ms`` is, per group (a registered problem or a check batch),
    the mean of its steps' times, summed over the groups, and scaled to the
    nominal host speed (see ``KERNEL_NOMINAL_S``), as is ``setup_s``.
    """
    start = time.perf_counter()
    outs, walls = wl.run_pass(ops)
    steps = [(i, out.group, step) for i, out in enumerate(outs) for step in out.replays]
    best = [math.inf] * len(steps)
    same, setups, rounds = True, [], 0
    kernel = [host_kernel()]
    timed = last_setup = last_kernel = time.perf_counter()
    while rounds == 0 or time.perf_counter() - timed < seconds:
        if not setups or time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setups.append(resetup())
            last_setup = time.perf_counter()
        models = [op.build(wl.PLAIN) for op in ops]
        for j, (i, _, step) in enumerate(steps):
            due = int((time.perf_counter() - last_kernel) / KERNEL_EVERY_S)
            if due:
                kernel += [host_kernel() for _ in range(min(due, 5))]
                last_kernel = time.perf_counter()
            try:
                dt, ok = step(models[i])
            except Exception:   # the pass did not raise here, so the output changed
                same = False
                continue
            best[j] = min(best[j], dt)
            same = same and ok
        rounds += 1
    groups: dict[str, list[float]] = {}
    for (_, group, _), t in zip(steps, best):
        if math.isfinite(t):
            groups.setdefault(group, []).append(t)
    raw_ms = 1000.0 * sum(statistics.fmean(v) for v in groups.values())
    raw_setup = min(t for t, _ in setups)
    kernel_q = float(numpy.quantile(kernel, min(0.5, 1.0 / rounds)))
    scale = KERNEL_NOMINAL_S / kernel_q
    return {
        "outs": outs,
        "same": same,
        "elapsed": time.perf_counter() - start,
        "rounds": rounds,
        "groups": groups,
        "scale": scale,
        "kernel_runs": len(kernel),
        "kernel_q": kernel_q,
        "kernel_p10": float(numpy.quantile(kernel, 0.1)),
        "raw_step_ms": raw_ms,
        "raw_setup_s": raw_setup,
        "step_ms": raw_ms * scale,
        "setup_s": raw_setup * scale,
        "run_s": sum(walls),
    }


def measure_traced(wl, ops, seconds: float, dump_path, resetup) -> dict:
    import bench_probe

    plain, traced, per_layer, setups = [], [], [], []
    same = True
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        setups.append(resetup())
        outs, walls = wl.run_pass(ops)
        tracer = bench_probe.Tracer()
        with tracer.instrument_solver():
            t_outs, t_walls = wl.run_pass(ops, tracer)
        same = same and fingerprints(t_outs) == fingerprints(outs)
        if plain:
            same = same and fingerprints(outs) == fingerprints(plain[0][0])
        elif dump_path is not None:
            tracer.dump(dump_path)
        plain.append((outs, walls))
        traced.append((t_outs, t_walls))
        per_layer.append(tracer.layer_metrics())
    # median_low keeps counts whole: they repeat exactly from pass to pass.
    metrics = {k: statistics.median_low(m[k] for m in per_layer) for k in per_layer[0]}
    metrics["trace.overhead_share"] = overhead_share(plain, traced)
    metrics["problems.build_s"] = min(b for _, b in setups)
    return {"outs": plain[0][0], "same": same, "metrics": metrics,
            "passes": len(plain), "elapsed": time.perf_counter() - start}


def overhead_share(plain, traced) -> float:
    """Traced over plain workload time, less 1.

    Both times are sums over the workload's steps of each step's fastest
    repetition in that mode, as for ``step_ms``. With a single pass pair (on
    ``network``) there is no repetition to filter host load with, and the
    figure carries that noise.
    """
    p = sum(sum(v) for v in step_times(plain).values())
    t = sum(sum(v) for v in step_times(traced).values())
    return float(t / p) - 1.0


def reference_counts(wl, outs) -> tuple[int, int]:
    """(solves with a recorded reference, how many of them differ from it)."""
    table = wl.reference_table(REFERENCE)
    checked = mismatch = 0
    for o in outs:
        if o.reference is not None and o.reference[0] in table:
            checked += 1
            mismatch += wl.reference_mismatch(o.reference, table[o.reference[0]])
    return checked, mismatch


def fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    spec = load_spec()
    wl, ops, _, _ = setup(workload, seed)
    dump = None
    if trace:
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans-{workload}-seed{seed}.json"
    result = measure(spec, wl, ops, lambda: timed_setup(workload, seed), seconds, trace, dump,
                     f"perfbench {workload} seed={seed} trace={int(trace)}")
    print(json.dumps(result))
    return 0


def measure(spec, wl, ops, resetup, seconds, trace, dump, title) -> dict:
    """Measure built operations, print the readable report, return the result.

    ``resetup()`` sets up once more and returns (set-up s, build s).
    """
    if trace:
        res = measure_traced(wl, ops, seconds, dump, resetup)
        passes = f"{res['passes']} plain+traced pass pairs"
    else:
        res = measure_plain(wl, ops, seconds, resetup)
        passes = f"1 checked pass and {res['rounds']} rounds of timed steps"
    outs = res["outs"]
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    wrong = sum(o.wrong for o in outs)
    iterations = sum(o.iterations for o in outs)
    fail_share = failed / attempted

    print(f"{title}: {passes} in {res['elapsed']:.2f} s")
    for o in outs:
        verdict = "WRONG" if o.wrong else ("FAIL" if o.failed else "ok")
        print(f"  {o.label:<24} {verdict:<5} {o.note}")
    if not res["same"]:
        print("  outputs disagree: a timed step, a later pass or a traced pass changed an output")

    if trace:
        checked, mismatch = reference_counts(wl, outs)
        values = dict(res["metrics"])
        values.update({
            "fail_share": fail_share,
            "solver.iterations": iterations,
            "solver.trace_checked": checked,
            "solver.trace_mismatch": mismatch,
        })
        wanted = spec["per_layer"]
    else:
        values = {
            "step_ms": res["step_ms"],
            "setup_s": res["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        print(f"  run_s = {fmt(res['run_s'])} s   (wall time of the checked pass)")
        for group, v in res["groups"].items():
            print(f"  step {group}: mean {1000 * statistics.fmean(v):.3f} ms, "
                  f"fastest {1000 * min(v):.3f} ms, slowest {1000 * max(v):.3f} ms "
                  f"over {len(v)} timed steps (unscaled)")
        print(f"  host kernel: quantile 1/{res['rounds']} {1000 * res['kernel_q']:.4f} ms "
              f"(10% {1000 * res['kernel_p10']:.4f} ms) over {res['kernel_runs']} runs, "
              f"scale {res['scale']:.4f}: unscaled step_ms {res['raw_step_ms']:.4f} ms, "
              f"setup_s {res['raw_setup_s']:.5f} s")
        print(f"  iterations = {iterations} count")
        print(f"  fail_share = {fmt(fail_share)} ratio ({failed} of {attempted} operations)")
    names = [m["name"] for m in wanted]
    if set(names) != set(values):
        raise BenchError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {fmt(values[m['name']])} {m['unit']}")
    return {"correct": wrong == 0 and res["same"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
