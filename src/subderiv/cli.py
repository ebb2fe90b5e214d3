"""Benchmark runner: problem registry, configuration, traces, reports.

Exit codes: 0 when the run terminates EpsStationary or MaxIter, 1 on runtime
failures (including Unbounded and BacktrackExhausted terminals), 2 on usage
errors. Identical flags plus seed give byte-identical traces; wall-clock
timing is the one nondeterministic column and ``--no-timing`` zeroes it.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from dataclasses import replace
from typing import Optional

from .direction import NormChoice
from .linesearch import ArmijoParams, armijo_schedule, diminishing_schedule
from .problems import REGISTRY, BuiltProblem, build_problem
from .solver import (STRATEGIES, SolverConfig, TerminalStatus, Trace,
                     ball_radius_sq, rate_audit, rate_constant, resolve_strategy,
                     run)

CSV_HEADER = "iter,f,dir_value,alpha,backtracks,step_norm,wall_ns"

_FLAG_KEYS = ("epsilon", "norm", "mu", "alpha0", "schedule", "max_iter",
              "seed", "strategy", "budget", "format", "no_timing", "r")

# SolverConfig fields a setting overrides directly, with their converters.
_CONFIG_KEYS = (("epsilon", float), ("norm", NormChoice), ("max_iter", int),
                ("seed", int), ("strategy", str), ("budget", int))


def emit_trace(trace: Trace, path: str, fmt: str = "csv",
               config_echo: Optional[dict] = None,
               audit: Optional[dict] = None,
               no_timing: bool = False) -> None:
    """Write a trace as CSV (rows plus a trailing status comment) or JSON."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in trace.records:
            wall = 0 if no_timing else r.wall_ns
            lines.append(f"{r.k},{r.f!r},{r.dir_value!r},{r.alpha!r},"
                         f"{r.backtracks},{r.step_norm!r},{wall}")
        lines.append(f"# status={trace.status.value}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    if fmt == "json":
        payload = {
            "config": config_echo or {},
            "status": trace.status.value,
            "certified": trace.certified,
            "detail": trace.detail,
            "iterations": [
                {"iter": r.k, "f": r.f, "dir_value": r.dir_value,
                 "alpha": r.alpha, "backtracks": r.backtracks,
                 "step_norm": r.step_norm,
                 "wall_ns": 0 if no_timing else r.wall_ns}
                for r in trace.records
            ],
            "x_final": list(trace.x_final),
            "f_final": trace.f_final,
            "rate_audit": audit,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    raise ValueError(f"unknown format {fmt!r}")


def read_report(path: str) -> dict:
    """Read back a JSON report written by emit_trace."""
    with open(path) as fh:
        return json.load(fh)


def read_trace_csv(path: str) -> tuple[list[dict], str]:
    """Parse a CSV trace into row dicts plus the terminal status."""
    rows = []
    status = ""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "status=" in line:
                    status = line.split("status=", 1)[1].strip()
                continue
            k, f, dv, a, m, s, w = line.split(",")
            rows.append({"iter": int(k), "f": float(f), "dir_value": float(dv),
                         "alpha": float(a), "backtracks": int(m),
                         "step_norm": float(s), "wall_ns": int(w)})
    return rows, status


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="subderiv-bench",
        description="Run a registered nonsmooth benchmark problem and emit its trace.")
    p.add_argument("--problem", help="registered problem name")
    p.add_argument("--list", action="store_true", help="print the registry and exit")
    p.add_argument("--config", help="key=value file; explicit flags win on conflict")
    p.add_argument("--epsilon", type=float, help="stationarity tolerance")
    p.add_argument("--norm", choices=[c.value for c in NormChoice],
                   help="unit-ball norm")
    p.add_argument("--mu", type=float, help="Armijo reduction multiple in (0,1)")
    p.add_argument("--alpha0", type=float,
                   help="initial Armijo step / diminishing numerator")
    p.add_argument("--schedule", choices=["armijo", "diminishing"])
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--seed", type=int, help="seed for the sampling fallback")
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--budget", type=int, help="fallback sample budget")
    p.add_argument("--r", type=float,
                   help="Moreau smoothing radius for envelope problems (default 0.5)")
    p.add_argument("--out", help="trace output path")
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.add_argument("--no-timing", action="store_true", dest="no_timing",
                   help="zero the wall_ns column for byte-identical traces")
    p.add_argument("--sweep", help="file of per-run key=value overrides, runs in file order")
    return p


def _merge_settings(args: argparse.Namespace, file_cfg: dict) -> dict:
    settings = dict(file_cfg)
    for key in _FLAG_KEYS:
        val = getattr(args, key, None)
        if val is not None and val is not False:
            settings[key] = val
    return settings


def _apply_settings(built: BuiltProblem, settings: dict) -> SolverConfig:
    cfg = built.defaults
    for key, convert in _CONFIG_KEYS:
        if key in settings:
            cfg = replace(cfg, **{key: convert(settings[key])})
    mu = float(settings.get("mu", 0.5))
    alpha0 = float(settings.get("alpha0", 1.0))
    kind = settings.get("schedule")
    if kind == "diminishing":
        cfg = replace(cfg, schedule=diminishing_schedule(alpha0))
    elif kind == "armijo" or "mu" in settings or "alpha0" in settings:
        cfg = replace(cfg, schedule=armijo_schedule(
            ArmijoParams(mu=mu, alpha_init=alpha0)))
    return cfg


def _problem_params(settings: dict) -> dict:
    params = {k.split(".", 1)[1]: v for k, v in settings.items()
              if k.startswith("param.")}
    if "r" in settings:
        params.setdefault("r", settings["r"])
    return params


def _run_single(settings: dict, out: Optional[str], fmt: str, no_timing: bool) -> int:
    name = settings.get("problem")
    if not name:
        print("error: --problem is required (or use --list)", file=sys.stderr)
        return 2
    if name not in REGISTRY:
        print(f"error: --problem got unknown name {name!r}; see --list",
              file=sys.stderr)
        return 2
    built = build_problem(name, _problem_params(settings))
    cfg = _apply_settings(built, settings)
    trace = run(built.model, built.x0, cfg)
    audit = None
    if (built.L is not None and built.f_star is not None
            and cfg.schedule.kind == "armijo" and trace.records):
        mu = cfg.schedule.armijo_params.mu
        N = len(trace.records) - 1
        # The descent inequality is Euclidean; a non-Euclidean search ball
        # rescales the effective constant by its worst ||w||_2^2.
        strategy = resolve_strategy(built.model, cfg.strategy)
        L_eff = built.L * ball_radius_sq(strategy, built.model.dim, cfg.norm,
                                         cfg.reduced_l1)
        res = rate_audit(trace, built.f_star, L_eff, mu, N)
        audit = {"lhs": res.lhs, "rhs": res.rhs, "rate_holds": res.rate_holds,
                 "decrease_holds": res.decrease_holds, "holds": res.holds,
                 "N": N, "M": rate_constant(mu, L_eff),
                 "L": built.L, "L_effective": L_eff, "f_star": built.f_star}
    if out:
        echo = {k: (v.value if isinstance(v, NormChoice) else v)
                for k, v in sorted(settings.items())}
        echo["problem"] = name
        emit_trace(trace, out, fmt, config_echo=echo, audit=audit,
                   no_timing=no_timing)
    summary = (f"{name}: status={trace.status.value} iters={len(trace.records)} "
               f"f_final={trace.f_final!r}")
    if trace.detail:
        summary += f" ({trace.detail})"
    print(summary)
    if trace.status in (TerminalStatus.EPS_STATIONARY, TerminalStatus.MAX_ITER):
        return 0
    print(f"error: terminal status {trace.status.value}", file=sys.stderr)
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.list:
        for name in sorted(REGISTRY):
            spec = REGISTRY[name]
            params = f" [params: {spec.params}]" if spec.params else ""
            print(f"{name}: {spec.description}{params}")
        return 0
    try:
        file_cfg = _parse_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        print(f"error: --config: {exc}", file=sys.stderr)
        return 2
    settings = _merge_settings(args, file_cfg)
    if args.problem:
        settings["problem"] = args.problem
    fmt = args.format or settings.get("format") or "csv"
    no_timing = bool(args.no_timing or settings.get("no_timing"))
    out = args.out or settings.get("out")

    if args.sweep:
        return _run_sweep(args.sweep, settings, out, fmt, no_timing)
    try:
        return _run_single(settings, out, fmt, no_timing)
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # runtime failures exit 1 with one diagnostic line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _run_sweep(sweep_path: str, base: dict, out: Optional[str], fmt: str,
               no_timing: bool) -> int:
    """Each sweep line holds key=value overrides; runs in file order."""
    try:
        with open(sweep_path) as fh:
            lines = [ln.split("#", 1)[0].strip() for ln in fh]
    except OSError as exc:
        print(f"error: --sweep: {exc}", file=sys.stderr)
        return 2
    jobs = []
    for i, line in enumerate(ln for ln in lines if ln):
        overrides = {}
        for tok in shlex.split(line):
            if "=" not in tok:
                print(f"error: sweep token without '=': {tok!r}", file=sys.stderr)
                return 2
            k, v = tok.split("=", 1)
            overrides[k] = v
        settings = dict(base)
        settings.update(overrides)
        job_out = overrides.get("out")
        if job_out is None and out:
            job_out = f"{out}.{i}"
        jobs.append((settings, job_out))
    codes = []
    for settings, job_out in jobs:
        try:
            codes.append(_run_single(settings, job_out, fmt, no_timing))
        except Exception as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            codes.append(1)
    return max(codes) if codes else 2


if __name__ == "__main__":
    sys.exit(main())
