"""Benchmark runner: problem registry, configuration, traces, reports.

Exit codes: 0 when the run terminates EpsStationary or MaxIter, 1 on runtime
failures (including Unbounded and BacktrackExhausted terminals), 2 on usage
errors. Identical flags plus seed give byte-identical traces; wall-clock
timing is the one nondeterministic column and ``--no-timing`` zeroes it.

Each run reads one settings dict: the ``--config`` file, then the flags that
were given, then a ``--sweep`` line's overrides, later sources winning. A
setting the run does not read, or a value that the setting's flag would
refuse, is a usage error, found before anything is built.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from dataclasses import replace
from typing import Optional

from .direction import NormChoice
from .linesearch import SCHEDULES, ArmijoParams, armijo_schedule, diminishing_schedule
from .problems import REGISTRY, BuiltProblem, build_problem
from .solver import (STRATEGIES, SolverConfig, TerminalStatus, Trace,
                     ball_radius_sq, rate_audit, rate_constant, resolve_strategy,
                     run)

CSV_HEADER = "iter,f,dir_value,alpha,backtracks,step_norm,wall_ns"
FORMATS = ("csv", "json")

# SolverConfig fields a setting overrides directly.
_CONFIG_KEYS = ("epsilon", "norm", "max_iter", "seed", "strategy", "budget")
# Every setting a run reads, besides the problem's ``param.<name>`` keys.
_SETTING_KEYS = {"problem", "out", "format", "no_timing", "mu", "alpha0", "schedule", *_CONFIG_KEYS}


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


def _read_lines(path: str) -> list[str]:
    with open(path) as fh:
        return [ln for ln in (raw.split("#", 1)[0].strip() for raw in fh) if ln]


def _key_values(items, what: str) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"{what} without '=': {item!r}")
        key, val = item.split("=", 1)
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
    p.add_argument("--schedule", choices=SCHEDULES)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--seed", type=int, help="seed for the sampling fallback")
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--budget", type=int, help="fallback sample budget")
    p.add_argument("--r", type=float, dest="param.r", metavar="R",
                   help="Moreau smoothing radius for envelope problems (default 0.5)")
    p.add_argument("--out", help="trace output path")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--no-timing", action="store_true", dest="no_timing",
                   help="zero the wall_ns column for byte-identical traces")
    p.add_argument("--sweep", help="file of per-run key=value overrides, runs in file order")
    return p


def _flag_settings(args: argparse.Namespace) -> dict:
    """The flags that were given; ``--r`` arrives as ``param.r``."""
    return {k: v for k, v in vars(args).items()
            if k not in ("list", "config", "sweep") and v is not None and v is not False}


def _parse_no_timing(value) -> bool:
    text = str(value).lower()
    if text not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"no_timing must be true or false, got {value!r}")
    return text in ("true", "1", "yes")


def _typed_settings(settings: dict) -> dict:
    """Each setting that has a flag, read by that flag's ``type`` and
    ``choices`` (``no_timing``, a switch, by ``_parse_no_timing``); a
    refused value raises ValueError naming the key and the value."""
    typed = {}
    for action in build_parser()._actions:
        key, raw = action.dest, settings.get(action.dest)
        if raw is None:
            continue
        try:
            typed[key] = (_parse_no_timing if key == "no_timing" else action.type or str)(raw)
            if action.choices is not None and typed[key] not in action.choices:
                raise ValueError(f"choose from {', '.join(action.choices)}")
        except ValueError as exc:
            raise ValueError(f"setting {key}={raw!r}: {exc}") from None
    return typed


def _apply_settings(built: BuiltProblem, typed: dict) -> SolverConfig:
    cfg = replace(built.defaults, **{k: NormChoice(v) if k == "norm" else v
                                     for k, v in typed.items() if k in _CONFIG_KEYS})
    alpha0 = typed.get("alpha0", 1.0)
    if typed.get("schedule") == "diminishing":
        cfg = replace(cfg, schedule=diminishing_schedule(alpha0))
    elif {"schedule", "mu", "alpha0"} & typed.keys():
        cfg = replace(cfg, schedule=armijo_schedule(ArmijoParams(typed.get("mu", 0.5), alpha0)))
    return cfg


def _run_single(settings: dict) -> int:
    name = settings.get("problem")
    try:   # every usage error is found here, before anything is built
        if not name:
            raise ValueError("--problem is required (or use --list)")
        if name not in REGISTRY:
            raise ValueError(f"--problem got unknown name {name!r}; see --list")
        params = {"param." + p for p in REGISTRY[name].params.replace(",", " ").split()}
        unknown = [k for k in settings if k not in _SETTING_KEYS and k not in params]
        if unknown:
            raise ValueError(f"{name} reads no setting {unknown[0]!r}")
        typed = _typed_settings(settings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    built = build_problem(name, {k.split(".", 1)[1]: v for k, v in settings.items()
                                 if k.startswith("param.")})
    cfg = _apply_settings(built, typed)
    trace = run(built.model, built.x0, cfg)
    audit = None
    L = built.model.descent_constant
    if (L is not None and built.f_star is not None
            and cfg.schedule.kind == "armijo" and trace.records):
        mu = cfg.schedule.armijo_params.mu
        N = len(trace.records) - 1
        # The descent inequality is Euclidean; a non-Euclidean search ball
        # rescales the effective constant by its worst ||w||_2^2.
        strategy = resolve_strategy(built.model, cfg.strategy)
        L_eff = L * ball_radius_sq(strategy, built.model.dim, cfg.norm)
        res = rate_audit(trace, built.f_star, L_eff, mu, N)
        audit = {"lhs": res.lhs, "rhs": res.rhs, "rate_holds": res.rate_holds,
                 "decrease_holds": res.decrease_holds, "holds": res.holds,
                 "N": N, "M": rate_constant(mu, L_eff),
                 "L": L, "L_effective": L_eff, "f_star": built.f_star}
    out = settings.get("out")
    if out:
        echo = {k: v for k, v in settings.items() if k != "out"}
        emit_trace(trace, out, typed.get("format", "csv"), config_echo=echo,
                   audit=audit, no_timing=typed.get("no_timing", False))
    summary = (f"{name}: status={trace.status.value} iters={len(trace.records)} "
               f"f_final={trace.f_final!r}")
    if trace.detail:
        summary += f" ({trace.detail})"
    print(summary)
    if trace.status in (TerminalStatus.EPS_STATIONARY, TerminalStatus.MAX_ITER):
        return 0
    print(f"error: terminal status {trace.status.value}", file=sys.stderr)
    return 1


def _sweep_settings(sweep_path: str, base: dict) -> list[dict]:
    """One settings dict per sweep line: the line's overrides beat ``base``.

    A line without its own ``out`` writes to ``<out>.<line index>``.
    """
    jobs = []
    for i, line in enumerate(_read_lines(sweep_path)):
        overrides = _key_values(shlex.split(line), "sweep token")
        job = {**base, **overrides}
        if "out" in base and "out" not in overrides:
            job["out"] = f"{base['out']}.{i}"
        jobs.append(job)
    return jobs


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
        file_cfg = (_key_values(_read_lines(args.config), "config line")
                    if args.config else {})
    except (OSError, ValueError) as exc:
        print(f"error: --config: {exc}", file=sys.stderr)
        return 2
    settings = {**file_cfg, **_flag_settings(args)}
    jobs = [settings]
    if args.sweep:
        try:
            jobs = _sweep_settings(args.sweep, settings)
        except (OSError, ValueError) as exc:
            print(f"error: --sweep: {exc}", file=sys.stderr)
            return 2
    codes = []
    for job in jobs:  # runtime failures exit 1 with one diagnostic line each
        try:
            codes.append(_run_single(job))
        except Exception as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            codes.append(1)
    return max(codes, default=2)


if __name__ == "__main__":
    sys.exit(main())
