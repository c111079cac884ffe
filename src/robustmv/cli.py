"""Command-line interface: solve / classify / simulate / oracle.

One JSON config describes one instance:

    {
      "market":    {"sigmas": [1.0, 1.0], "horizon_T": 1.0, "lambda": 0.5, "x0": 1.0},
      "ambiguity": {"variant": "ellipsoidal", "b_hat": [0.4, 0.2], "delta": 0.1,
                    "gamma": {"lower": [-0.5], "upper": [0.8]}},
      "simulate":  {"n_paths": 100000, "n_steps": 256, "seed": 42, "antithetic": false},
      "output":    {"format": "json", "path": "report.json"}
    }

Product sets use {"variant": "product", "delta_lower": [...], "delta_upper": [...]},
full correlation ambiguity uses "gamma": {"full_ambiguity": true}.  An optional
"sweep" list of {dotted.key: value} overrides makes solve and classify emit one
CSV row per entry; simulate and oracle run the base instance and ignore it.

Exit codes: 0 success (--help and --version too), 1 input error (among them a
usage error such as a missing or malformed flag or an unknown command,
--oracle-check on a sweep config, a section or "gamma" that
is not a JSON object, a "sweep" that is not a non-empty list of objects,
--resolution below 1 and --probes below 0, a number beyond the float range,
a nested list where a vector belongs, a schedule of another dimension, an
output path that is not a string, e^{r* T}, a Sharpe ratio or the target
wealth beyond the float range, a horizon too short to halve, a
correlation box in which the solver finds no PD point, and a request too
large for memory or the address space, such as a path count or an oracle grid),
2 verification failure (a NaN objective estimate included), 3 a flagged
mathematical condition (no minimizer / zero drift, or a numeric fallback
that did not converge: solve, classify and sweep still emit their report
and name the iterations and residual on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .ambiguity import EllipsoidalSet, GammaBox, ProductSet, ThetaProcessSchedule, schedule_within
from .errors import (
    ConfigError,
    NoMinimum,
    PrincipleViolated,
    RobustMVError,
    SaddleViolated,
    ZeroDrift,
)
from .market import MarketParams, ThetaPoint, n_pairs
from .simulate import (
    N_SIGMA,
    AffineRule,
    SimConfig,
    _closed_form_objective,
    affine_moments,
    default_probe_schedules,
    default_probe_strategies,
    estimate_objective,
    simulate_wealth,
    summarize_paths,
    verify_weak_principle,
)
from .solver import grid_oracle, solve
from .strategy import robust_strategy, strategy_report, value_v0

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFICATION = 2
EXIT_FLAGGED = 3


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _section(raw: dict, key: str, default=None) -> dict:
    """raw[key], which must be a JSON object; default when absent, else required."""
    if key not in raw:
        _require(default is not None, f"missing '{key}' section")
        return default
    _require(isinstance(raw[key], dict), f"'{key}' must be a JSON object")
    return raw[key]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be a JSON object")
    # Read only once the work is done, so checked up front.
    _require(isinstance(_section(raw, "output", {}).get("path") or "", str), "'output.path' must be a string")
    if "sweep" in raw:
        sweep = raw["sweep"]
        _require(
            isinstance(sweep, list) and sweep and all(isinstance(entry, dict) for entry in sweep),
            "'sweep' must be a non-empty list of JSON objects",
        )
    return raw


@contextlib.contextmanager
def _bad(what: str):
    """Turn an error raised while building a library object from config values into ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _fields(section: dict, where: str, keys) -> list:
    """section[key] for each key; every key is required."""
    for key in keys:
        _require(key in section, f"{where} missing '{key}'")
    return [section[key] for key in keys]


def parse_market(raw: dict) -> MarketParams:
    market = _section(raw, "market")
    sigmas, horizon, lam, x0 = _fields(market, "market section", ("sigmas", "horizon_T", "lambda", "x0"))
    with _bad("market parameters"):
        return MarketParams(
            sigmas=np.asarray(sigmas, dtype=float), horizon_T=float(horizon), lam=float(lam), x0=float(x0)
        )


def parse_gamma(raw: dict, d: int) -> GammaBox:
    if raw.get("full_ambiguity"):
        return GammaBox.full(d)
    lower, upper = _fields(raw, "gamma section", ("lower", "upper"))
    with _bad("correlation bounds"):
        box = GammaBox.box(lower, upper)
    _require(box.n_pairs == n_pairs(d), f"gamma bounds must have length {n_pairs(d)} for d={d}")
    return box


def parse_ambiguity(raw: dict, params: MarketParams):
    a = _section(raw, "ambiguity")
    variant = a.get("variant")
    _require(variant in ("product", "ellipsoidal"), "ambiguity variant must be 'product' or 'ellipsoidal'")
    gamma = parse_gamma(_section(a, "gamma", {}), params.d)
    if variant == "product":
        lower, upper = _fields(a, "product ambiguity", ("delta_lower", "delta_upper"))
        with _bad("ambiguity parameters"):
            spec = ProductSet(
                delta_lower=np.asarray(lower, dtype=float), delta_upper=np.asarray(upper, dtype=float), gamma=gamma
            )
    else:
        b_hat, delta = _fields(a, "ellipsoidal ambiguity", ("b_hat", "delta"))
        with _bad("ambiguity parameters"):
            spec = EllipsoidalSet(b_hat=np.asarray(b_hat, dtype=float), delta=float(delta), gamma=gamma)
    _require(spec.d == params.d, "ambiguity dimension inconsistent with market")
    return spec


def parse_sim_config(raw: dict, overrides) -> SimConfig:
    s = dict(_section(raw, "simulate", {}))
    s.update((key, value) for key, value in overrides.items() if value is not None)
    with _bad("simulate parameters"):
        return SimConfig(
            n_paths=int(s.get("n_paths", 20000)),
            n_steps=int(s.get("n_steps", 256)),
            seed=int(s.get("seed", 0)),
            antithetic=bool(s.get("antithetic", False)),
        )


def parse_schedule(raw: dict, params: MarketParams):
    if "schedule" not in raw:
        return None
    s = raw["schedule"]
    with _bad("schedule"):
        values = tuple(
            ThetaPoint(b=np.asarray(v["b"], dtype=float), rho=np.asarray(v["rho"], dtype=float))
            for v in s["values"]
        )
        schedule = ThetaProcessSchedule(breakpoints=np.asarray(s["breakpoints"], dtype=float), values=values)
    _require(all(v.d == params.d for v in values), "schedule dimension inconsistent with market")
    return schedule


def solution_to_dict(solution) -> dict:
    return {
        "theta_star": {"b": solution.theta_star.b.tolist(), "rho": solution.theta_star.rho.tolist()},
        "r_star": solution.r_star,
        "case_label": solution.case_label,
        "no_trade": solution.no_trade,
        "diagnostics": solution.diagnostics,
    }


def _json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _csv(rows, fieldnames) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(text: str, raw: dict, file_text: str | None = None) -> None:
    """Write file_text (text by default) to output.path when one is set, then print text."""
    path = raw.get("output", {}).get("path")
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text if file_text is None else file_text)
    print(text, end="")


def _oracle_tolerance(d: int) -> float:
    if d <= 2:
        return 1e-3
    if d == 3:
        return 5e-3
    return 1e-2


def _flag_unconverged(solutions, exit_code: int) -> int:
    """Name each numeric-fallback answer that did not converge on stderr; exit 3 if any."""
    flagged = [s.diagnostics for s in solutions if not s.diagnostics.get("converged", True)]
    for diag in flagged:
        print(
            f"flagged condition: numeric fallback did not converge: {diag['iterations']} "
            f"iterations, residual {diag['residual']:.6g}",
            file=sys.stderr,
        )
    return EXIT_FLAGGED if flagged and exit_code == EXIT_OK else exit_code


def cmd_solve(args, raw: dict) -> int:
    params = parse_market(raw)
    spec = parse_ambiguity(raw, params)
    solution = solve(spec, params)
    report = {"solution": solution_to_dict(solution), "strategy": strategy_report(solution, params)}
    exit_code = EXIT_OK
    if args.oracle_check:
        oracle = grid_oracle(spec, params, args.resolution)
        gap = abs(solution.r_star - oracle.r_star)
        tolerance = _oracle_tolerance(params.d)
        report["oracle_check"] = {
            "resolution": oracle.diagnostics["resolution"],
            "r_star_oracle": oracle.r_star,
            "gap": gap,
            "tolerance": tolerance,
            "ok": gap <= tolerance,
        }
        if gap > tolerance:
            exit_code = EXIT_VERIFICATION
    _emit(_json(report), raw)
    return _flag_unconverged([solution], exit_code)


def cmd_classify(args, raw: dict) -> int:
    params = parse_market(raw)
    spec = parse_ambiguity(raw, params)
    solution = solve(spec, params)
    report = strategy_report(solution, params)
    _emit(_json(report), raw)
    print(report["narrative"], file=sys.stderr)
    return _flag_unconverged([solution], EXIT_OK)


def cmd_simulate(args, raw: dict) -> int:
    params = parse_market(raw)
    spec = parse_ambiguity(raw, params)
    solution = solve(spec, params)
    cfg = parse_sim_config(raw, {"n_paths": args.paths, "n_steps": args.steps, "seed": args.seed})
    schedule = parse_schedule(raw, params)
    if schedule is None:
        schedule = ThetaProcessSchedule.constant(solution.theta_star)
    strategy = robust_strategy(solution, params)
    t_grid, paths = simulate_wealth(strategy, schedule, params, cfg)
    estimate = estimate_objective(paths, params)
    out = raw.get("output", {})
    summary = summarize_paths(t_grid, paths) if out.get("path") and out.get("format") == "csv" else None
    del paths  # the probes below simulate their own paths; do not hold these through them
    v0 = value_v0(solution, params)
    # The strategy as an AffineRule, for the closed-form J under the schedule.
    kappa = strategy.allocation_direction
    optimal = AffineRule(xbar=strategy.xbar, v=kappa, w=np.zeros_like(kappa))
    moments = affine_moments(optimal, schedule, params, np.array([0.0, params.horizon_T]))
    exact_j, tolerance = _closed_form_objective(*moments, v0, params.lam)
    within = schedule_within(spec, schedule, params)
    gap = estimate.J - exact_j
    allowance = N_SIGMA * estimate.std_error_J
    report = {
        "solution": solution_to_dict(solution),
        "V0": v0,
        "objective": {
            "mean_XT": estimate.mean_XT,
            "var_XT": estimate.var_XT,
            "J": estimate.J,
            "std_error_J": estimate.std_error_J,
            "n_paths": estimate.n_paths,
        },
        "schedule_within_set": within,
        "exact_J": exact_j,
        "gap_to_exact_J": gap,
        "allowance": allowance,
        "exact_J_minus_V0": exact_j - v0,
    }
    if not within:
        print("note: the schedule leaves the ambiguity set, so J >= V0 is not checked", file=sys.stderr)
    exit_code = EXIT_OK
    if not abs(gap) <= allowance:  # a NaN estimate fails too
        report["failure"] = f"objective estimate is more than {N_SIGMA:g} standard errors from the exact J"
        exit_code = EXIT_VERIFICATION
    elif within and not exact_j - v0 >= -tolerance:
        report["failure"] = "exact J is below V0 under a schedule inside the ambiguity set"
        exit_code = EXIT_VERIFICATION
    if args.probes != 0:
        strategies = default_probe_strategies(strategy)[: args.probes]
        schedules = default_probe_schedules(spec, params, solution)[: args.probes]
        try:
            principle = verify_weak_principle(
                solution, spec, params, cfg,
                probe_strategies=strategies, probe_schedules=schedules,
            )
            report["weak_principle"] = {
                "ok": principle.ok,
                "monotone": [c.__dict__ for c in principle.monotone_under_worst_case],
                "terminal": [c.__dict__ for c in principle.terminal_gain],
                "objective_upper": [c.__dict__ for c in principle.objective_upper],
                "simulator": [c.__dict__ for c in principle.simulator_check],
            }
        except PrincipleViolated as exc:
            report["weak_principle"] = {"ok": False, "probe": exc.probe, "margin": exc.margin}
            exit_code = EXIT_VERIFICATION
    _emit(_json(report), raw, None if summary is None else _csv(summary, ["t", "mean", "var", "se"]))
    return exit_code


def cmd_oracle(args, raw: dict) -> int:
    params = parse_market(raw)
    spec = parse_ambiguity(raw, params)
    oracle = grid_oracle(spec, params, args.resolution)
    _emit(_json({"oracle": solution_to_dict(oracle)}), raw)
    return EXIT_OK


def _set_dotted(config: dict, dotted: str, value):
    node = config
    keys = dotted.split(".")
    for key in keys[:-1]:
        _require(isinstance(node, dict) and key in node, f"unknown sweep key {dotted!r}")
        node = node[key]
    _require(isinstance(node, dict) and keys[-1] in node, f"unknown sweep key {dotted!r}")
    node[keys[-1]] = value


def cmd_sweep(raw: dict) -> int:
    rows, solutions = [], []
    keys = sorted({k for entry in raw["sweep"] for k in entry})
    for entry in raw["sweep"]:
        variant = copy.deepcopy(raw)
        for dotted, value in entry.items():
            _set_dotted(variant, dotted, value)
        params = parse_market(variant)
        spec = parse_ambiguity(variant, params)
        solution = solve(spec, params)
        solutions.append(solution)
        summary = strategy_report(solution, params)
        row = {k: entry.get(k, "") for k in keys}
        row.update({
            "r_star": solution.r_star,
            "case_label": solution.case_label,
            "no_trade": solution.no_trade,
            "V0": summary["V0"],
            "diversification": summary["class"],
            "converged": bool(solution.diagnostics.get("converged", True)),
        })
        rows.append(row)
    _emit(_csv(rows, list(rows[0])), raw)
    return _flag_unconverged(solutions, EXIT_OK)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors for main, not an exit of its own."""

    def error(self, message):
        raise RobustMVError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robustmv", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"robustmv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="worst-case scenario and robust strategy")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--oracle-check", action="store_true")
    p_solve.add_argument("--resolution", type=int, default=None)
    p_solve.set_defaults(handler=cmd_solve)

    p_classify = sub.add_parser("classify", help="diversification verdict")
    p_classify.add_argument("--config", required=True)
    p_classify.set_defaults(handler=cmd_classify)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo objective and principle checks")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--paths", type=int, default=None)
    p_sim.add_argument("--steps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--probes", type=int, default=8,
                       help="probes per family for the principle check; 0 skips it")
    p_sim.set_defaults(handler=cmd_simulate)

    p_oracle = sub.add_parser("oracle", help="brute-force grid minimization")
    p_oracle.add_argument("--config", required=True)
    p_oracle.add_argument("--resolution", type=int, default=None)
    p_oracle.set_defaults(handler=cmd_oracle)
    return parser


def _check_flags(args) -> None:
    """Out-of-range numeric flags are input errors, rejected before any work runs."""
    if getattr(args, "resolution", None) is not None and args.resolution < 1:
        raise RobustMVError(f"--resolution must be at least 1, got {args.resolution}")
    if getattr(args, "probes", 0) < 0:
        raise RobustMVError(f"--probes must be nonnegative, got {args.probes}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        raw = load_config(args.config)
        if "sweep" in raw and args.command in ("solve", "classify"):
            _require(not getattr(args, "oracle_check", False), "--oracle-check does not apply to a sweep config")
            return cmd_sweep(raw)
        return args.handler(args, raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ZeroDrift, NoMinimum) as exc:
        print(f"flagged condition: {exc}", file=sys.stderr)
        return EXIT_FLAGGED
    except (SaddleViolated, PrincipleViolated) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except RobustMVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
