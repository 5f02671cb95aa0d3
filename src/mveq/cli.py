"""Command line front end.

``mveq <command> --input FILE [--output FILE] [--format json|csv]
[--tol X] [--seed N]``.  Exit codes: 0 success, 1 parse error,
2 validation error or failed solver precondition (such as uniqueness of
value processes), 3 nonexistence verdict on a solve command.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import linear_mv, quadratic
from .generate import generate_random_scenario
from .io import ParseError, load_scenario, report_to_csv, report_to_json
from .mvh import _as_operator
from .scenario import DEFAULT_TOL, LinearMV, Scenario, validate_scenario

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_NONEXISTENCE = 3


class ValidationFailure(Exception):
    pass


class NonexistenceVerdict(Exception):
    def __init__(self, report):
        self.report = report


def _quadratic_report(report: quadratic.EquilibriumReport) -> dict:
    out = {
        "verdict": report.verdict,
        "reason": report.reason,
        "buy_and_hold_admissible": report.buy_and_hold_admissible,
    }
    if report.prices is not None:
        out["s0"] = report.prices[0].tolist()
        out["prices"] = report.prices.tolist()
        out["clearing_residual"] = report.clearing_residual
        out["martingale_residual"] = report.martingale_residual
        out["optimality_gaps"] = report.optimality_gaps
        out["unique_gains"] = report.unique_gains
        out["strategies"] = [th.tolist() for th in report.agent_strategies]
    if report.diagnostics:
        out["diagnostics"] = report.diagnostics
    return out


def cmd_solve_quadratic(args, scenario: Scenario, prices) -> dict:
    report = quadratic.solve_quadratic(scenario, args.tol)
    out = _quadratic_report(report)
    if report.verdict == "NonexistenceProven":
        raise NonexistenceVerdict(out)
    return out


def cmd_solve_linear_mv(args, scenario: Scenario, prices) -> dict:
    report = linear_mv.solve_linear_mv(scenario, args.tol)
    out = {
        "gamma_bar": report.gamma_bar,
        "gamma_bar_0": report.gamma_bar_0,
        "exists": report.exists,
    }
    if not report.exists:
        raise NonexistenceVerdict(out)
    out.update(
        {
            "s0": report.prices[0].tolist(),
            "prices": report.prices.tolist(),
            "ell": report.ell,
            "c_k": report.c_k,
            "eps2_k": report.eps2_k,
            "y_k": report.y_k,
            "fp_residual": report.fp_residual,
            "identity_residual": report.identity_residual,
            "clearing_residual": report.clearing_residual,
            "trivial_regime": report.trivial_regime,
            "strategies": [th.tolist() for th in report.strategies],
        }
    )
    return out


def _all_linear(scenario: Scenario) -> bool:
    return all(isinstance(a.preference, LinearMV) for a in scenario.agents)


def _verify_linear(scenario: Scenario, prices, tol) -> dict:
    op = _as_operator(scenario.tree, prices)
    if not op.unique_values(tol):
        return {
            "verdict": "NotEquilibrium",
            "reason": "uniqueness of value processes fails",
        }
    strategies = [
        theta for _, theta, _ in
        linear_mv._mv_strategies(scenario, op, range(len(scenario.agents)), tol)
    ]
    clearing = quadratic.clearing_residual(scenario, prices, strategies)
    verdict, reason = quadratic._clearing_verdict(clearing, tol)
    return {"verdict": verdict, "reason": reason, "clearing_residual": clearing}


def _check_finite(prices) -> None:
    """A given prices block must be finite: a NaN would pass every
    comparison and fail later as a solver precondition."""
    if not np.all(np.isfinite(prices)):
        raise ValidationFailure("prices must be finite")


def cmd_verify(args, scenario: Scenario, prices) -> dict:
    if prices is None:
        raise ValidationFailure("verify needs a 'prices' block in the scenario file")
    _check_finite(prices)
    # the terminal condition is a primitive: reject price blocks that
    # disagree with the dividends
    if quadratic._terminal_gap(scenario, prices) > args.tol:
        raise ValidationFailure("terminal prices must equal the dividends")
    if _all_linear(scenario):
        return _verify_linear(scenario, prices, args.tol)
    report = quadratic.verify_equilibrium(scenario, prices, args.tol)
    return _quadratic_report(report)


def cmd_frontier(args, scenario: Scenario, prices) -> dict:
    if prices is None:
        # the solve command's report, nonexistence verdict included
        solve = cmd_solve_linear_mv if _all_linear(scenario) else cmd_solve_quadratic
        prices = np.array(solve(args, scenario, None)["prices"])
    else:
        _check_finite(prices)
    op = _as_operator(scenario.tree, prices)
    out = {"agents": []}
    fronts = linear_mv._frontiers(scenario, op, args.tol)
    for k, front in enumerate(fronts):
        if isinstance(scenario.agents[k].preference, LinearMV):
            y_opt = scenario.agents[k].preference.lam / front.ell
        else:
            y_opt = 1.0
        grid = [y_opt * i / 5.0 for i in range(11)]
        out["agents"].append(
            {
                "ell": front.ell,
                "c_k": front.c_k,
                "eps2_k": front.eps2_k,
                "points": [[y, *front.point(y)] for y in grid],
            }
        )
    return out


def cmd_check_conditions(args, scenario: Scenario, prices) -> dict:
    cond = quadratic.check_necessary_conditions(scenario, args.tol)
    return {
        "passed": cond["passed"],
        "cond_xi_failures": [
            {"node": n, "asset": i, "value": v}
            for n, i, v in cond["cond_xi_failures"]
        ],
        "cond_g_failures": [
            {"node": n, "asset": j, "value": v}
            for n, j, v in cond["cond_g_failures"]
        ],
    }


def cmd_random_suite(args, scenario, prices) -> dict:
    rng = np.random.default_rng(args.seed)
    counts = {
        "total": 0,
        "quadratic_pass": 0,
        "quadratic_fail": 0,
        "linear_exists_pass": 0,
        "linear_exists_fail": 0,
        "linear_out_of_class": 0,
    }
    suite_tol = max(args.tol, 1e-8)
    for i in range(args.count):
        kind = "quadratic" if i % 2 == 0 else "linear_mv"
        sub = int(rng.integers(0, 2**31 - 1))
        scenario = generate_random_scenario(
            sub,
            horizon=int(rng.integers(1, 4)),
            branching=int(rng.integers(2, 4)),
            d1=int(rng.integers(0, 2)),
            d2=int(rng.integers(1, 3)),
            n_agents=int(rng.integers(1, 4)),
            preference_kind=kind,
        )
        counts["total"] += 1
        if kind == "quadratic":
            report = quadratic.solve_quadratic(scenario, args.tol)
            ok = (
                report.verdict == "Equilibrium"
                and report.clearing_residual <= suite_tol
                and report.martingale_residual <= suite_tol
            )
            counts["quadratic_pass" if ok else "quadratic_fail"] += 1
        else:
            report = linear_mv.solve_linear_mv(scenario, args.tol)
            if not report.exists:
                counts["linear_out_of_class"] += 1
                continue
            ok = (
                report.fp_residual <= suite_tol
                and report.identity_residual <= suite_tol
                and report.clearing_residual <= suite_tol
            )
            counts["linear_exists_pass" if ok else "linear_exists_fail"] += 1
    counts["all_passed"] = (
        counts["quadratic_fail"] == 0 and counts["linear_exists_fail"] == 0
    )
    return counts


# each handler gets the parsed arguments plus the scenario and price block
# that ``main`` loaded and validated (both None for random-suite)
COMMANDS = {
    "solve-quadratic": cmd_solve_quadratic,
    "solve-linear-mv": cmd_solve_linear_mv,
    "verify": cmd_verify,
    "frontier": cmd_frontier,
    "check-conditions": cmd_check_conditions,
    "random-suite": cmd_random_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mveq", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", help="scenario file (JSON)")
    parser.add_argument("--output", help="report file; stdout if omitted")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=20,
                        help="scenarios per random-suite run")
    return parser


def _emit(args, report: dict, tree=None) -> None:
    if args.format == "csv":
        text = report_to_csv(report, tree)
    else:
        text = report_to_json(report) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.tol <= 0:
        print("error: tolerance must be positive", file=sys.stderr)
        return EXIT_VALIDATION
    if args.command != "random-suite" and not args.input:
        print("error: --input is required", file=sys.stderr)
        return EXIT_VALIDATION
    tree = scenario = prices = None
    try:
        if args.command != "random-suite":
            scenario, prices = load_scenario(args.input)
            tree = scenario.tree
            violations = validate_scenario(scenario, args.tol)
            if violations:
                raise ValidationFailure("; ".join(violations))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationFailure, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        report = COMMANDS[args.command](args, scenario, prices)
    except ValidationFailure as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        # a solver precondition failed on a scenario that passed validation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonexistenceVerdict as verdict:
        _emit(args, verdict.report, tree)
        return EXIT_NONEXISTENCE
    _emit(args, report, tree)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
