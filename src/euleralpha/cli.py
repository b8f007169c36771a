"""
Command-line driver.

Subcommands: ``run``, ``sweep-nu``, ``sweep-alpha``, ``splitting-order``,
``check``. Every config key has a matching flag; a flag overrides the
config file. Exit status: 0 success, 1 configuration error, 2 numerical
failure (CFL violation / non-finite state), 3 I/O or system error
(including a sweep worker that died).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from concurrent.futures.process import BrokenProcessPool

from .experiments import (
    ConfigError,
    RunConfig,
    load_config,
    run,
    short_repr,
    splitting_order_study,
    sweep_alpha,
    sweep_nu,
)
from .integrators import CflViolation, NumericsFailure

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2
EXIT_IO = 3

# (flag, config key): one flag per RunConfig field
_FLAGS = tuple(("--" + f.name.replace("_", "-"), f.name) for f in dataclasses.fields(RunConfig))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    for flag, key in _FLAGS:
        parser.add_argument(flag, dest=key, metavar=key.upper())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euleralpha",
        description="2D averaged-Euler (Euler-alpha) pseudospectral solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "check":
            _add_config_flags(p)
    return parser


def _config_from_args(args: argparse.Namespace):
    overrides = {key: getattr(args, key) for _, key in _FLAGS}
    return load_config(args.config, overrides)


def _print_sweep(result) -> None:
    print(f"sweep over {result.parameter}:")
    print("  value        distance_q_l2    distance_u_h1alpha")
    for v, dq, du in zip(result.values, result.distances_q, result.distances_u):
        print(f"  {short_repr(v):<12} {dq:<16.9e} {du:<16.9e}")
    print(f"  fitted log-log slope = {result.slope:.4f} (rms residual {result.residual:.4f})")


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    final = run(cfg)
    print(f"run complete: t={final.t:g}, outputs in {cfg.out}")
    return EXIT_OK


def _cmd_sweep(sweep, key: str, args) -> int:
    """Run ``sweep`` over the config's list ``key`` and print its result or its schemes' results."""
    cfg = _config_from_args(args)
    if not getattr(cfg, key):
        flag = "--" + key.replace("_", "-")
        raise ConfigError(f"{args.command} needs {key} (config key {key} or {flag})")
    results = sweep(cfg, getattr(cfg, key), workers=cfg.workers)
    for scheme, result in (results if isinstance(results, dict) else {None: results}).items():
        if scheme is not None:
            print(f"[{scheme}] observed order = {result.slope:.4f} "
                  f"(rms residual {result.residual:.4f})")
        _print_sweep(result)
    return EXIT_OK


def _cmd_check(_args) -> int:
    from .checks import run_checks

    failures = 0
    for name, ok, detail in run_checks():
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_NUMERICS
    print("all checks passed")
    return EXIT_OK


# subcommand: (help text, handler), in the order of the parser's help; a sweep's
# handler is _cmd_sweep bound to its sweep function and the config key of its list
_COMMANDS = {
    "run": ("integrate one configuration and persist outputs", _cmd_run),
    "sweep-nu": ("vanishing-viscosity sweep against the inviscid reference",
                 functools.partial(_cmd_sweep, sweep_nu, "nu_list")),
    "sweep-alpha": ("alpha -> 0 sweep against the classical Euler reference",
                    functools.partial(_cmd_sweep, sweep_alpha, "alpha_list")),
    "splitting-order": ("observed orders of the product-formula steppers",
                        functools.partial(_cmd_sweep, splitting_order_study, "dt_list")),
    "check": ("run the fast invariant self-checks", _cmd_check),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CflViolation, NumericsFailure, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenProcessPool as exc:
        print(f"system error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
