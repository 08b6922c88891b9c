"""Command-line interface: window solver, figure emission, verification.

Exit codes: 0 success, 1 gate/numerical failure, 2 configuration error.
Diagnostics go to stderr; results to stdout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .caldeira_leggett import QuadratureError
from .config import ConfigError, RunConfig, file_key, load_config_file, resolve_config
from .params import ParameterError, validate_regime
from .schrodinger import DomainError
from .windows import overlap_window


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--framework", choices=["schrodinger", "cl", "both"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--separation", type=float)
    p.add_argument("--sigma0", type=float)
    p.add_argument("--kick", type=float)
    p.add_argument("--gravity", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument(
        "--x0-offset", type=float, action="append", dest="x0_offset",
        help="trajectory start offset in units of sigma0; repeatable",
    )
    p.add_argument("--out")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--support-factor", type=float, dest="support_factor")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="modvar",
        description="Modular-variable observables for superposed wave packets "
        "under gravity, with and without environmental friction/diffusion.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("window", help="latest time the packet supports stay disjoint")
    _add_common_flags(w)

    f = sub.add_parser("figure", help="emit CSV data for a standard figure")
    f.add_argument("name", choices=["fig1", "fig2", "fig3", "fig4"])
    _add_common_flags(f)

    v = sub.add_parser("verify", help="run the oracle verification gates")
    v.add_argument("--suite", choices=["fast", "full"], default="fast")
    return p


def _flag_updates(args) -> dict:
    """Set flags as RunConfig updates; each flag's dest is its config-file key."""
    flags = {}
    for f in fields(RunConfig):
        value = getattr(args, file_key(f), None)
        if value is None:
            continue
        if isinstance(f.default, tuple):  # one value, or a repeated flag's list
            value = tuple(value) if isinstance(value, list) else (value,)
        flags[f.name] = value
    return flags


def _resolved(args, figure=None):
    file_updates = load_config_file(args.config) if args.config else {}
    return resolve_config(figure, file_updates, _flag_updates(args))


def _warn_regime(cfg: RunConfig, temperatures) -> None:
    """Print on stderr each regime warning of the CL baths at these temperatures."""
    for T in temperatures:
        for text in validate_regime(cfg.constants(), cfg.bath(T)):
            print("warning: %s" % text, file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "window":
            cfg = _resolved(args)
            if cfg.framework not in ("schrodinger", "cl"):
                raise ConfigError("window needs --framework schrodinger or cl")
            spec = cfg.superposition(cfg.alphas[0])
            bath = None
            if cfg.framework == "cl":
                bath = cfg.bath()
                _warn_regime(cfg, cfg.temperatures[:1])
            win = overlap_window(
                cfg.framework, spec, bath, cfg.constants(), cfg.support_factor
            )
            print("t_max = %.6f" % win.t_max)
            print("criterion: %s" % win.criterion)
            return 0
        if args.command == "figure":
            from .figures import cl_temperatures, generate_figure

            cfg = _resolved(args, figure=args.name)
            _warn_regime(cfg, cl_temperatures(args.name, cfg))
            for path in generate_figure(args.name, cfg):
                print(path)
            return 0
        if args.command == "verify":
            from .verify import run_suite

            return run_suite(args.suite)
        raise ConfigError("unknown command %r" % (args.command,))
    except (ConfigError, ParameterError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except (DomainError, QuadratureError, ArithmeticError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
