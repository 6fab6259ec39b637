"""Command-line interface.

Subcommands: potential, effective, spectrum, wavefunction, oracle,
validate, nu-check. Outputs are deterministic; a timestamp appears only
as a '#' comment when --stamp is given, which only the CSV commands
(potential, effective, wavefunction) take, since JSON carries no comments.

Exit codes: 0 success, 2 configuration error (also an unreadable config
or an unwritable output path), 3 internal error, 4 singular analytic case
(wavefunction).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .analytic import energy_levels, radial_wavefunction
from .config import (
    RunConfig,
    parse_config,
    parse_float_list,
    parse_int_list,
    with_alpha_override,
)
from .errors import ConfigError, DomainError, HyperwellError, SingularCoefficientError
from .potential import (
    poschl_teller_params,
    rosen_morse_params,
    scan_series,
    scarf_params,
    with_alpha,
)
from .reporting import (
    build_nu_check_report,
    build_oracle_report,
    build_spectrum_report,
    build_validate_report,
    csv_document,
    fmt_number,
    json_document,
    stamp_comment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTERNAL = 3
EXIT_SINGULAR = 4


def _color_ok(stream) -> bool:
    return hasattr(stream, "isatty") and stream.isatty() \
        and not os.environ.get("NO_COLOR")


def _diag(message: str):
    prefix = "hyperwell: error: "
    if _color_ok(sys.stderr):
        prefix = f"\x1b[31m{prefix}\x1b[0m"
    print(prefix + message, file=sys.stderr)


def _emit(text: str, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path!r}: {exc}") from None


def _load_config(args) -> RunConfig:
    text = ""
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    config = parse_config(text)
    if getattr(args, "n", None):
        config = replace(config, n_list=parse_int_list(args.n, where="--n"))
    if getattr(args, "l", None):
        config = replace(config, l_list=parse_int_list(args.l, where="--l"))
    if getattr(args, "out", None):
        config = replace(config, out_path=args.out)
    return config


def _single_alpha(args, config) -> RunConfig:
    if getattr(args, "alpha", None):
        values = parse_float_list(args.alpha, where="--alpha")
        if len(values) != 1:
            raise ConfigError(f"this command takes a single --alpha, got {args.alpha!r}")
        config = with_alpha_override(config, values[0])
    return config


# potential --kind: the shape constructor applied to the potential block
_KINDS = {
    "general": lambda p: p,
    "rosen-morse": lambda p: rosen_morse_params(a=p.a, c=p.c, V0=p.V0, V2=p.V2, alpha=p.alpha),
    "poschl-teller": lambda p: poschl_teller_params(c=p.c, V2=p.V2, alpha=p.alpha),
    "scarf": lambda p: scarf_params(b=p.b, V1=p.V1, alpha=p.alpha),
}


def _head_comments(args, lines):
    out = list(lines)
    if args.stamp:
        out.append(stamp_comment())
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_potential(args) -> int:
    config = _load_config(args)
    base = _KINDS[args.kind](config.params)
    if args.alpha:
        alphas = parse_float_list(args.alpha, where="--alpha")
    else:
        alphas = (base.alpha,)
    r = config.grid.points()
    header = ["r"] + [f"V_alpha={a:.9g}" for a in alphas]
    columns = [r.tolist()] + [scan_series(with_alpha(base, a), r) for a in alphas]
    comments = _head_comments(args, [f"kind = {args.kind}"])
    _emit(csv_document(header, columns, head_comments=comments), config.out_path)
    return EXIT_OK


def cmd_effective(args) -> int:
    config = _single_alpha(args, _load_config(args))
    params, consts = config.params, config.consts
    r = config.grid.points()
    l_list = config.l_list
    header = ["r"] + [f"Veff_l={l}" for l in l_list]
    columns = [r.tolist()] + [scan_series(params, r, consts=consts, l=int(l),
                                          approximate=args.approximate) for l in l_list]
    barrier = "cosech2 surrogate" if args.approximate else "exact 1/r^2"
    comments = _head_comments(args, [f"centrifugal barrier: {barrier}"])
    _emit(csv_document(header, columns, head_comments=comments), config.out_path)
    return EXIT_OK


def cmd_wavefunction(args) -> int:
    config = _single_alpha(args, _load_config(args))
    if len(config.n_list) != 1:
        raise ConfigError(f"wavefunction needs a single n, got {list(config.n_list)}")
    if len(config.l_list) != 1:
        raise ConfigError(f"wavefunction needs a single l, got {list(config.l_list)}")
    n, l = config.n_list[0], config.l_list[0]
    try:
        levels = energy_levels(config.params, config.consts, n, l)
        by_name = {lv.branch: lv for lv in levels}
        level = by_name.get(args.branch)
        if level is None:
            raise ConfigError(f"no branch {args.branch!r} for this state")
        wf = radial_wavefunction(config.params, config.consts, level)
    except SingularCoefficientError as exc:
        _diag(str(exc))
        return EXIT_SINGULAR
    r = config.grid.points()
    values = wf(r)
    columns = [r.tolist(), values.real.tolist(), values.imag.tolist(),
               (abs(values) ** 2).tolist()]
    achieved = wf.norm_integral * abs(wf.norm_constant) ** 2
    tail = [
        f"n = {n}, l = {l}, branch = {level.branch}",
        f"energy = {fmt_number(level.energy.real)} + {fmt_number(level.energy.imag)}i",
        f"N = {fmt_number(wf.norm_constant.real)} + {fmt_number(wf.norm_constant.imag)}i",
        f"norm_integral = {fmt_number(achieved)} over "
        f"[{fmt_number(wf.norm_window[0])}, {fmt_number(wf.norm_window[1])}]",
    ]
    if args.stamp:
        tail.append(stamp_comment())
    _emit(csv_document(["r", "Re_R", "Im_R", "abs_R_sq"], columns, tail_comments=tail),
          config.out_path)
    return EXIT_OK


def cmd_report(args) -> int:
    """spectrum, oracle, validate and nu-check: args.report(config, args)
    builds the command's report, emitted as one JSON document."""
    config = _single_alpha(args, _load_config(args))
    _emit(json_document(args.report(config, args)), config.out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, csv=False):
    sub.add_argument("--config", help="path to a key-value config document")
    sub.add_argument("--out", help="output path, or - for stdout (default)")
    if csv:
        sub.add_argument("--stamp", action="store_true",
                         help="add a timestamp comment line to the CSV")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwell",
        description="Bound states of a generalized inverted hyperbolic potential: "
                    "closed-form spectrum, wavefunctions and numerical oracles.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("potential", help="potential curve CSV, one column per alpha")
    _add_common(p, csv=True)
    p.add_argument("--alpha", help="comma list of alpha values, e.g. 1,2,3,4")
    p.add_argument("--kind", default="general", choices=list(_KINDS),
                   help="shape constructor applied to the potential block")
    p.set_defaults(func=cmd_potential)

    p = subs.add_parser("effective", help="effective potential CSV, one column per l")
    _add_common(p, csv=True)
    p.add_argument("--alpha", help="single alpha override")
    p.add_argument("--l", help="comma list or range of l values, e.g. 1,2,3")
    p.add_argument("--approximate", action="store_true",
                   help="use the cosech^2 surrogate barrier instead of 1/r^2")
    p.set_defaults(func=cmd_effective)

    p = subs.add_parser("spectrum", help="closed-form energy levels as JSON")
    _add_common(p)
    p.add_argument("--alpha", help="single alpha override")
    p.add_argument("--n", help="level list or range, e.g. 0..2")
    p.add_argument("--l", help="l list or range")
    p.add_argument("--variant", default="quadratic", choices=["quadratic", "spectrum"],
                   help="printed grouping of the quantization constant term")
    p.set_defaults(func=cmd_report, report=lambda config, args: build_spectrum_report(
        config, variant=args.variant))

    p = subs.add_parser("wavefunction", help="radial wavefunction samples as CSV")
    _add_common(p, csv=True)
    p.add_argument("--alpha", help="single alpha override")
    p.add_argument("--n", help="single level index")
    p.add_argument("--l", help="single angular momentum")
    p.add_argument("--branch", default="plus", choices=["plus", "minus"],
                   help="which quantization root feeds the envelope")
    p.set_defaults(func=cmd_wavefunction)

    p = subs.add_parser("oracle", help="numerical spectra (FD and Numerov) as JSON")
    _add_common(p)
    p.add_argument("--alpha", help="single alpha override")
    p.add_argument("--n", help="level list or range (max sets how many states)")
    p.add_argument("--l", help="l list or range")
    p.set_defaults(func=cmd_report, report=lambda config, args: build_oracle_report(config))

    p = subs.add_parser("validate", help="full analytic-vs-oracle validation JSON")
    _add_common(p)
    p.add_argument("--alpha", help="single alpha override")
    p.add_argument("--n", help="level list or range")
    p.add_argument("--l", help="l list or range")
    p.set_defaults(func=cmd_report, report=lambda config, args: build_validate_report(config))

    p = subs.add_parser("nu-check", help="engine vs printed closed forms as JSON")
    _add_common(p)
    p.add_argument("--alpha", help="single alpha override")
    p.add_argument("--n", help="level list or range")
    p.add_argument("--l", help="l list or range")
    p.add_argument("--branch", default="plus", choices=["plus", "minus"],
                   help="quantization root used for the diagnostics")
    p.set_defaults(func=cmd_report, report=lambda config, args: build_nu_check_report(
        config, branch=args.branch))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        line = getattr(exc, "line", None)
        _diag(str(exc) if line is None else f"line {line}: {exc}")
        return EXIT_CONFIG
    except BrokenPipeError:
        return EXIT_OK
    except HyperwellError as exc:
        _diag(f"internal: {exc}")
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last resort
        _diag(f"internal: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
