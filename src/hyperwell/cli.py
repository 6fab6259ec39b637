"""Command-line interface.

Subcommands: potential, effective, spectrum, wavefunction, oracle,
validate, nu-check. Each takes one path: the --config document is parsed
with the --n, --l, --alpha and --out flags as assignments that override
its own, `reporting` builds the command's document, and it is emitted.
Outputs are deterministic; a timestamp appears only as a '#' comment
when --stamp is given, which only the CSV commands (potential, effective,
wavefunction) take, since JSON carries no comments.

Exit codes:
  0  success; a JSON report records a singular state or a failed solve
     (an overflow included) in the document
  2  configuration error, also an unreadable config or an unwritable output
  3  a wavefunction that cannot be normalized, or an internal error
  4  a `wavefunction` state whose closed forms do not evaluate (singular),
     such as an energy scale 1/(s alpha^2) that vanishes or overflows
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .config import RunConfig, parse_config, parse_float_list
from .errors import (
    ConfigError,
    DomainError,
    HyperwellError,
    NonNormalizableError,
    SingularCoefficientError,
)
from .potential import KINDS
from .reporting import (
    build_nu_check_report,
    build_oracle_report,
    build_spectrum_report,
    build_validate_report,
    effective_csv,
    json_document,
    potential_csv,
    wavefunction_csv,
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


# the flags that assign a config key: (args attribute, key)
_OVERRIDES = (("n", "state.n"), ("l", "state.l"), ("alpha", "potential.alpha"),
              ("out", "output.path"))


def _load_config(args) -> RunConfig:
    """The --config document with the command's flags as overriding assignments."""
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    alpha = getattr(args, "alpha", None)
    if alpha and len(parse_float_list(alpha, where="--alpha")) != 1:
        raise ConfigError(f"this command takes a single --alpha, got {alpha!r}")
    return parse_config(text, {key: (getattr(args, dest), f"--{dest}")
                               for dest, key in _OVERRIDES
                               if getattr(args, dest, None) is not None})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _subparser(subs, name, help, csv=False, n_help=None, l_help=None):
    """A subcommand with --config and --out, --stamp for a CSV, then the
    flags that override the config's state: --alpha and --l where l_help
    is given, --n between them where n_help is."""
    sub = subs.add_parser(name, help=help)
    sub.add_argument("--config", help="path to a key-value config document")
    sub.add_argument("--out", help="output path, or - for stdout (default)")
    if csv:
        sub.add_argument("--stamp", action="store_true",
                         help="add a timestamp comment line to the CSV")
    if l_help:
        sub.add_argument("--alpha", help="single alpha override")
        if n_help:
            sub.add_argument("--n", help=n_help)
        sub.add_argument("--l", help=l_help)
    return sub


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand sets `document(config, args)`, the text it prints.

    Built once per process: `parse_args` fills a new namespace on every
    call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="hyperwell",
        description="Bound states of a generalized inverted hyperbolic potential: "
                    "closed-form spectrum, wavefunctions and numerical oracles.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _subparser(subs, "potential", "potential curve CSV, one column per alpha", csv=True)
    p.add_argument("--alpha", dest="alphas", help="comma list of alpha values, e.g. 1,2,3,4")
    p.add_argument("--kind", default="general", choices=list(KINDS),
                   help="special case applied to the potential block")
    p.set_defaults(document=lambda config, args: potential_csv(
        config, args.kind,
        None if args.alphas is None else parse_float_list(args.alphas, where="--alpha"),
        args.stamp))

    p = _subparser(subs, "effective", "effective potential CSV, one column per l", csv=True,
                   l_help="comma list or range of l values, e.g. 1,2,3")
    p.add_argument("--approximate", action="store_true",
                   help="use the cosech^2 surrogate barrier instead of 1/r^2")
    p.set_defaults(document=lambda config, args: effective_csv(
        config, args.approximate, args.stamp))

    p = _subparser(subs, "spectrum", "closed-form energy levels as JSON",
                   n_help="level list or range, e.g. 0..2", l_help="l list or range")
    p.add_argument("--variant", default="quadratic", choices=["quadratic", "spectrum"],
                   help="printed grouping of the quantization constant term")
    p.set_defaults(document=lambda config, args: json_document(build_spectrum_report(
        config, variant=args.variant)))

    p = _subparser(subs, "wavefunction", "radial wavefunction samples as CSV", csv=True,
                   n_help="single level index", l_help="single angular momentum")
    p.add_argument("--branch", default="plus", choices=["plus", "minus"],
                   help="which quantization root feeds the envelope")
    p.set_defaults(document=lambda config, args: wavefunction_csv(
        config, args.branch, args.stamp))

    p = _subparser(subs, "oracle", "numerical spectra (FD and Numerov) as JSON",
                   n_help="level list or range (max sets how many states)",
                   l_help="l list or range")
    p.set_defaults(document=lambda config, args: json_document(build_oracle_report(config)))

    p = _subparser(subs, "validate", "full analytic-vs-oracle validation JSON",
                   n_help="level list or range", l_help="l list or range")
    p.set_defaults(document=lambda config, args: json_document(build_validate_report(config)))

    p = _subparser(subs, "nu-check", "engine vs printed closed forms as JSON",
                   n_help="level list or range", l_help="l list or range")
    p.add_argument("--branch", default="plus", choices=["plus", "minus"],
                   help="quantization root used for the diagnostics")
    p.set_defaults(document=lambda config, args: json_document(build_nu_check_report(
        config, branch=args.branch)))

    return parser


def main(argv=None) -> int:
    """Every command: the config with its flags, one document, emitted."""
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        _emit(args.document(config, args), config.out_path)
        return EXIT_OK
    except SingularCoefficientError as exc:
        _diag(str(exc))
        return EXIT_SINGULAR
    except (ConfigError, DomainError) as exc:
        line = getattr(exc, "line", None)
        _diag(str(exc) if line is None else f"line {line}: {exc}")
        return EXIT_CONFIG
    except BrokenPipeError:
        return EXIT_OK
    except NonNormalizableError as exc:
        _diag(str(exc))
        return EXIT_INTERNAL
    except HyperwellError as exc:
        _diag(f"internal: {exc}")
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last resort
        _diag(f"internal: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
