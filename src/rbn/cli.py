"""Command-line front end with deterministic text/JSON output.

Subcommands: cohom, chi, wbn, resolve, goodsum, oracle, curves.  Identical
argument vectors (seeds included) produce byte-identical output.  Exit code
0 on success, 1 when a verdict comes back Unknown, 2 on input errors, 3 on
an internal error (never a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .chern import (
    CharacterError,
    character_from_chi,
    chi_integer,
    parse_character,
)
from .cohomology import (
    OracleError,
    blowup_cohomology_oracle,
    interpolation_h0,
    line_bundle_cohomology,
)
from .decide import VerificationError, WBNStatus, wbn
from .goodsums import GoodSumError, delpezzo_decompose, is_good_sum
from .lattice import (
    DivisorClass,
    LatticeError,
    ParseError,
    chi_line_bundle,
    divisor_expr,
    neg_one_curves,
    parse_divisor,
    parse_surface,
)
from .resolutions import ResolutionError, two_term_resolution

_INPUT_ERRORS = (
    ParseError,
    LatticeError,
    CharacterError,
    GoodSumError,
    OracleError,
    ResolutionError,
)


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_cohom(args) -> int:
    surface = parse_surface(args.surface)
    D = parse_divisor(args.divisor, surface)
    if surface.is_blowup_hirzebruch:
        raise LatticeError(
            f"no full cohomology computation on {surface}; the vanishing rules "
            "are available through the library API"
        )
    vec = line_bundle_cohomology(D, seed=args.seed, trials=args.trials).vector
    _emit(
        {"h0": vec.h0, "h1": vec.h1, "h2": vec.h2},
        args.json,
        [f"h0={vec.h0} h1={vec.h1} h2={vec.h2}"],
    )
    return 0


def _cmd_chi(args) -> int:
    surface = parse_surface(args.surface)
    if args.divisor is not None:
        value = chi_line_bundle(parse_divisor(args.divisor, surface))
    else:
        value = chi_integer(parse_character(args.character, surface))
    _emit({"chi": value}, args.json, [str(value)])
    return 0


def _cmd_wbn(args) -> int:
    if not args.sweep and (args.rank, args.bound) != (None, None):
        args.parser.error("--rank and --bound apply to --sweep only")
    surface = parse_surface(args.surface)
    if args.sweep:
        return _wbn_sweep(args, surface)
    v = parse_character(args.character, surface)
    verdict = wbn(v, seed=args.seed, trials=args.trials)
    payload = verdict.to_json_dict()
    lines = [f"status={payload['status']}"]
    for key in ("witness", "obstruction", "bogomolov_delta", "notes"):
        if key in payload:
            lines.append(f"{key}={json.dumps(payload[key])}")
    _emit(payload, not args.text, lines)
    return 1 if verdict.status is WBNStatus.UNKNOWN else 0


def _wbn_sweep(args, surface) -> int:
    """CSV sweep over integral (k, l) with |k|, |l| <= bound * rank, chi = 0."""
    if not surface.is_hirzebruch:
        raise LatticeError("--sweep is implemented for Hirzebruch surfaces")
    r = 2 if args.rank is None else args.rank
    bound = 4 if args.bound is None else args.bound
    if r < 2:
        raise CharacterError("--sweep needs --rank at least 2")
    if bound < 0:
        raise CharacterError("--sweep needs --bound at least 0")
    bound *= r
    print("k,l,status,h0_lower_bound,delta")
    saw_unknown = False
    for k in range(-bound, bound + 1):
        for ell in range(-bound, bound + 1):
            v = character_from_chi(r, DivisorClass(surface, (k, ell)), 0)
            verdict = wbn(v, seed=args.seed, trials=args.trials)
            h0 = verdict.obstruction.h0_lower_bound if verdict.obstruction else ""
            delta = verdict.bogomolov_delta if verdict.bogomolov_delta is not None else ""
            print(f"{k},{ell},{verdict.status},{h0},{delta}")
            saw_unknown = saw_unknown or verdict.status is WBNStatus.UNKNOWN
    return 1 if saw_unknown else 0


def _cmd_resolve(args) -> int:
    surface = parse_surface(args.surface)
    report = two_term_resolution(parse_character(args.character, surface))
    payload = report.to_json_dict()
    lines = [f"{key}={json.dumps(val)}" for key, val in payload.items()]
    _emit(payload, not args.text, lines)
    return 0


def _cmd_goodsum(args) -> int:
    surface = parse_surface(args.surface)
    D = parse_divisor(args.c1, surface)
    gs = delpezzo_decompose(D, args.rank)
    check = is_good_sum(gs, seed=args.seed, trials=args.trials)
    if not check.ok:
        raise VerificationError(f"decomposition failed its own checker: {check.failures}")
    payload = gs.to_json_dict()
    lines = [f"{key}={json.dumps(val)}" for key, val in payload.items()]
    _emit(payload, not args.text, lines)
    return 0


def _cmd_oracle(args) -> int:
    surface = parse_surface(args.surface)
    D = parse_divisor(args.divisor, surface)
    if args.quantity == "h0":
        value = interpolation_h0(D, seed=args.seed, trials=args.trials, prime=args.prime)
        _emit({"h0": value}, args.json, [str(value)])
    else:
        vec = blowup_cohomology_oracle(D, seed=args.seed, trials=args.trials, prime=args.prime)
        _emit(
            {"h0": vec.h0, "h1": vec.h1, "h2": vec.h2},
            args.json,
            [f"h0={vec.h0} h1={vec.h1} h2={vec.h2}"],
        )
    return 0


def _cmd_curves(args) -> int:
    surface = parse_surface(args.surface)
    curves = [divisor_expr(C) for C in neg_one_curves(surface)]
    _emit({"curves": curves}, args.json, curves)
    return 0


def _trials(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


# argparse reads a value that starts with "-" as an option, so an
# expression with a leading minus must be attached with "="
_DIVISOR_HELP = "divisor expression; attach one with a leading minus: --divisor=-E-F"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbn",
        description=(
            "Exact line-bundle cohomology, sheaf-character invariants and weak "
            "Brill-Noether verdicts on rational surfaces.  Surfaces: F<e>, "
            "blp2:k=<k>[:collinear=i,j,...], blF<e>:k=<k>, dp<4..7>.  Divisors: "
            "terms like 3L-2E1-E2 or 2E+3F.  Characters: r=<r>;c1=<divisor>;chi=<n> "
            "(or ch2=<rational>)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=True):
        p.add_argument("--surface", required=True, help="surface spec string")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="oracle seed (default 0)")
            p.add_argument("--trials", type=_trials, default=3, help="oracle trials (default 3)")

    p = sub.add_parser("cohom", help="cohomology vector of a line bundle")
    add_common(p)
    p.add_argument("--divisor", required=True, help=_DIVISOR_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cohom)

    p = sub.add_parser("chi", help="Euler characteristic of a divisor or character")
    add_common(p, seeded=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--divisor", help=_DIVISOR_HELP)
    group.add_argument("--character")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("wbn", help="weak Brill-Noether verdict for a character")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--character", help="character literal")
    group.add_argument("--sweep", action="store_true", help="CSV sweep over c1 (Hirzebruch)")
    p.add_argument("--rank", type=int, help="rank for --sweep (default 2)")
    p.add_argument("--bound", type=int, help="|k|,|l| <= bound*rank for --sweep (default 4)")
    p.add_argument("--text", action="store_true", help="key=value lines instead of JSON")
    p.set_defaults(func=_cmd_wbn, parser=p)

    p = sub.add_parser("resolve", help="two-term resolution report for a character")
    add_common(p, seeded=False)
    p.add_argument("--character", required=True)
    p.add_argument("--text", action="store_true")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("goodsum", help="anticanonically good sum on a del Pezzo surface (dp<d> or blp2:k=2..5)")
    add_common(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument(
        "--c1", required=True, help="nef divisor expression; attach one with a leading minus: --c1=-E1+2L"
    )
    p.add_argument("--text", action="store_true")
    p.set_defaults(func=_cmd_goodsum)

    p = sub.add_parser("oracle", help="finite-field interpolation oracle")
    p.add_argument("quantity", choices=["h0", "cohom"])
    add_common(p)
    p.add_argument("--divisor", required=True, help=_DIVISOR_HELP)
    p.add_argument("--prime", type=int, default=None, help="override the field modulus")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("curves", help="list the (-1)-curves of a del Pezzo surface (dp<d> or blp2:k=2..5)")
    add_common(p, seeded=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_curves)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not an answer: keep it off exit code 1
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
