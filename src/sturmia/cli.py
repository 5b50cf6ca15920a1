"""Command-line surface tying the library together for batch computation.

Subcommands mirror the module layout: word, ostrowski, intercept, rauzy,
repetition, factorize, torsion, verify.  Output formats are text, json,
csv, or dot depending on the subcommand; json payloads follow JSON_SCHEMA
and identical inputs produce byte-identical output (nothing here consults
the clock or an unseeded generator).  The default digit depth comes from
the STURMIA_DEPTH environment variable, 24 when unset.

Exit codes: 0 on success, 1 on a verification failure (a `verify`
criterion, a duality or factorization check, or a torsion search that
finds nothing), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

from . import acceptance
from .errors import RangeError, SturmiaError
from .factorization import characteristic_factorizations, duality_check
from .intercept import (
    AlphaNumber,
    classify,
    complement,
    from_integer,
    max_certified_length,
    sigma0,
    sigma1,
    sturmian_prefix,
    zero,
)
from .ostrowski import decode, encode
from .rauzy import build_graph, count_turns
from .repetition import repetition_closed_form, repetition_direct
from .slope import Slope, parse_slope
from .torsion import b_factorize, torsion_search
from .words import characteristic_prefix, standard_word

# Envelope contract for every json emission below.
JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "sturmia CLI envelope",
    "type": "object",
    "required": ["command", "config", "result"],
    "properties": {
        "command": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["slope", "depth", "intercept", "format", "check"],
            "properties": {
                "slope": {"type": ["string", "null"]},
                "depth": {"type": "integer"},
                "intercept": {"type": ["string", "null"]},
                "format": {"type": "string", "enum": ["text", "json", "csv", "dot"]},
                "check": {"type": "boolean"},
            },
        },
        "result": {"type": "object"},
    },
}


def default_depth() -> int:
    raw = os.environ.get("STURMIA_DEPTH", "24")
    try:
        value = int(raw)
    except ValueError:
        raise SturmiaError(f"STURMIA_DEPTH must be an integer, got {raw!r}")
    if value < 2:
        raise SturmiaError(f"STURMIA_DEPTH must be at least 2, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation parameters, embedded in every json payload."""

    slope: str | None
    depth: int
    intercept: str | None
    format: str
    check: bool = True

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "depth": self.depth,
            "intercept": self.intercept,
            "format": self.format,
            "check": self.check,
        }

    @staticmethod
    def from_dict(payload: dict) -> "RunConfig":
        return RunConfig(
            payload["slope"],
            payload["depth"],
            payload["intercept"],
            payload["format"],
            payload["check"],
        )


def parse_intercept(spec: str, slope: Slope, depth: int) -> AlphaNumber:
    """Resolve an intercept spec: integer, "b:0,1,0,1" digit list, or a name."""
    named: dict[str, Callable[[Slope, int], AlphaNumber]] = {
        "zero": zero,
        "sigma0": sigma0,
        "sigma1": sigma1,
    }
    if spec in named:
        return named[spec](slope, depth)
    if spec.startswith("b:"):
        try:
            digits = tuple(int(part) for part in spec[2:].split(","))
        except ValueError:
            raise SturmiaError(f"bad digit list in intercept spec {spec!r}")
        return AlphaNumber(digits, slope)
    try:
        value = int(spec)
    except ValueError:
        raise SturmiaError(
            f"intercept spec {spec!r} is not an integer, a b: digit list, "
            "or one of zero|sigma0|sigma1"
        )
    return from_integer(value, slope, depth)


def _emit_json(command: str, config: RunConfig, result: dict) -> None:
    payload = {"command": command, "config": config.to_dict(), "result": result}
    print(json.dumps(payload, sort_keys=True, indent=2))


def _config(args, slope_needed: bool = True) -> RunConfig:
    return RunConfig(
        slope=getattr(args, "slope", None) if slope_needed else None,
        depth=args.depth if getattr(args, "depth", None) is not None else default_depth(),
        intercept=getattr(args, "intercept", None),
        format=args.format,
        check=getattr(args, "check", True),
    )


def cmd_word(args) -> int:
    slope = parse_slope(args.slope)
    config = _config(args)
    if args.action == "standard":
        word = standard_word(slope, args.level)
        result = {"word": word, "length": len(word), "level": args.level}
    elif args.intercept == "zero":
        # The characteristic word extends to any length without a depth cap.
        word = characteristic_prefix(slope, args.length)
        result = {"word": word, "length": len(word)}
    else:
        rho = parse_intercept(args.intercept, slope, config.depth)
        word = sturmian_prefix(rho, args.length)
        result = {"word": word, "length": len(word)}
    if args.format == "json":
        _emit_json("word", config, result)
    else:
        print(result["word"])
    return 0


def cmd_ostrowski(args) -> int:
    slope = parse_slope(args.slope)
    config = _config(args)
    if args.encode is not None:
        digits = encode(args.encode, slope, config.depth)
        result = {
            "value": args.encode,
            "digits": list(digits.digits),
            "support": sorted(digits.support()),
        }
    else:
        try:
            digit_list = tuple(int(part) for part in args.decode.split(","))
        except ValueError:
            raise SturmiaError(f"bad digit list {args.decode!r}")
        result = {
            "value": decode(digit_list, slope),
            "digits": list(digit_list),
            "support": sorted(i for i, b in enumerate(digit_list) if b),
        }
    if args.format == "json":
        _emit_json("ostrowski", config, result)
    elif args.format == "csv":
        print("index,digit")
        for i, b in enumerate(result["digits"]):
            print(f"{i},{b}")
    else:
        digit_text = ",".join(str(b) for b in result["digits"])
        print(f"value={result['value']} digits={digit_text} support={result['support']}")
    return 0


def cmd_intercept(args) -> int:
    slope = parse_slope(args.slope)
    config = _config(args)
    rho = parse_intercept(args.intercept, slope, config.depth)
    report = classify(rho)
    result = {
        "digits": list(rho.digits),
        "depth": rho.depth,
        "support": sorted(rho.support()),
        "residue": rho.psi(rho.depth),
        "class": report.verdict,
        "witness": report.witness,
    }
    try:
        comp = complement(rho)
        result["complement"] = {"digits": list(comp.digits), "depth": comp.depth}
    except SturmiaError as exc:
        result["complement"] = {"error": str(exc)}
    if args.format == "json":
        _emit_json("intercept", config, result)
    else:
        digit_text = ",".join(str(b) for b in rho.digits)
        print(f"digits={digit_text}")
        print(f"support={result['support']} residue={result['residue']}")
        print(f"class={result['class']} witness={result['witness']}")
        comp_info = result["complement"]
        if "digits" in comp_info:
            comp_text = ",".join(str(b) for b in comp_info["digits"])
            print(f"complement={comp_text}")
        else:
            print(f"complement unavailable: {comp_info['error']}")
    return 0


def cmd_rauzy(args) -> int:
    slope = parse_slope(args.slope)
    config = _config(args)
    graph = build_graph(slope, args.m)
    if args.format == "dot":
        print(graph.to_dot())
        return 0
    turns = count_turns(0, args.m, slope=slope)
    result = {
        "m": args.m,
        "level": {"n": graph.level.n, "l": graph.level.l, "r": graph.level.r},
        "referent_cycle_length": len(graph.referent_cycle),
        "other_cycle_length": len(graph.other_cycle),
        "common_path_length": len(graph.common_path),
        "characteristic_turns": turns,
    }
    if args.format == "json":
        _emit_json("rauzy", config, result)
    else:
        level = result["level"]
        print(
            f"m={args.m} level=(n={level['n']}, l={level['l']}, r={level['r']}) "
            f"cycles=({result['referent_cycle_length']}, {result['other_cycle_length']}) "
            f"common={result['common_path_length']} turns={turns}"
        )
    return 0


def cmd_repetition(args) -> int:
    if args.m_max < 1:
        raise RangeError(f"--m-max must be >= 1, got {args.m_max}")
    slope = parse_slope(args.slope)
    config = _config(args)
    rho = parse_intercept(args.intercept, slope, config.depth)
    closed = [repetition_closed_form(rho, m) for m in range(1, args.m_max + 1)]
    prefix = ""
    if config.check:
        needed = max(value + m for (value, _), m in zip(closed, range(1, args.m_max + 1)))
        prefix_length = min(needed + 2, max_certified_length(rho))
        prefix = sturmian_prefix(rho, prefix_length)
    failures = 0
    rows = []
    for m, (value, case) in enumerate(closed, start=1):
        direct: int | None = None
        if config.check and value + m <= len(prefix):
            direct = repetition_direct(prefix, m)
            if direct != value:
                failures += 1
        rows.append({"m": m, "r_closed": value, "r_direct": direct, "case": case})
    if args.format == "json":
        _emit_json(
            "repetition",
            config,
            {"rows": rows, "failures": failures},
        )
    elif args.format == "csv":
        print("m,r_closed,r_direct,case")
        for row in rows:
            direct_text = "" if row["r_direct"] is None else str(row["r_direct"])
            print(f"{row['m']},{row['r_closed']},{direct_text},{row['case']}")
    else:
        for row in rows:
            print(
                f"m={row['m']} r={row['r_closed']} direct={row['r_direct']} "
                f"case={row['case']}"
            )
    return 1 if failures else 0


def cmd_factorize(args) -> int:
    config_slope = args.slope is not None
    if args.word is not None:
        if set(args.word) - {"0", "1"}:
            raise SturmiaError(f"--word expects a binary word, got {args.word!r}")
        config = _config(args, slope_needed=config_slope)
        fact = b_factorize(args.word)
        result = {
            "word": args.word,
            "blocks": list(fact.blocks),
            "complete": fact.complete,
            "leftover": fact.leftover,
            "failure_at": fact.failure_at if not fact.complete else None,
        }
        if args.format == "json":
            _emit_json("factorize", config, result)
        elif fact.complete:
            print(" ".join(fact.blocks) if fact.blocks else "(empty)")
        else:
            print(f"no factorization: leftover {fact.leftover!r} at {fact.failure_at}")
        return 0
    if args.slope is None:
        raise SturmiaError("--slope is required unless --word is given")
    slope = parse_slope(args.slope)
    config = _config(args)
    if args.intercept is not None:
        rho = parse_intercept(args.intercept, slope, config.depth)
        report = duality_check(rho, args.length)
        result = {
            "ok": report.ok,
            "prefix_ok": report.prefix_ok,
            "orbit_ok": report.orbit_ok,
            "checked_length": report.checked_length,
            "window": report.window,
        }
        if args.format == "json":
            _emit_json("factorize", config, result)
        else:
            print(
                f"duality ok={report.ok} prefix_ok={report.prefix_ok} "
                f"orbit_ok={report.orbit_ok} length={report.checked_length}"
            )
        return 0 if report.ok else 1
    report = characteristic_factorizations(slope, args.length)
    result = {
        "case": report.case,
        "ok": report.ok,
        "first": report.first,
        "second": report.second,
    }
    if args.format == "json":
        _emit_json("factorize", config, result)
    else:
        print(f"case={report.case} ok={report.ok} length={args.length}")
    return 0 if report.ok else 1


def cmd_torsion(args) -> int:
    slope = parse_slope(args.slope)
    config = _config(args)
    hit = torsion_search(slope, args.modulus, n=args.n, k_max=args.k_max)
    result = {
        "found": hit.found,
        "modulus": hit.modulus,
        "n": hit.n,
        "k": hit.k,
        "quotient_digits": None if hit.quotient_digits is None else list(hit.quotient_digits),
        "support": None if hit.support is None else sorted(hit.support),
        "state_trace": [list(state) for state in hit.state_trace],
        "reason": hit.reason,
    }
    if args.format == "json":
        _emit_json("torsion", config, result)
    elif hit.found:
        print(
            f"N={hit.modulus} n={hit.n} k={hit.k} support={result['support']} "
            f"digits={result['quotient_digits']}"
        )
    else:
        print(f"N={hit.modulus} n={hit.n}: no admissible k <= {args.k_max} ({hit.reason})")
    return 0 if hit.found else 1


def cmd_verify(args) -> int:
    numbers = args.only if args.only else list(range(1, len(acceptance.CHECKS) + 1))
    results = [acceptance.run_check(number) for number in numbers]
    config = _config(args, slope_needed=False)
    if args.format == "json":
        payload = {
            "seed": acceptance.SEED,
            "results": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ],
            "passed": all(r.passed for r in results),
        }
        _emit_json("verify", config, payload)
    elif args.format == "csv":
        print(f"# seed={acceptance.SEED}")
        print("number,name,passed,detail")
        for r in results:
            detail = r.detail.replace('"', "'")
            print(f'{r.number},{r.name},{int(r.passed)},"{detail}"')
    else:
        print(f"# corpus seed {acceptance.SEED}")
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def _add_slope(parser, required: bool = True) -> None:
    parser.add_argument(
        "--slope",
        required=required,
        default=None,
        help='slope literal, e.g. "[0;1*]" or "[0;2,1,(3,1)*]"',
    )


def _add_depth(parser) -> None:
    parser.add_argument(
        "--depth",
        type=int,
        default=None,
        help="digit depth (default: STURMIA_DEPTH env var, else 24)",
    )


def _add_format(parser, choices: tuple[str, ...], default: str) -> None:
    parser.add_argument("--format", choices=choices, default=default)


def _add_intercept(parser, default=None, required=False) -> None:
    parser.add_argument(
        "--intercept",
        default=default,
        required=required,
        help='integer, little-endian digit list "b:0,1,0,1", or zero|sigma0|sigma1',
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sturmia",
        description="Exact computations on sturmian words, their numeration "
        "system, and the associated graph and congruence structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    word = sub.add_parser("word", help="emit word prefixes")
    word.add_argument("action", choices=("prefix", "standard"))
    _add_slope(word)
    word.add_argument("--len", dest="length", type=int, default=40)
    word.add_argument("--level", type=int, default=8, help="standard word index")
    _add_intercept(word, default="zero")
    _add_depth(word)
    _add_format(word, ("text", "json"), "text")
    word.set_defaults(handler=cmd_word)

    ostrowski = sub.add_parser("ostrowski", help="encode or decode digit strings")
    _add_slope(ostrowski)
    group = ostrowski.add_mutually_exclusive_group(required=True)
    group.add_argument("--encode", type=int, default=None, metavar="N")
    group.add_argument("--decode", default=None, metavar="DIGITS")
    _add_depth(ostrowski)
    _add_format(ostrowski, ("text", "json", "csv"), "text")
    ostrowski.set_defaults(handler=cmd_ostrowski)

    intercept = sub.add_parser("intercept", help="inspect a formal intercept")
    _add_slope(intercept)
    _add_intercept(intercept, required=True)
    _add_depth(intercept)
    _add_format(intercept, ("text", "json"), "text")
    intercept.set_defaults(handler=cmd_intercept)

    rauzy = sub.add_parser("rauzy", help="factor graph structure at one length")
    _add_slope(rauzy)
    rauzy.add_argument("--m", type=int, required=True, help="factor length")
    _add_depth(rauzy)
    _add_format(rauzy, ("text", "json", "dot"), "text")
    rauzy.set_defaults(handler=cmd_rauzy)

    repetition = sub.add_parser("repetition", help="repetition function table")
    _add_slope(repetition)
    _add_intercept(repetition, default="zero")
    repetition.add_argument("--m-max", dest="m_max", type=int, default=20)
    repetition.add_argument(
        "--no-check",
        dest="check",
        action="store_false",
        help="skip the direct sliding-window cross-check",
    )
    _add_depth(repetition)
    _add_format(repetition, ("csv", "json", "text"), "csv")
    repetition.set_defaults(handler=cmd_repetition)

    factorize = sub.add_parser(
        "factorize", help="block factorizations and the prefix/suffix duality"
    )
    _add_slope(factorize, required=False)
    factorize.add_argument("--word", default=None, help="binary word to block-factorize")
    _add_intercept(factorize)
    factorize.add_argument("--len", dest="length", type=int, default=400)
    _add_depth(factorize)
    _add_format(factorize, ("text", "json"), "text")
    factorize.set_defaults(handler=cmd_factorize)

    torsion = sub.add_parser("torsion", help="congruence identities on continuants")
    _add_slope(torsion)
    torsion.add_argument("-N", "--modulus", dest="modulus", type=int, required=True)
    torsion.add_argument("--n", type=int, default=None, help="anchor rank")
    torsion.add_argument("--k-max", dest="k_max", type=int, default=40)
    _add_depth(torsion)
    _add_format(torsion, ("json", "text"), "json")
    torsion.set_defaults(handler=cmd_torsion)

    verify = sub.add_parser("verify", help="run the acceptance criteria")
    verify.add_argument(
        "--only",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="run a single criterion (repeatable)",
    )
    _add_depth(verify)
    _add_format(verify, ("text", "json", "csv"), "text")
    verify.set_defaults(handler=cmd_verify)

    return parser


# Built on the first dispatch and never mutated afterwards: parse_args
# leaves the parser as it found it, and defaults that depend on the
# environment (STURMIA_DEPTH) are resolved by the handlers at run time.
@cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv and run the selected subcommand.

    Returns 0 on success, 1 on a verification failure, 2 on usage errors;
    argparse exits with 2 on malformed flags before we get here.
    """
    args = _shared_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SturmiaError, ValueError) as exc:
        # parse_slope and the int conversions raise ValueError on bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return dispatch()


if __name__ == "__main__":
    raise SystemExit(main())
