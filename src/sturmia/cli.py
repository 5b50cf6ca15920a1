"""Command-line surface tying the library together for batch computation.

Subcommands mirror the module layout: word, ostrowski, intercept, rauzy,
repetition, factorize, torsion, verify.  One table, `_COMMANDS`, gives each
its handler and its renderer for each --format choice, the default first;
--depth and --format are declared once for all of them.  Each `cmd_*`
handler computes a result dict and an exit code from the parsed arguments
and the parsed slope (None when --slope is absent); it prints nothing.
`dispatch` parses --slope once, resolves the depth into the parsed
namespace, the one carrier of a run, and prints what the chosen renderer
makes of the result: json is `_envelope`, the JSON_SCHEMA envelope, for
every command.  Identical inputs produce byte-identical
output (nothing here consults the clock or an unseeded generator).  The
digit depth is --depth when given, else the STURMIA_DEPTH environment
variable, else 24; either must be at least 2.  Only `verify` loads the
acceptance suite.  A well-formed argv skips argparse's parsing: a
command name, then only that command's exact option strings (plain
`store` flags, each taking one value), values that do not start with
"-", and its positional, each flag at most once, every value passing its
flag's type and choices, and the required flags and groups all given.
`_table` reads those flags off the command parser's own argparse objects
when the parsers are built, and `_read` builds the namespace argparse
would.  Any other argv, `repetition --no-check` among them, goes through
the full parser, so usage errors and help are argparse's own.  JSON has
one writer, `_joined`: the stdlib json module's bytes with sorted keys and
an indent of 2, one str.join per container, for str, int, bool, None,
dict, list and tuple with str keys; any other value is an internal error.

Exit codes: 0 on success, 1 on a verification failure (a `verify`
criterion, a `repetition` row, a duality or factorization check, or a
torsion search that finds nothing), 2 on a usage error, 3 on an internal
error (any other exception: a fault in sturmia, reported on one stderr
line without a traceback).  A check decides its own failures: whatever
stops a `verify` criterion is its FAIL line, and a `repetition` row fails
where the profile reads another value than the closed form, or none
although the closed form's repeat fits in the prefix.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Sequence
from functools import cache
from json.encoder import encode_basestring_ascii

from .errors import RangeError, SturmiaError
from .factorization import characteristic_factorizations, duality_check
from .intercept import (
    AlphaNumber,
    classify,
    complement,
    integer_window,
    max_certified_length,
    named_window,
    sturmian_prefix,
)
from .ostrowski import decode
from .rauzy import build_graph, count_turns
from .repetition import repetition_closed_forms, repetition_profile
from .slope import Slope, interval_locate, parse_slope
from .torsion import b_factorize, torsion_search
from .words import characteristic_prefix, standard_word

# The largest --m-max of `sturmia repetition`: its table and rows take about
# 0.33 KB per m, all built before anything prints.
MAX_M_MAX = 10_000

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


def _at_least_two(source: str, depth: int) -> int:
    if depth < 2:
        raise SturmiaError(f"{source} must be at least 2, got {depth}")
    return depth


def default_depth() -> int:
    raw = os.environ.get("STURMIA_DEPTH", "24")
    try:
        value = int(raw)
    except ValueError:
        raise SturmiaError(f"STURMIA_DEPTH must be an integer, got {raw!r}")
    return _at_least_two("STURMIA_DEPTH", value)


def parse_intercept(spec: str, slope: Slope, depth: int) -> AlphaNumber:
    """Resolve an intercept spec: integer, "b:0,1,0,1" digit list, or a name."""
    if spec in ("zero", "sigma0", "sigma1"):
        return named_window(spec, slope, depth)
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
    return integer_window(value, slope, depth)


def cmd_word(args, slope: Slope) -> tuple[dict, int]:
    if args.action == "standard":
        word = standard_word(slope, args.level)
        return {"word": word, "length": len(word), "level": args.level}, 0
    if args.intercept == "zero":
        # The characteristic word extends to any length without a depth cap.
        word = characteristic_prefix(slope, args.length)
    else:
        rho = parse_intercept(args.intercept, slope, args.depth)
        word = sturmian_prefix(rho, args.length)
    return {"word": word, "length": len(word)}, 0


def cmd_ostrowski(args, slope: Slope) -> tuple[dict, int]:
    if args.encode is not None:
        window = integer_window(args.encode, slope, args.depth)
        support = sorted(window.support())
        return {"value": args.encode, "digits": window.digits, "support": support}, 0
    try:
        digit_list = tuple(int(part) for part in args.decode.split(","))
    except ValueError:
        raise SturmiaError(f"bad digit list {args.decode!r}")
    return {
        "value": decode(digit_list, slope),
        "digits": digit_list,
        "support": sorted(i for i, b in enumerate(digit_list) if b),
    }, 0


def cmd_intercept(args, slope: Slope) -> tuple[dict, int]:
    rho = parse_intercept(args.intercept, slope, args.depth)
    report = classify(rho)
    result = {
        "digits": rho.digits,
        "depth": rho.depth,
        "support": sorted(rho.support()),
        "residue": rho.psi(rho.depth),
        "class": report.verdict,
        "witness": report.witness,
    }
    try:
        comp = complement(rho)
        result["complement"] = {"digits": comp.digits, "depth": comp.depth}
    except SturmiaError as exc:
        result["complement"] = {"error": str(exc)}
    return result, 0


def cmd_rauzy(args, slope: Slope) -> tuple[dict, int]:
    if args.format == "dot":
        return {"dot": build_graph(slope, args.m).to_dot()}, 0
    # count_turns reads the cycles first, and refuses unless their lengths
    # are the ones printed here
    turns = count_turns(0, args.m, slope)
    n, l, r = interval_locate(args.m, slope)
    return {
        "m": args.m,
        "level": {"n": n, "l": l, "r": r},
        "referent_cycle_length": slope.q(n),
        "other_cycle_length": l * slope.q(n) + slope.q(n - 1),
        "common_path_length": r + 1,
        "characteristic_turns": turns,
    }, 0


def cmd_repetition(args, slope: Slope) -> tuple[dict, int]:
    if args.m_max < 1:
        raise RangeError(f"--m-max must be >= 1, got {args.m_max}")
    if args.m_max > MAX_M_MAX:
        raise RangeError(f"--m-max must be at most {MAX_M_MAX}, got {args.m_max}")
    rho = parse_intercept(args.intercept, slope, args.depth)
    closed = repetition_closed_forms(rho, args.m_max)
    prefix, profile = "", []
    if args.check:
        needed = max(value + m for m, (value, _) in enumerate(closed, start=1))
        prefix_length = min(needed + 2, max_certified_length(rho))
        prefix = sturmian_prefix(rho, prefix_length)
        profile = repetition_profile(prefix, args.m_max)
    failures = 0
    rows = []
    for m, (value, case) in enumerate(closed, start=1):
        direct = profile[m - 1] if m <= len(profile) else None
        if direct != value and (direct is not None or value + m <= len(prefix)):
            failures += 1
        rows.append({"m": m, "r_closed": value, "r_direct": direct, "case": case})
    return {"rows": rows, "failures": failures}, 1 if failures else 0


def cmd_factorize(args, slope: Slope | None) -> tuple[dict, int]:
    if args.word is not None:
        if set(args.word) - {"0", "1"}:
            raise SturmiaError(f"--word expects a binary word, got {args.word!r}")
        fact = b_factorize(args.word)
        return {
            "word": args.word,
            "blocks": fact.blocks,
            "complete": fact.complete,
            "leftover": fact.leftover,
            "failure_at": fact.failure_at,
        }, 0
    if slope is None:
        raise SturmiaError("--slope is required unless --word is given")
    if args.intercept is not None:
        rho = parse_intercept(args.intercept, slope, args.depth)
        report = duality_check(rho, args.length)
    else:
        report = characteristic_factorizations(slope, args.length)
    return report._asdict(), 0 if report.ok else 1


def cmd_torsion(args, slope: Slope) -> tuple[dict, int]:
    hit = torsion_search(slope, args.modulus, n=args.n, k_max=args.k_max)
    return {
        **hit._asdict(),
        "quotient_digits": None if hit.quotient_digits is None else list(hit.quotient_digits),
        "support": None if hit.support is None else sorted(hit.support),
    }, 0 if hit.found else 1


def cmd_verify(args, slope: None) -> tuple[dict, int]:
    from . import acceptance

    numbers = args.only if args.only else range(1, len(acceptance.CHECKS) + 1)
    results = [acceptance.run_check(number) for number in numbers]
    passed = all(r.passed for r in results)
    return {
        "seed": acceptance.SEED,
        "results": [r._asdict() for r in results],
        "passed": passed,
    }, 0 if passed else 1


def _digit_text(digits: Sequence[int]) -> str:
    return ",".join(str(b) for b in digits)


def _intercept_text(r: dict, args) -> str:
    comp = r["complement"]
    return "\n".join([
        f"digits={_digit_text(r['digits'])}",
        f"support={r['support']} residue={r['residue']}",
        f"class={r['class']} witness={r['witness']}",
        f"complement={_digit_text(comp['digits'])}" if "digits" in comp
        else f"complement unavailable: {comp['error']}",
    ])


def _rauzy_text(r: dict, args) -> str:
    level = r["level"]
    return (
        f"m={r['m']} level=(n={level['n']}, l={level['l']}, r={level['r']}) "
        f"cycles=({r['referent_cycle_length']}, {r['other_cycle_length']}) "
        f"common={r['common_path_length']} turns={r['characteristic_turns']}"
    )


def _factorize_text(r: dict, args) -> str:
    if "blocks" in r:
        if not r["complete"]:
            return f"no factorization: leftover {r['leftover']!r} at {r['failure_at']}"
        return " ".join(r["blocks"]) or "(empty)"
    if "prefix_ok" in r:
        return (
            f"duality ok={r['ok']} prefix_ok={r['prefix_ok']} "
            f"orbit_ok={r['orbit_ok']} length={r['checked_length']}"
        )
    return f"case={r['case']} ok={r['ok']} length={args.length}"


def _torsion_text(r: dict, args) -> str:
    if r["found"]:
        return (
            f"N={r['modulus']} n={r['n']} k={r['k']} support={r['support']} "
            f"digits={r['quotient_digits']}"
        )
    return f"N={r['modulus']} n={r['n']}: no admissible k <= {args.k_max} ({r['reason']})"


def _verify_text(r: dict, args) -> str:
    from .acceptance import CheckResult

    return "\n".join(
        [f"# corpus seed {r['seed']}"] + [CheckResult(**row).line() for row in r["results"]]
    )


def _verify_csv(r: dict, args) -> str:
    lines = [f"# seed={r['seed']}", "number,name,passed,detail"]
    for row in r["results"]:
        detail = row["detail"].replace('"', "'")
        lines.append(f'{row["number"]},{row["name"]},{int(row["passed"])},"{detail}"')
    return "\n".join(lines)


def _envelope(r: dict, args) -> str:
    """The JSON_SCHEMA envelope of a result, every command's json rendering."""
    config = {
        "slope": getattr(args, "slope", None),
        "depth": args.depth,
        "intercept": getattr(args, "intercept", None),
        "format": args.format,
        "check": getattr(args, "check", True),
    }
    return _joined({"command": args.command, "config": config, "result": r}, "\n")


# command -> (its handler, its renderer for each --format choice, the default first)
_COMMANDS: dict[str, tuple[Callable[..., tuple[dict, int]], dict[str, Callable[..., str]]]] = {
    "word": (cmd_word, {"text": lambda r, args: r["word"], "json": _envelope}),
    "ostrowski": (
        cmd_ostrowski,
        {
            "text": lambda r, args: (
                f"value={r['value']} digits={_digit_text(r['digits'])} support={r['support']}"
            ),
            "json": _envelope,
            "csv": lambda r, args: "\n".join(
                ["index,digit"] + [f"{i},{b}" for i, b in enumerate(r["digits"])]
            ),
        },
    ),
    "intercept": (cmd_intercept, {"text": _intercept_text, "json": _envelope}),
    "rauzy": (cmd_rauzy, {"text": _rauzy_text, "json": _envelope, "dot": lambda r, args: r["dot"]}),
    "repetition": (
        cmd_repetition,
        {
            "csv": lambda r, args: "\n".join(
                ["m,r_closed,r_direct,case"]
                + [
                    f"{row['m']},{row['r_closed']},"
                    f"{'' if row['r_direct'] is None else row['r_direct']},{row['case']}"
                    for row in r["rows"]
                ]
            ),
            "json": _envelope,
            "text": lambda r, args: "\n".join(
                f"m={row['m']} r={row['r_closed']} direct={row['r_direct']} case={row['case']}"
                for row in r["rows"]
            ),
        },
    ),
    "factorize": (cmd_factorize, {"text": _factorize_text, "json": _envelope}),
    "torsion": (cmd_torsion, {"json": _envelope, "text": _torsion_text}),
    "verify": (cmd_verify, {"text": _verify_text, "json": _envelope, "csv": _verify_csv}),
}


def _add_slope(parser, required: bool = True) -> None:
    parser.add_argument(
        "--slope",
        required=required,
        default=None,
        help='slope literal, e.g. "[0;1*]" or "[0;2,1,(3,1)*]"',
    )


def _add_intercept(parser, default=None, required=False) -> None:
    parser.add_argument(
        "--intercept",
        default=default,
        required=required,
        help='integer, little-endian digit list "b:0,1,0,1", or zero|sigma0|sigma1',
    )


def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own parser by command name."""
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

    ostrowski = sub.add_parser("ostrowski", help="encode or decode digit strings")
    _add_slope(ostrowski)
    group = ostrowski.add_mutually_exclusive_group(required=True)
    group.add_argument("--encode", type=int, default=None, metavar="N")
    group.add_argument("--decode", default=None, metavar="DIGITS")

    intercept = sub.add_parser("intercept", help="inspect a formal intercept")
    _add_slope(intercept)
    _add_intercept(intercept, required=True)

    rauzy = sub.add_parser("rauzy", help="factor graph structure at one length")
    _add_slope(rauzy)
    rauzy.add_argument("--m", type=int, required=True, help="factor length")

    repetition = sub.add_parser("repetition", help="repetition function table")
    _add_slope(repetition)
    _add_intercept(repetition, default="zero")
    repetition.add_argument(
        "--m-max", dest="m_max", type=int, default=20, help=f"largest m, at most {MAX_M_MAX}"
    )
    repetition.add_argument(
        "--no-check",
        dest="check",
        action="store_false",
        help="skip the direct sliding-window cross-check",
    )

    factorize = sub.add_parser(
        "factorize", help="block factorizations and the prefix/suffix duality"
    )
    _add_slope(factorize, required=False)
    factorize.add_argument("--word", default=None, help="binary word to block-factorize")
    _add_intercept(factorize)
    factorize.add_argument("--len", dest="length", type=int, default=400)

    torsion = sub.add_parser("torsion", help="congruence identities on continuants")
    _add_slope(torsion)
    torsion.add_argument("-N", "--modulus", dest="modulus", type=int, required=True)
    torsion.add_argument("--n", type=int, default=None, help="anchor rank")
    torsion.add_argument("--k-max", dest="k_max", type=int, default=40)

    verify = sub.add_parser("verify", help="run the acceptance criteria")
    verify.add_argument(
        "--only",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="run a single criterion (repeatable)",
    )

    # the last two flags of every command
    for name, (_, renderers) in _COMMANDS.items():
        command = sub.choices[name]
        command.add_argument(
            "--depth",
            type=int,
            default=None,
            help="digit depth (default: STURMIA_DEPTH env var, else 24)",
        )
        command.add_argument("--format", choices=tuple(renderers), default=next(iter(renderers)))
    return parser, sub.choices


# Built on the first dispatch and never mutated afterwards: parsing leaves
# a parser as it found it, and defaults that depend on the environment
# (STURMIA_DEPTH) are resolved by dispatch at run time.
@cache
def _shared_parsers() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The full parser, and each command parser's `_table` by command name."""
    parser, commands = build_parsers()
    return parser, {name: _table(command) for name, command in commands.items()}


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """What the full parser's parse_args(argv) returns, or the exit it makes.

    When argv starts with a command name, the full parser hands every later
    argument to that command's parser; when `_read` takes those arguments,
    it gives that parser's namespace without argparse's parsing.  Anything
    else goes through the full parser, whose errors and help text are then
    argparse's own.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, tables = _shared_parsers()
    table = tables.get(argv[0]) if argv else None
    args = None if table is None else _read(table, argv[1:])
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def _plain(action: argparse.Action) -> bool:
    """Whether the table path takes this action: a store of one value."""
    return type(action) is argparse._StoreAction and action.nargs is None


def _table(parser: argparse.ArgumentParser) -> tuple:
    """What `_read` needs of a command's parser, read off its argparse objects.

    Returns (plain flags by exact option string, positionals, required
    actions, mutually exclusive groups with their `required`, the namespace
    of defaults).  Every command's positionals are plain stores and no flag
    has a str default that argparse would convert with its type, so the
    positionals and the defaults are taken as they are.
    """
    actions = parser._actions
    positionals = [action for action in actions if not action.option_strings]
    # the commands' parsers take no set_defaults, so the actions' are all
    defaults = {
        action.dest: action.default
        for action in actions
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS
    }
    options = {
        text: action for text, action in parser._option_string_actions.items() if _plain(action)
    }
    required = [action for action in actions if action.required]
    groups = [(group._group_actions, group.required) for group in parser._mutually_exclusive_groups]
    return options, positionals, required, groups, defaults


def _read(table: tuple, argv: list[str]) -> argparse.Namespace | None:
    """The namespace the command's parser returns for argv, or None to ask it.

    Takes exact option strings, values that do not start with "-", and the
    positionals in order, and returns None on anything else: an unknown or
    abbreviated flag, a flag given twice, a missing value, a value that
    fails its type or choices, a missing required flag or positional, or a
    mutually exclusive group given none (when required) or more than one.
    Like argparse, a group member counts as given only when its value is
    not its default object.
    """
    options, positionals, required, groups, defaults = table
    values: dict[argparse.Action, object] = {}
    given = set()  # actions whose value is not their default
    position = 0
    tokens = iter(argv)
    for token in tokens:
        if token[:1] == "-":
            action = options.get(token)
            if action is None or action in values:
                return None
            token = next(tokens, "-")  # a missing value reads as a flag
            if token[:1] == "-":
                return None
        elif position < len(positionals):
            action = positionals[position]
            position += 1
        else:
            return None
        try:
            value = token if action.type is None else action.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action] = value
        if value is not action.default:
            given.add(action)
    if position < len(positionals) or not all(action in values for action in required):
        return None
    for members, needed in groups:
        count = sum(action in given for action in members)
        if count > 1 or (needed and not count):
            return None
    args = argparse.Namespace()
    namespace = vars(args)
    namespace.update(defaults)
    for action, value in values.items():
        namespace[action.dest] = value
    return args


def _joined(value, line: str) -> str:
    """The text the stdlib json module writes for value with sort_keys=True
    and indent=2, where `line` is the newline and indent before its closing
    bracket.

    Raises TypeError on a value of any type but str, int, bool, None, dict,
    list and tuple, and on a key that is not a str (encode_basestring_ascii
    refuses it, or sorting mixed keys does).
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = line + "  "
    if kind is dict:
        if not value:
            return "{}"
        texts = [
            encode_basestring_ascii(key) + ": " + _joined(value[key], inner) for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(texts) + line + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        texts = [_joined(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(texts) + line + "]"
    raise TypeError(f"{kind.__name__} values have no JSON rendering")


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run the selected subcommand and print its rendered result.

    Returns 0 on success, 1 on a verification failure, 2 on usage errors
    and 3 on internal errors; argparse exits with 2 on malformed flags
    before we get here.
    """
    args = _parse(argv)
    try:
        slope = None if getattr(args, "slope", None) is None else parse_slope(args.slope)
        args.depth = default_depth() if args.depth is None else _at_least_two("--depth", args.depth)
        handler, renderers = _COMMANDS[args.command]
        result, code = handler(args, slope)
        text = renderers[args.format](result, args)
    except (SturmiaError, ValueError) as exc:
        # parse_slope and the int conversions raise ValueError on bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # not the input's fault, so neither a usage error nor a verdict;
        # the repr keeps it to one line
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    print(text)
    return code


def main() -> int:
    return dispatch()


if __name__ == "__main__":
    raise SystemExit(main())
