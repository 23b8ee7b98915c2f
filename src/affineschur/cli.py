"""Command-line driver: computations and theorem-verification sweeps.

Output is deterministic for a fixed configuration; the sweeps run in one
thread.  A verify sweep is sized before it starts: the radii its suite
declares in `verify.ball_radii` are checked against the ball cap.  Exit
codes: 0 success, 1 a verification sweep found a counterexample, 2 invalid
configuration, 3 internal error (one line on stderr).
"""

from __future__ import annotations

import itertools
import sys
from _json import encode_basestring_ascii, make_encoder  # the C writers json.encoder uses
from collections.abc import Callable
from types import SimpleNamespace

from .affine import BALL_CAP, ball_size, from_word
from .kcode import rd, ri, sh
from .orderlab import signed_fiber_table, z_sets
from .partitions import KBoundedPartition
from .shapes import (
    StripGrowth,
    bounded_to_core,
    bounded_to_perm,
    perm_to_bounded,
    reading_word,
    setvalued_strips,
    weak_strips,
)
from .symfunc import (
    SymElt,
    _gtilde_pieri_ie,
    _gtilde_pieri_union,
    _in_term_order,
    h_mult,
    pieri_kschur,
)
from .verify import (
    ball_radii,
    verify_factorization,
    verify_fibers,
    verify_order_props,
    verify_pieri_sum,
)

MAX_K = 8
MAX_SIZE = 12


class ConfigError(ValueError):
    """Invalid run configuration; reported with exit status 2."""


class RunConfig:
    """The rank and the options one CLI call runs with, checked against the caps."""

    __slots__ = ("k", "max_size", "r", "fmt")

    def __init__(self, k: int, max_size: int | None = None, r: int | None = None,
                 fmt: str = "text"):
        if not 1 <= k <= MAX_K:
            raise ConfigError(f"need 1 <= k <= {MAX_K}, got k={k}")
        if max_size is not None and not 0 <= max_size <= MAX_SIZE:
            raise ConfigError(f"need 0 <= max-size <= {MAX_SIZE}, got {max_size}")
        if r is not None and not 0 <= r <= k:
            raise ConfigError(f"need 0 <= r <= k, got r={r}")
        self.k, self.max_size, self.r, self.fmt = k, max_size, r, fmt

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.max_size, self.r, self.fmt) == (
                other.k, other.max_size, other.r, other.fmt)
        return NotImplemented

    def __repr__(self):
        return (f"RunConfig(k={self.k!r}, max_size={self.max_size!r}, r={self.r!r}, "
                f"fmt={self.fmt!r})")


def parse_partition(k: int, text: str | None) -> KBoundedPartition:
    """Comma-separated parts; empty partition spelled '0' or omitted."""
    if text is None or text.strip() in ("", "0"):
        return KBoundedPartition(k, ())
    try:
        parts = tuple(int(p) for p in text.split(","))
        return KBoundedPartition(k, parts)
    except ValueError as err:
        raise ConfigError(f"bad partition {text!r}: {err}") from None


def parse_word(k: int, text: str) -> tuple[int, ...]:
    """Comma-separated letters, each in 0..k; empty word spelled ''."""
    try:
        word = tuple(int(a) for a in text.split(",")) if text.strip() else ()
    except ValueError as err:
        raise ConfigError(f"bad word {text!r}: {err}") from None
    if any(not 0 <= a <= k for a in word):
        raise ConfigError(f"bad word {text!r}: letters must lie in 0..{k}")
    return word


# how _json_text writes a scalar, by its exact type
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _int_rows_text(rows: list[list[int]], indent: str) -> str:
    """`_json_text` of a list of int lists, by the C encoder of `_json`.

    The encoder writes the rows without indentation (it ignores an indent),
    but with the item separator "," and the indent of a row's items, so
    only the row separators and the brackets remain to be moved: no int's
    text holds a bracket or a comma, so each is one replacement.
    """
    inner = indent + "  "
    deeper = inner + "  "
    encode = make_encoder(
        None, None, encode_basestring_ascii, None, ": ", "," + deeper, False, False, False
    )
    body = (
        "".join(encode(rows, 0))[1:-1]
        .replace("]," + deeper, "]," + inner)  # between rows
        .replace("]", inner + "]")
        .replace("[", "[" + deeper)
        .replace("[" + deeper + inner + "]", "[]")  # an empty row
    )
    return "[" + inner + body + indent + "]"


def _json_text(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, in one pass.

    On 3.11 the stdlib writes indented JSON with its pure-Python encoder.
    This writer takes exactly the types CLI payloads hold (dicts with str
    keys, lists, str, int, bool and None) and raises TypeError for any
    other.  A list of scalars of one type is written with one join, and a
    list of int lists by the C encoder (`_int_rows_text`).
    """
    kind = type(value)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        only = kinds.pop() if len(kinds) == 1 else None
        scalar = _JSON_SCALARS.get(only)
        if scalar is not None:
            items = map(scalar, value)
        elif only is list and set(map(type, itertools.chain.from_iterable(value))) == {int}:
            return _int_rows_text(value, indent)
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(cfg: RunConfig, payload: dict, rows: Callable[[], list[dict]]) -> None:
    """Print the payload as JSON, or `rows()` as text or CSV; `rows` is
    called only for those two formats."""
    if cfg.fmt == "json":
        print(_json_text(payload))
        return
    rows = rows()
    if cfg.fmt == "csv":
        import csv

        if rows:
            fields = list(dict.fromkeys(key for row in rows for key in row))
            writer = csv.DictWriter(sys.stdout, fieldnames=fields, restval="")
            writer.writeheader()
            writer.writerows(rows)
    else:
        for row in rows:
            print("  ".join(f"{key}={value}" for key, value in row.items()))


def _fmt_parts(parts) -> str:
    return ",".join(map(str, parts)) if parts else "-"


def _fmt_set(members) -> str:
    return "{" + ",".join(map(str, sorted(members))) + "}"


def cmd_bij(cfg: RunConfig, args) -> int:
    lam = parse_partition(cfg.k, args.lam)
    w = bounded_to_perm(lam)
    core = bounded_to_core(lam)
    word = list(reading_word(lam))
    code_d = rd(w)
    code_i = ri(w)
    sh_d, sh_i = sh(code_d), sh(code_i)
    payload = {
        "bounded": lam.as_dict(),
        "core": core.as_dict(),
        "perm": w.as_dict(),
        "word": word,
        "rd": code_d.as_dict(),
        "ri": code_i.as_dict(),
        "sh_rd": sh_d.as_dict(),
        "sh_ri": sh_i.as_dict(),
    }
    _emit(cfg, payload, lambda: [
        {
            "bounded": _fmt_parts(lam.parts),
            "core": _fmt_parts(core.parts),
            "word": "".join(map(str, word)) or "-",
            "window": " ".join(map(str, w.window)),
            "rd": ",".join(map(str, code_d.values)),
            "ri": ",".join(map(str, code_i.values)),
            "sh_rd": _fmt_parts(sh_d.parts),
            "sh_ri": _fmt_parts(sh_i.parts),
        }
    ])
    return 0


def cmd_strips(cfg: RunConfig, args) -> int:
    lam = parse_partition(cfg.k, args.lam)
    r = cfg.r if cfg.r is not None else 1
    weak = weak_strips(lam, r)
    # (A, top, sign) of each set-valued strip
    set_valued = []
    if r >= 1:
        set_valued = [
            (A, perm_to_bounded(v), (-1) ** (r + lam.size - v.length))
            for A, v in setvalued_strips(bounded_to_perm(lam), r)
        ]
    payload = {
        "base": lam.as_dict(),
        "r": r,
        "weak": [s.as_dict() for s in weak],
        "set_valued": [
            {"A": list(A.sorted()), "top": mu.as_dict(), "sign": sign}
            for A, mu, sign in set_valued
        ],
    }
    _emit(cfg, payload, lambda: [
        {"kind": "weak", "A": _fmt_set(s.indices.members), "top": _fmt_parts(s.top.parts)}
        for s in weak
    ] + [
        {
            "kind": "set-valued",
            "A": _fmt_set(A.members),
            "top": _fmt_parts(mu.parts),
            "sign": f"{sign:+d}",
        }
        for A, mu, sign in set_valued
    ])
    return 0


def cmd_pieri(cfg: RunConfig, args) -> int:
    lam = parse_partition(cfg.k, args.lam)
    r = cfg.r if cfg.r is not None else 1
    if args.basis == "ks":
        elt = pieri_kschur(lam, r)
    else:
        elt = h_mult(SymElt.single(cfg.k, "g", lam.parts), r)
    _emit(cfg, {"base": lam.as_dict(), "r": r, "result": elt.as_dict()}, lambda: [
        {"basis": elt.basis, "parts": _fmt_parts(p), "coeff": str(c)}
        for p, c in elt.coeffs
    ])
    return 0


def cmd_gtilde(cfg: RunConfig, args) -> int:
    lam = parse_partition(cfg.k, args.lam)
    r = cfg.r if cfg.r is not None else 1
    growth = StripGrowth(lam, r)  # both forms read one growth
    closed = _gtilde_pieri_union(growth, r)
    ie = _in_term_order(_gtilde_pieri_ie(growth, r))
    payload = {
        "base": lam.as_dict(),
        "r": r,
        "interval_union": closed.as_dict(),
        "inclusion_exclusion": [
            {"parts": list(p), "coeff": str(c)} for p, c in ie.items()
        ],
    }
    _emit(cfg, payload, lambda: [
        {"form": "interval-union", "parts": _fmt_parts(p), "coeff": str(c)}
        for p, c in closed.coeffs
    ] + [
        {"form": "inclusion-exclusion", "parts": _fmt_parts(p), "coeff": str(c)}
        for p, c in ie.items()
    ])
    return 0


def cmd_table1(cfg: RunConfig, args) -> int:
    if args.word is not None:
        u = from_word(cfg.k, parse_word(cfg.k, args.word))
    else:
        u = bounded_to_perm(parse_partition(cfg.k, args.lam))
    if not u.is_grassmannian():
        raise ConfigError(f"element {u.window} is not affine Grassmannian")
    w = None
    if args.below is not None:
        w = bounded_to_perm(parse_partition(cfg.k, args.below))
    table = signed_fiber_table(u, w)
    payload = {
        "u": u.as_dict(),
        "below": None if w is None else w.as_dict(),
        "rows": [
            {"v": v.as_dict(), "A": list(A.sorted()), "sign": sign}
            for v, A, sign in table
        ],
    }
    _emit(cfg, payload, lambda: [
        {
            "v_window": " ".join(map(str, v.window)),
            "v_shape": _fmt_parts(perm_to_bounded(v).parts),
            "A": _fmt_set(A.members),
            "sign": f"{sign:+d}",
        }
        for v, A, sign in table
    ])
    return 0


def cmd_zsets(cfg: RunConfig, args) -> int:
    if args.word is not None:
        u = from_word(cfg.k, parse_word(cfg.k, args.word))
    else:
        u = bounded_to_perm(parse_partition(cfg.k, args.lam))
    payload = z_sets(u).as_dict()
    # the families of the payload, each member sorted and in family order
    _emit(cfg, payload, lambda: [
        {"family": which, "A": "{" + ",".join(map(str, A)) + "}"}
        for which in ("plus", "minus", "plus_grassmannian")
        for A in payload.get(which, ())
    ])
    return 0


# looked up at call time, so that tests can replace a sweep function
_VERIFY_SUITES = {
    "pieri-sum": lambda k, max_size: verify_pieri_sum(k, max_size),
    "factorization": lambda k, max_size: verify_factorization(k, max_size),
    "order-props": lambda k, max_size: verify_order_props(k, max_size),
    "fibers": lambda k, max_size: verify_fibers(k, max_size),
}


def check_ball_sizes(suite: str, k: int, max_size: int) -> None:
    """Reject a sweep whose length balls would exceed the enumeration cap.

    Ball sizes come from Bott's formula, so nothing is enumerated here.
    """
    for radius in ball_radii(suite, k, max_size):
        size = ball_size(k, radius)
        if size > BALL_CAP:
            raise ConfigError(
                f"verify {suite} at k={k}, max-size {max_size} needs "
                f"ball(k={k}, L={radius}) of {size:,} elements, "
                f"over the cap of {BALL_CAP:,}"
            )


def cmd_verify(cfg: RunConfig, args) -> int:
    max_size = cfg.max_size if cfg.max_size is not None else 4
    check_ball_sizes(args.suite, cfg.k, max_size)
    results = _VERIFY_SUITES[args.suite](cfg.k, max_size)
    payload = {
        "suite": args.suite,
        "k": cfg.k,
        "max_size": max_size,
        "results": [r.as_dict() for r in results],
    }
    _emit(cfg, payload, lambda: [
        {
            "check": r.name,
            "instances": str(r.instances),
            "status": "ok" if r.ok else "FAIL",
        }
        for r in results
    ])
    bad = [r for r in results if not r.ok]
    if bad and cfg.fmt != "json":
        import json

        for r in bad:
            for witness in r.failures:
                print(
                    f"counterexample [{r.name}]: "
                    + json.dumps(witness, sort_keys=True),
                    file=sys.stderr,
                )
    return 1 if bad else 0


PROG = "affineschur"
DESCRIPTION = "Exact affine Schubert combinatorics at desk scale."

# An option of the command line: (destination, conversion of its text, the
# values it admits or None for any, default, help).  _REQUIRED as the
# default marks an option that must be given.
_REQUIRED = object()
_K = ("k", int, None, _REQUIRED, None)
_LAMBDA = ("lam", str, None, None, "comma-separated parts; empty as '0' or omitted")
_R = ("r", int, None, None, None)
_WORD = ("word", str, None, None, "letters of u, comma separated")

# command: (handler, summary, options by flag, positional as (destination,
# choices) or None).  Every command and the top level also take -h/--help.
COMMANDS = {
    "bij": (cmd_bij, "round trips: bounded / core / word / codes",
            {"--k": _K, "--lambda": _LAMBDA}, None),
    "strips": (cmd_strips, "weak and set-valued strips over a shape",
               {"--k": _K, "--lambda": _LAMBDA, "--r": _R}, None),
    "pieri": (cmd_pieri, "one Pieri product in a chosen basis",
              {"--k": _K, "--lambda": _LAMBDA, "--r": _R,
               "--basis": ("basis", str, ("ks", "g"), "g", None)}, None),
    "gtilde": (cmd_gtilde, "ideal-sum Pieri product, both closed forms",
               {"--k": _K, "--lambda": _LAMBDA, "--r": _R}, None),
    "table1": (cmd_table1, "signed fiber table of a Grassmannian element",
               {"--k": _K, "--lambda": _LAMBDA, "--word": _WORD,
                "--below": ("below", str, None, None, "filter rows by v <= w_mu")}, None),
    "zsets": (cmd_zsets, "weak-strip index-set families of an element",
              {"--k": _K, "--lambda": _LAMBDA, "--word": _WORD}, None),
    "verify": (cmd_verify, "exhaustive verification sweeps",
               {"--k": _K,
                "--max-size": ("max_size", int, None, None,
                               "degree cap (symmetric functions) or ball radius (orders)")},
               ("suite", tuple(sorted(_VERIFY_SUITES)))),
}
# the options before the command, and the command as the top level's positional
_TOP_OPTIONS = {"--format": ("format", str, ("text", "json", "csv"), "text", None)}
_COMMAND = ("command", tuple(COMMANDS))
_HELP_FLAGS = ("-h", "--help")

# kinds of token that are not options: a value, and the first "--", after
# which every token is a value
_VALUE, _SEPARATOR = "value", "--"


def _level(command: str | None):
    """The options, positional and name of a command, or of the top level
    (None), whose positional is the command."""
    if command is None:
        return _TOP_OPTIONS, _COMMAND, PROG
    _, _, options, positional = COMMANDS[command]
    return options, positional, f"{PROG} {command}"


def _metavar(dest: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else dest.upper()


def _usage(command: str | None) -> str:
    options, positional, prog = _level(command)
    words = ["usage:", prog, "[-h]"]
    for flag, (dest, _, choices, default, _) in options.items():
        given = f"{flag} {_metavar(dest, choices)}"
        words.append(given if default is _REQUIRED else f"[{given}]")
    if positional:
        words.append(_metavar(*positional))
    if command is None:
        words.append("...")
    return " ".join(words)


def _help(command: str | None) -> str:
    options, positional, _ = _level(command)
    if command is None:
        lines = [DESCRIPTION, "", "commands (--format goes before the command):"]
        lines += [f"  {name:8}{summary}" for name, (_, summary, _, _) in COMMANDS.items()]
    else:
        lines = [COMMANDS[command][1]]
        if positional:
            lines += ["", "positional:", f"  {_metavar(*positional)}"]
    rows = [("-h, --help", "show this help and exit")]
    for flag, (dest, _, choices, default, text) in options.items():
        rows.append((f"{flag} {_metavar(dest, choices)}",
                     "required" if default is _REQUIRED else text or ""))
    width = max(len(name) for name, _ in rows) + 2
    lines += ["", "options:"] + [f"  {name:{width}}{text}".rstrip() for name, text in rows]
    return _usage(command) + "\n\n" + "\n".join(lines)


def _usage_error(command: str | None, message: str):
    print(_usage(command), file=sys.stderr)
    print(f"{PROG}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _negative_number(token: str) -> bool:
    r"""Whether `token` matches argparse's `^-\d+$|^-\d*\.\d+$`, whose `$`
    also matches before a final newline."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, fraction = body.partition(".")
    return body.isdecimal() or bool(dot) and (not whole or whole.isdecimal()) and fraction.isdecimal()


def _kind(token: str, options: dict, command: str | None):
    """`_VALUE`, or the (flag, attached value or None) that `token` names
    among `options` and -h/--help; flag None for an unknown option."""
    if token[:1] != "-":
        return _VALUE
    if token in options or token in _HELP_FLAGS:
        return token, None
    if len(token) == 1:
        return _VALUE
    name, eq, value = token.partition("=")
    value = value if eq else None
    if eq and (name in options or name in _HELP_FLAGS):
        return name, value
    if token[1] == "-":  # a prefix of one long option
        found = [flag for flag in ("--help", *options) if flag.startswith(name)]
        if len(found) > 1:
            _usage_error(command, f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value
    elif token.startswith("-h"):  # -h with text attached
        return "-h", token[2:]
    if _negative_number(token) or " " in token:
        return _VALUE
    return None, None


def _kinds(tokens: list[str], options: dict, command: str | None) -> list:
    """The kind of each token, all read before any option is taken."""
    kinds = []
    for token in tokens:
        if token == "--":
            kinds.append(_SEPARATOR)
            return kinds + [_VALUE] * (len(tokens) - len(kinds))
        kinds.append(_kind(token, options, command))
    return kinds


def _parse_level(tokens: list[str], command: str | None, args, extras: list[str]) -> int:
    """Store on `args` what `tokens` give the top level (`command` None) or
    a command, in argv order, and collect unknown tokens in `extras`.  On
    the top level, return the index after the command's name: the tokens
    after it are the command's."""
    options, positional, _ = _level(command)
    for dest, _, _, default, _ in options.values():
        if default is not _REQUIRED:
            setattr(args, dest, default)
    kinds = _kinds(tokens, options, command)
    i, n = 0, len(tokens)
    while i < n:
        kind = kinds[i]
        if kind is _VALUE or kind is _SEPARATOR:
            if positional is None:
                extras.append(tokens[i])
                i += 1
                continue
            if command is None or kind is _VALUE:
                value = tokens[i]
                i += 1
                if command is not None and i < n and kinds[i] is _SEPARATOR:
                    i += 1  # a "--" just after the positional goes with it
            elif i + 1 < n:  # "--" then the positional
                value = tokens[i + 1]
                i += 2
            else:
                extras.append(tokens[i])
                i += 1
                continue
            dest, choices = positional
            if value not in choices:
                _usage_error(command, f"argument {dest}: invalid choice: {value!r}")
            setattr(args, dest, value)
            if command is None:
                return i
            positional = None
            continue
        flag, value = kind
        i += 1
        if flag is None:
            extras.append(tokens[i - 1])
            continue
        if flag in _HELP_FLAGS:
            # -h may carry more h's (-hh), as a run of short flags
            if value is not None and (flag == "--help" or not value or value.strip("h")):
                _usage_error(command, f"argument -h/--help: ignored explicit argument {value!r}")
            print(_help(command))
            raise SystemExit(0)
        dest, convert, choices, _, _ = options[flag]
        if value is None:
            if i == n or kinds[i] is not _VALUE:
                _usage_error(command, f"argument {flag}: expected one argument")
            value = tokens[i]
            i += 1
        try:
            value = convert(value)
        except ValueError:
            _usage_error(command, f"argument {flag}: invalid {convert.__name__} value: {value!r}")
        if choices is not None and value not in choices:
            _usage_error(command, f"argument {flag}: invalid choice: {value!r}")
        setattr(args, dest, value)
    missing = [flag for flag, (dest, _, _, default, _) in options.items()
               if default is _REQUIRED and not hasattr(args, dest)]
    if positional is not None:
        missing.append(positional[0])
    if missing:
        _usage_error(command, "the following arguments are required: " + ", ".join(missing))
    return i


def parse_args(argv) -> SimpleNamespace:
    """Read a command line by the grammar of `COMMANDS`, as argparse did.

    `--opt value` and `--opt=value` both work, as does any unique prefix of
    a long option; a repeated option keeps its last value, and a negative
    number is a value.  --format goes before the command and every other
    option after it, in any order with verify's suite.  -h/--help prints
    help and exits 0.  A usage error prints the usage line and
    `affineschur: error: ...` on stderr and exits 2.
    """
    args, extras, tokens = SimpleNamespace(), [], list(argv)
    start = _parse_level(tokens, None, args, extras)
    _parse_level(tokens[start:], args.command, args, extras)
    args.handler = COMMANDS[args.command][0]
    if extras:
        _usage_error(None, "unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = RunConfig(
            k=args.k,
            max_size=getattr(args, "max_size", None),
            r=getattr(args, "r", None),
            fmt=args.format,
        )
        return args.handler(cfg, args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
