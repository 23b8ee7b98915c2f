"""Command-line driver: computations and theorem-verification sweeps.

Output is deterministic for a fixed configuration; the sweeps run in one
thread.  A verify sweep is sized before it starts: the radii its suite
declares in `verify.ball_radii` are checked against the ball cap.  Exit
codes: 0 success, 1 a verification sweep found a counterexample, 2 invalid
configuration, 3 internal error (one line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from collections.abc import Callable
from json.encoder import encode_basestring_ascii

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


def _one_scalar_type(values):
    """How `_json_text` writes the values, when they all have one scalar type."""
    kinds = set(map(type, values))
    return _JSON_SCALARS.get(kinds.pop()) if len(kinds) == 1 else None


def _json_text(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, in one pass.

    On 3.11 the stdlib writes indented JSON with its pure-Python encoder.
    This writer takes exactly the types CLI payloads hold (dicts with str
    keys, lists, str, int, bool and None) and raises TypeError for any
    other.  A list of scalars of one type is written with one join, and a
    list of lists whose scalars all have one type with one join per row.
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
        elif only is list and (cell := _one_scalar_type(itertools.chain.from_iterable(value))):
            deeper = inner + "  "
            comma = "," + deeper
            items = [
                "[" + deeper + comma.join(map(cell, row)) + inner + "]" if row else "[]"
                for row in value
            ]
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
        for r in bad:
            for witness in r.failures:
                print(
                    f"counterexample [{r.name}]: "
                    + json.dumps(witness, sort_keys=True),
                    file=sys.stderr,
                )
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affineschur",
        description="Exact affine Schubert combinatorics at desk scale.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_lambda=True, need_r=False):
        p.add_argument("--k", type=int, required=True)
        if need_lambda:
            p.add_argument("--lambda", dest="lam", default=None,
                           help="comma-separated parts; empty as '0' or omitted")
        if need_r:
            p.add_argument("--r", type=int, default=None)

    p = sub.add_parser("bij", help="round trips: bounded / core / word / codes")
    common(p)
    p.set_defaults(handler=cmd_bij)

    p = sub.add_parser("strips", help="weak and set-valued strips over a shape")
    common(p, need_r=True)
    p.set_defaults(handler=cmd_strips)

    p = sub.add_parser("pieri", help="one Pieri product in a chosen basis")
    common(p, need_r=True)
    p.add_argument("--basis", choices=("ks", "g"), default="g")
    p.set_defaults(handler=cmd_pieri)

    p = sub.add_parser("gtilde", help="ideal-sum Pieri product, both closed forms")
    common(p, need_r=True)
    p.set_defaults(handler=cmd_gtilde)

    p = sub.add_parser("table1", help="signed fiber table of a Grassmannian element")
    common(p)
    p.add_argument("--word", default=None, help="letters of u, comma separated")
    p.add_argument("--below", default=None, help="filter rows by v <= w_mu")
    p.set_defaults(handler=cmd_table1)

    p = sub.add_parser("zsets", help="weak-strip index-set families of an element")
    common(p)
    p.add_argument("--word", default=None, help="letters of u, comma separated")
    p.set_defaults(handler=cmd_zsets)

    p = sub.add_parser("verify", help="exhaustive verification sweeps")
    p.add_argument("suite", choices=sorted(_VERIFY_SUITES))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-size", type=int, default=None,
                   help="degree cap (symmetric functions) or ball radius (orders)")
    p.set_defaults(handler=cmd_verify)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
