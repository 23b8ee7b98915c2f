"""The three workloads: a verdict sweep and a seeded query list.

A round runs two working interpreters (and a few that only start up; see
run.py).  One runs the workload's verdict, a single `verify` sweep at a
fixed configuration.  The other runs the query list one query after another
through `cli.main` in the same process, with every memo emptied before each
call (see session.py), so each call starts as cold as a new CLI process.

Each query list has a fixed make-up; the seed and the round number pick the
partitions and strip sizes where a query has them, and the order of the
queries, so the two rounds of a run hold different queries of one make-up.  The lists
are stand-ins chosen to stress the layers named in README.md, not traffic
recorded from users.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    """One query: one or more `cli.main` calls with JSON output, and its check.

    `check(payloads)` gets the parsed payloads in call order and returns None
    or a reason.
    """

    kind: str
    calls: tuple[tuple[str, ...], ...]
    check: Callable[[list[dict]], str | None]


def sweep_op(suite: str, k: int, m: int) -> Op:
    return Op(
        "verify",
        (("--format", "json", "verify", suite, "--k", str(k), "--max-size", str(m)),),
        lambda ps: checks.check_verdict(ps[0], suite, k, m),
    )


def _lam_arg(lam: tuple[int, ...]) -> str:
    return ",".join(map(str, lam)) or "0"


def query_op(cmd: str, k: int, lam: tuple[int, ...], r: int = 1) -> Op:
    """One CLI query; `pieri` is a ks product followed by the g one."""
    base = ("--format", "json", cmd, "--k", str(k), "--lambda", _lam_arg(lam))
    with_r = base + ("--r", str(r))
    if cmd == "bij":
        return Op(cmd, (base,), lambda ps: checks.check_bij(ps[0], k, lam))
    if cmd == "strips":
        return Op(cmd, (with_r,), lambda ps: checks.check_strips(ps[0], k, lam, r))
    if cmd == "pieri":
        return Op(
            cmd,
            (with_r + ("--basis", "ks"), with_r + ("--basis", "g")),
            lambda ps: checks.check_pieri_ks(ps[0], k, lam, r)
            or checks.check_pieri_g(ps[1], ps[0], lam, r),
        )
    if cmd == "gtilde":
        return Op(cmd, (with_r,), lambda ps: checks.check_gtilde(ps[0]))
    if cmd == "zsets":
        return Op(cmd, (base,), lambda ps: checks.check_zsets(ps[0]))
    if cmd == "table1":
        return Op(cmd, (base,), lambda ps: checks.check_table1(ps[0], k))
    raise ValueError(f"unknown query {cmd!r}")


def random_partition(rng: random.Random, k: int, size: int) -> tuple[int, ...]:
    parts = []
    while size > 0:
        p = rng.randint(1, min(k, size))
        parts.append(p)
        size -= p
    return tuple(sorted(parts, reverse=True))


@dataclass(frozen=True)
class Workload:
    name: str
    verdict: tuple[str, int, int]
    queries: Callable[[random.Random], list[Op]]


def _small_sweeps(suite: str, configs):
    def make(rng: random.Random) -> list[Op]:
        return [sweep_op(suite, k, m) for k, m in configs for _ in range(SWEEP_REPEATS)]

    return make


# cli-queries: every command at every k of its range and every size class,
# QUERIES_PER_CELL queries per cell: 216 queries in a round.  With one per
# cell, the tail (k = 8 bij, zsets and gtilde) was too few draws, and
# query_p95_ms spread by 14 % across seeds.
# Table1 stays at k <= 5: at k = 7 one query takes seconds and the fiber
# memos grow without bound.
CLI_COMMANDS = ("bij", "strips", "pieri", "gtilde", "zsets")
CLI_KS = (5, 6, 7, 8)
CLI_SIZES = (1, 3, 5, 7, 9)
TABLE1_KS = (4, 5)
TABLE1_SIZES = (1, 3, 5, 7)
QUERIES_PER_CELL = 2
# Small sweeps: each of five configurations this many times in a round (110
# queries), every one cold.  With an odd number of configurations the median
# query falls inside one configuration's group of latencies, not on the gap
# between two.
SWEEP_REPEATS = 22


def _cli_queries(rng: random.Random) -> list[Op]:
    cells = [(cmd, k, n) for cmd in CLI_COMMANDS for k in CLI_KS for n in CLI_SIZES]
    cells += [("table1", k, n) for k in TABLE1_KS for n in TABLE1_SIZES]
    return [
        query_op(cmd, k, random_partition(rng, k, n), rng.randint(1, k))
        for cmd, k, n in cells
        for _ in range(QUERIES_PER_CELL)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "order-sweep",
            ("order-props", 2, 5),
            _small_sweeps(
                "order-props", ((1, 1), (1, 2), (2, 0), (2, 1), (3, 0))
            ),
        ),
        Workload(
            "factorization-sweep",
            ("factorization", 4, 5),
            _small_sweeps(
                "factorization", ((1, 4), (1, 6), (2, 2), (2, 3), (3, 1))
            ),
        ),
        Workload("cli-queries", ("pieri-sum", 5, 6), _cli_queries),
    )
}


def session_ops(workload: str, seed: int, number: int, part: str) -> list[Op]:
    """The ops of one session of round `number`: the verdict sweep, the query
    list, or none.  Each round of a seed draws its own query list."""
    w = WORKLOADS[workload]
    if part == "setup":
        return []
    if part == "verdict":
        return [sweep_op(*w.verdict)]
    rng = random.Random(f"{workload}:{seed}:{number}")
    ops = w.queries(rng)
    rng.shuffle(ops)
    return ops
