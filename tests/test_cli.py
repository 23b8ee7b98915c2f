"""Command-line surface: outputs, formats, determinism, exit codes."""

import argparse
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affineschur import cli
from affineschur.affine import BALL_CAP, ball_size
from affineschur.cli import (
    _VERIFY_SUITES,
    cmd_bij,
    cmd_gtilde,
    cmd_pieri,
    cmd_strips,
    cmd_table1,
    cmd_verify,
    cmd_zsets,
    main,
    parse_partition,
)
from affineschur.verify import ball_radii

GTILDE_GOLDEN = Path(__file__).parent / "data" / "gtilde_golden.json"
CLI_GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
README = Path(__file__).parent.parent / "README.md"

def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_parse_partition():
    assert parse_partition(3, "3,2,1").parts == (3, 2, 1)
    assert parse_partition(3, "0").parts == ()
    assert parse_partition(3, None).parts == ()
    with pytest.raises(Exception):
        parse_partition(3, "x,y")


def test_cli_import_loads_no_dataclasses_typing_argparse_csv_or_json():
    # -S: a site .pth may load typing itself, which would hide it from the check
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import affineschur.cli; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "affineschur.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}
    assert not loaded & {"argparse", "gettext", "locale", "csv", "json"}


def test_entry_path_reads_sys_argv():
    src = str(Path(cli.__file__).resolve().parents[1])

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "affineschur.cli", *argv],
                              capture_output=True, text=True, env={"PYTHONPATH": src})

    done = run()
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: affineschur ")
    assert done.stderr.splitlines()[-1].startswith("affineschur: error: ")
    for argv in (["-h"], ["bij", "-h"]):
        done = run(*argv)
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.startswith("usage: affineschur ")
    assert "--lambda" in done.stdout and "--format" not in done.stdout


def test_bij_text():
    code, out, _ = run_cli("bij", "--k", "3", "--lambda", "3,2,1")
    assert code == 0
    assert "core=5,2,1" in out and "word=203210" in out


def test_bij_json_round_trip():
    code, out, _ = run_cli("--format", "json", "bij", "--k", "3", "--lambda", "3,2,1")
    assert code == 0
    blob = json.loads(out)
    assert blob["core"]["parts"] == [5, 2, 1]
    assert blob["word"] == [2, 0, 3, 2, 1, 0]
    assert blob["rd"]["values"] == [3, 2, 1, 0]


def test_strips_output():
    code, out, _ = run_cli("strips", "--k", "3", "--lambda", "3,2,1", "--r", "1")
    assert code == 0
    weak_lines = [line for line in out.splitlines() if line.startswith("kind=weak")]
    assert len(weak_lines) == 2
    assert any("A={1}" in line for line in weak_lines)
    assert any("A={3}" in line for line in weak_lines)


def test_pieri_both_bases():
    code, out, _ = run_cli(
        "--format", "json", "pieri", "--k", "3", "--lambda", "2,1", "--r", "1",
        "--basis", "g",
    )
    assert code == 0
    terms = {
        tuple(t["parts"]): int(t["coeff"])
        for t in json.loads(out)["result"]["terms"]
    }
    assert terms == {(2, 2): 1, (2, 1, 1): 1, (2, 1): -2}
    code, out, _ = run_cli(
        "--format", "json", "pieri", "--k", "3", "--lambda", "2,1", "--r", "1",
        "--basis", "ks",
    )
    terms = {
        tuple(t["parts"]): int(t["coeff"])
        for t in json.loads(out)["result"]["terms"]
    }
    assert terms == {(2, 2): 1, (2, 1, 1): 1}


def test_gtilde_side_by_side():
    code, out, _ = run_cli("--format", "json", "gtilde", "--k", "3", "--lambda", "1", "--r", "1")
    assert code == 0
    blob = json.loads(out)
    union = {tuple(t["parts"]) for t in blob["interval_union"]["terms"]}
    assert union == {(), (1,), (2,), (1, 1)}
    ie = {tuple(t["parts"]): int(t["coeff"]) for t in blob["inclusion_exclusion"]}
    assert ie == {(2,): 1, (1, 1): 1, (1,): -1}


def test_gtilde_matches_golden_outputs():
    # --format json stdout and exit codes at k = 5..8, recorded before the
    # strong-order ideals were read off (k+1)-cores
    for case in json.loads(GTILDE_GOLDEN.read_text())["cases"]:
        code, out, _ = run_cli(*case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_every_command_matches_golden_outputs():
    # exit code, stdout and stderr of every command in json, text and csv,
    # order-props (5,0) included
    cases = json.loads(CLI_GOLDEN.read_text())["cases"]
    assert {case["argv"][1] for case in cases} == {"json", "text", "csv"}
    assert {case["argv"][2] for case in cases} == {
        "bij", "strips", "pieri", "gtilde", "table1", "zsets", "verify"
    }
    for case in cases:
        code, out, err = run_cli(*case["argv"])
        assert (code, out, err) == (
            case["exit"], case["stdout"], case["stderr"]
        ), case["argv"]


def test_table1_rows():
    code, out, _ = run_cli("--format", "json", "table1", "--k", "3", "--lambda", "2,1")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["rows"]) == 9
    signs = [row["sign"] for row in blob["rows"]]
    assert signs.count(1) == 5 and signs.count(-1) == 4
    code, out, _ = run_cli(
        "--format", "json", "table1", "--k", "3", "--word", "3,1,0", "--below", "3"
    )
    assert len(json.loads(out)["rows"]) == 3


def test_zsets_command():
    code, out, _ = run_cli("--format", "json", "zsets", "--k", "3", "--lambda", "3,2,1")
    assert code == 0
    blob = json.loads(out)
    assert [sorted(a) for a in blob["plus_grassmannian"]] == [
        [],
        [1],
        [3],
        [1, 2],
        [1, 3],
        [1, 2, 3],
    ]


def test_verify_success_and_exit_codes():
    code, out, _ = run_cli("verify", "pieri-sum", "--k", "2", "--max-size", "3")
    assert code == 0
    assert "status=ok" in out and "FAIL" not in out


def test_verify_csv_format():
    code, out, _ = run_cli(
        "--format", "csv", "verify", "factorization", "--k", "2", "--max-size", "2"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "check,instances,status"


def test_csv_with_ragged_rows():
    # weak rows carry no sign column; set-valued rows do
    code, out, _ = run_cli(
        "--format", "csv", "strips", "--k", "3", "--lambda", "3,2,1", "--r", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,A,top,sign"
    assert any(line.startswith("weak") and line.endswith(",") for line in lines[1:])
    assert any("+1" in line or "-1" in line for line in lines[1:])


def test_invalid_config_exits_2():
    code, _, err = run_cli("bij", "--k", "9", "--lambda", "1")
    assert code == 2 and "k" in err
    code, _, err = run_cli("verify", "pieri-sum", "--k", "2", "--max-size", "13")
    assert code == 2
    code, _, err = run_cli("strips", "--k", "3", "--lambda", "3,2,1", "--r", "4")
    assert code == 2
    code, _, err = run_cli("bij", "--k", "3", "--lambda", "5,1")
    assert code == 2
    for command in ("table1", "zsets"):
        code, _, err = run_cli(command, "--k", "3", "--word", "9")
        assert code == 2 and "0..3" in err


def test_oversize_ball_exits_2_before_any_work(monkeypatch):
    def never(k, max_size):
        raise AssertionError("the sweep must not start")

    monkeypatch.setattr(cli, "verify_order_props", never)
    start = time.perf_counter()
    code, out, err = run_cli("verify", "order-props", "--k", "8", "--max-size", "12")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "1,302,499" in err
    # k = 8 runs order-props only up to max-size 4 (strip ball(8, 14))
    code, _, err = run_cli("verify", "order-props", "--k", "8", "--max-size", "5")
    assert code == 2 and "ball(k=8, L=15)" in err
    assert cli.check_ball_sizes("order-props", 8, 4) is None


json_strings = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600ab')
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | json_strings
)
json_rows = (
    st.lists(st.integers(-2, 2))
    | st.lists(json_strings, max_size=3)
    | st.lists(st.booleans() | st.integers(-2, 2) | st.none(), max_size=3)
)
json_payloads = st.recursive(
    json_scalars
    | st.lists(st.booleans() | st.integers(-2, 2))
    | st.lists(json_strings)
    | st.lists(json_rows, max_size=4),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(json_strings, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_payloads)
@example([[0, 1], [], [2]])
@example([[], []])
@example([[1, "a"], [True], []])
@example([["a"], [1]])
@example([[]])
@example([[-1, 0], []])
@example([["a", "b"], [], ["c"]])
@example({"u": {"plus": [[], [0], [-3, 10**30]], "minus": [[1], []]}, "k": 8})
@example([[r for r in range(9) if i >> r & 1] for i in range(400)])
def test_json_writer_matches_stdlib(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "payload",
    [
        1.5,
        {"a": [1, 2.0]},
        {"a": {1, 2}},
        [(1, 2)],
        {1: "a"},
        {"a": {"b": b"x"}},
        [[1.5]],
        [[(1, 2)]],
        [[0, 1], [1.5]],
        [[0], [(1, 2)]],
    ],
)
def test_json_writer_rejects_other_types(payload):
    with pytest.raises(TypeError):
        cli._json_text(payload)


def test_unsupported_payload_value_exits_3(monkeypatch):
    class Result:
        name, instances, ok = "ratio", 1, True

        def as_dict(self):
            return {"ratio": 0.5}

    monkeypatch.setattr(cli, "verify_pieri_sum", lambda k, max_size: [Result()])
    args = ("--format", "json", "verify", "pieri-sum", "--k", "2", "--max-size", "3")
    code, out, err = run_cli(*args)
    assert code == 3 and out == ""
    assert err == "internal error: TypeError: Object of type float is not JSON serializable\n"


def test_internal_error_exits_3(monkeypatch):
    def broken(k, max_size):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "verify_pieri_sum", broken)
    code, out, err = run_cli("verify", "pieri-sum", "--k", "2", "--max-size", "3")
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: broken invariant\n"


def test_byte_identical_output():
    args = ("--format", "json", "gtilde", "--k", "2", "--lambda", "2,1", "--r", "2")
    _, first, _ = run_cli(*args)
    _, second, _ = run_cli(*args)
    assert first == second


def test_jobs_flag_is_rejected():
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(["--jobs", "2", "verify", "pieri-sum", "--k", "2", "--max-size", "3"])
    assert exc.value.code == 2


# The argparse grammar of the CLI before it read argv from `cli.COMMANDS`,
# kept verbatim as the oracle of `cli.parse_args`.
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


ORACLE = build_parser()


def outcome(parse, argv):
    """The namespace `parse` makes of argv, as a dict, or the code it exits with."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["bij", "--k", "3"], "ok"),
        (["bij", "--k=3", "--lambda=3,2,1"], "ok"),
        (["--f", "csv", "bij", "--l", "2", "--k", "3"], "ok"),  # unique prefixes
        (["--fo=json", "pieri", "--ba=ks", "--k", "3"], "ok"),
        (["--format", "json", "--format", "csv", "bij", "--k", "2", "--k", "3"], "ok"),
        (["strips", "--k", "-1", "--r", "-2", "--lambda", "-1"], "ok"),  # negative values
        (["verify", "--max-size", "3", "fibers", "--k", "2"], "ok"),
        (["verify", "--k", "2", "--", "fibers"], "ok"),
        (["bij", "--=3", "--k", "3"], 2),  # a prefix of every long option
        (["bij", "--bogus", "--k", "3"], 2),
        (["bij", "--r", "1", "--k", "3"], 2),  # another command's option
        (["bij", "--k", "3", "--format", "json"], 2),  # --format after the command
        (["--format", "xml", "bij", "--k", "3"], 2),
        (["pieri", "--k", "3", "--basis", "h"], 2),
        (["verify", "sweep", "--k", "2"], 2),
        (["bij", "--k", "three"], 2),
        (["bij", "--k", "1.5"], 2),
        (["bij", "--k"], 2),
        (["bij", "--k", "--lambda", "1"], 2),
        (["bij", "--lambda", "1"], 2),
        (["verify", "--k", "2"], 2),
        ([], 2),
        (["verify", "fibers", "fibers", "--k", "2"], 2),
        (["verify", "fibers", "--k", "2", "--"], 2),
        (["--", "bij", "--k", "3"], 2),
        (["-h"], 0),
        (["--help", "bij"], 0),
        (["--he"], 0),
        (["bij", "-h"], 0),
        (["verify", "--k", "x", "-h"], 2),  # an error before the help
        (["verify", "--bogus", "-hh"], 0),  # an unknown option is reported last
        (["bij", "-hx"], 2),
        (["bij", "--help=1"], 2),
        (["-h", "bij", "--=1"], 2),  # every token is read before any is taken
    ],
)
def test_parse_args_matches_argparse_on_named_cases(argv, expected):
    got = outcome(ORACLE.parse_args, argv)
    assert (expected if isinstance(got, int) else "ok") == expected
    assert outcome(cli.parse_args, argv) == got


def _option_tokens(flag, values):
    """`flag` or a unique prefix of it, with a value from `values`, as one
    `--opt=value` token or two."""
    spelling = st.sampled_from([flag[:end] for end in range(3, len(flag) + 1)])
    return st.tuples(spelling, values, st.booleans()).map(
        lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]]
    )


def _values(spec):
    _, kind, choices, _, _ = spec
    if choices:
        return st.sampled_from([*choices, "bad"])
    if kind is int:
        return st.integers(-3, 9).map(str) | st.sampled_from(["x", "1.5", "", " 2", "+3", "1_0"])
    return st.sampled_from(["3,2,1", "2,1", "0", "", "-1", "-x", "-h", "1 2"])


FORMATS = _option_tokens("--format", st.sampled_from(["text", "json", "csv", "xml"]))
# each command's options, as strategies for the tokens that give one
OPTION_TOKENS = {
    command: [(flag, _option_tokens(flag, _values(spec))) for flag, spec in options.items()]
    for command, (_, _, options, _) in cli.COMMANDS.items()
}
NOISE = st.sampled_from(
    ["--", "-", "", "-h", "--help", "-hh", "-hx", "--=1", "--bogus", "-x", "-1", "-.5",
     "-1.", "-1\n", "- x", "--k", "--r=1", "--format", "json", "pieri-sum", "bij"]
) | st.text(max_size=3)


@st.composite
def command_lines(draw):
    """argv of the CLI's shape, some of it wrong: --format options, a command,
    its options and positional in any order, and a few stray tokens."""
    argv = [token for _ in range(draw(st.integers(0, 2))) for token in draw(FORMATS)]
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    pieces = [
        draw(tokens)
        for flag, tokens in OPTION_TOKENS[command]
        for _ in range(draw(st.sampled_from([0, 1, 1, 2] if flag == "--k" else [0, 1, 2])))
    ]
    positional = cli.COMMANDS[command][3]
    if positional:
        pieces.append([draw(st.sampled_from([*positional[1], "bad"]))])
    argv.append(command)
    argv += [token for piece in draw(st.permutations(pieces)) for token in piece]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(NOISE))
    return argv


@settings(max_examples=250, deadline=None)
@given(command_lines())
def test_parse_args_matches_argparse(argv):
    assert outcome(cli.parse_args, argv) == outcome(ORACLE.parse_args, argv)


def test_json_reports_the_max_size_that_ran():
    code, out, _ = run_cli("--format", "json", "verify", "factorization", "--k", "2")
    assert code == 0 and json.loads(out)["max_size"] == 4
    code, out, _ = run_cli(
        "--format", "json", "verify", "factorization", "--k", "2", "--max-size", "3"
    )
    assert code == 0 and json.loads(out)["max_size"] == 3


def test_readme_range_table_matches_ball_radii():
    rows = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = (cells[1], cells[2])
    assert sorted(rows) == sorted(cli._VERIFY_SUITES)

    def admitted(suite, k):
        sizes = [
            m
            for m in range(cli.MAX_SIZE + 1)
            if all(ball_size(k, r) <= BALL_CAP for r in ball_radii(suite, k, m))
        ]
        assert sizes == list(range(len(sizes))), (suite, k)
        return f"max-size 0..{sizes[-1]}"

    for suite, (low_k, top_k) in rows.items():
        assert {admitted(suite, k) for k in range(1, cli.MAX_K)} == {low_k}, suite
        assert admitted(suite, cli.MAX_K) == top_k, suite
