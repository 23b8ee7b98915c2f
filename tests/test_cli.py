"""Command-line surface: outputs, formats, determinism, exit codes."""

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
from affineschur.cli import main, parse_partition
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


def test_cli_import_loads_no_dataclasses_or_typing():
    # -S: a site .pth may load typing itself, which would hide it from the check
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import affineschur.cli; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "affineschur.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


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
