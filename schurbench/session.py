"""One session of a workload, in a fresh interpreter started by run.py.

Usage: python3 -I session.py '<json spec>'

The spec names the workload, seed, round, part ("verdict", "queries", or
"setup", which runs nothing) and whether to trace.  The last line of
standard output is a JSON object with the moment affineschur was ready
(time.monotonic), each op's latency and outcome, and the session's peak RSS.

An untraced session runs a fixed reference task (pace.py) alongside its ops
and reports each op's latency at the reference speed as well as measured.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import affineschur.cli  # noqa: E402  (the set-up being timed)

READY = time.monotonic()

sys.path.insert(0, str(BENCH))

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import pace  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, PACKAGE  # noqa: E402

# Memo tables the package keeps in module dicts rather than in lru_caches.
MODULE_TABLES = (("symfunc", "_G2H_TABLES"), ("symfunc", "_KS2H_TABLES"))


def _find_memos() -> list:
    """Every lru_cache of the package modules, before any tracer wraps them."""
    found = {}
    for layer in LAYERS:
        for value in vars(importlib.import_module(f"{PACKAGE}.{layer}")).values():
            if hasattr(value, "cache_clear"):
                found[id(value)] = value
    return list(found.values())


MEMOS = _find_memos()


def reset_memos(before=None) -> None:
    """Empty every memo, so that the next call starts as cold as a new CLI process.

    `before` runs first; the tracer uses it to fold the memo counters that
    cache_clear() resets.
    """
    if before is not None:
        before()
    for fn in MEMOS:
        fn.cache_clear()
    for layer, name in MODULE_TABLES:
        getattr(importlib.import_module(f"{PACKAGE}.{layer}"), name).clear()


def _result(op, latency: float, span: tuple[float, float], reason: str | None,
            wrong: bool) -> dict:
    return {"kind": op.kind, "latency_s": latency, "span": span, "ok": reason is None,
            "wrong": wrong, "reason": reason}


def run_op(op, corrupt=None, before_reset=None, pacer=None) -> dict:
    """Time one query, call by call, then check its output.

    Memos are emptied before each call, outside the timed region.  A call is
    timed from `cli.main` until its JSON is parsed, less the reference chunks
    a `pacer` ran meanwhile; the query's latency is the sum over its calls.
    Parsed output is checked whatever the exit code: an op whose output fails
    the check is failed and `wrong`.  One that raises, prints no JSON, or
    exits nonzero with output that passes is failed only.  `corrupt` alters
    the parsed payloads before the check, for the harness self-check.
    """
    clock = pacer.clock if pacer else time.perf_counter
    payloads, exits, latency = [], [], 0.0
    first = None
    for argv in op.calls:
        reset_memos(before_reset)
        out, err = io.StringIO(), io.StringIO()
        first = time.perf_counter() if first is None else first
        armed = pacer.armed() if pacer else contextlib.nullcontext()
        start = clock()
        try:
            with armed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = affineschur.cli.main(list(argv))
            payload = json.loads(out.getvalue())
        except (Exception, SystemExit) as exc:
            latency += clock() - start
            span = (first, time.perf_counter())
            return _result(op, latency, span, f"{type(exc).__name__}: {exc}", False)
        latency += clock() - start
        payloads.append(payload)
        exits.append((code, err.getvalue().strip()[:200]))
    span = (first, time.perf_counter())
    if corrupt is not None:
        payloads = corrupt(op.kind, payloads)
    try:
        reason = op.check(payloads)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        reason = f"malformed output: {type(exc).__name__}: {exc}"
    if reason is not None:
        return _result(op, latency, span, reason, True)
    for code, err in exits:
        if code != 0:
            return _result(op, latency, span, f"exit {code}: {err}", False)
    return _result(op, latency, span, None, False)


def run_ops(ops, corrupt=None, before_reset=None, pacer=None) -> list[dict]:
    """Run the ops in order; with a `pacer`, run the reference task alongside
    and rescale each op's latency to the reference speed."""
    if pacer is None:
        return [run_op(op, corrupt, before_reset) for op in ops]
    pacer.start()
    results = []
    try:
        for op in ops:
            results.append(run_op(op, corrupt, before_reset, pacer))
            pacer.keep_up(results[-1]["latency_s"])
    finally:
        pacer.stop()
    for result in results:
        result["measured_s"] = result["latency_s"]
        result["latency_s"] = pacer.rescale(result["latency_s"], *result["span"])
    return results


def main() -> None:
    spec = json.loads(sys.argv[1])
    ops = workloads.session_ops(spec["workload"], spec["seed"], spec["round"], spec["part"])
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    pacer = None if tracer or not ops else pace.Pacer()
    results = run_ops(ops, before_reset=tracer.fold_memos if tracer else None, pacer=pacer)
    report = {
        "ready": READY,
        "ops": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
