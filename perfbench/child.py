"""The measured process: one fresh interpreter runs one round of ops.

Usage: python3 perfbench/child.py ROUND_DIR [--trace]
       python3 perfbench/child.py --probe

It imports `degseq.cli`, calls `build_parser()` and prints "ready"; the
parent's clock from spawn to that line is the set-up time. `--probe` exits
there. Otherwise it reads ROUND_DIR/ops.json, runs every op with its stdout
captured, writes each output to ROUND_DIR/<id>.out and the timings to
ROUND_DIR/result.json. Only degseq and the standard library are imported,
so the checker's dependencies inflate neither set-up time nor peak memory.
"""

import sys

import degseq.cli

degseq.cli.build_parser()
print("ready", flush=True)
if sys.argv[1] == "--probe":
    sys.exit(0)

import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import time  # noqa: E402

from degseq import graphs, maximal, realizability  # noqa: E402


def peak_rss_kb() -> int:
    """High-water resident set of this process image, in KiB.

    `ru_maxrss` is not used: Linux carries the parent's high-water mark
    across fork and exec, so it would report the harness's own size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_op(op: dict, start_graphs: dict) -> tuple[float, float, int, str]:
    """Run one op; return wall seconds, CPU seconds, exit code and output."""
    kind = op["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        real_out, real_err = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            code = degseq.cli.main(op["argv"])
            w1, c1 = time.perf_counter(), time.process_time()
        finally:
            sys.stdout, sys.stderr = real_out, real_err
        return w1 - w0, c1 - c0, code, out.getvalue()
    if kind == "via_domination":
        g0 = start_graphs[op["id"]]
        w0, c0 = time.perf_counter(), time.process_time()
        g = realizability.realize_via_domination(op["x"], g0)
        w1, c1 = time.perf_counter(), time.process_time()
        return w1 - w0, c1 - c0, 0, json.dumps({"n": g.n, "edges": sorted(g.edges)})
    if kind == "poset_query":
        w0, c0 = time.perf_counter(), time.process_time()
        answer = maximal.is_c_graphical_poset(op["x"], op["oracle"])
        w1, c1 = time.perf_counter(), time.process_time()
        return w1 - w0, c1 - c0, 0, json.dumps({"c_graphical": answer})
    raise ValueError(f"unknown op kind {kind!r}")


def main() -> None:
    round_dir = sys.argv[1]
    traced = "--trace" in sys.argv[2:]
    with open(os.path.join(round_dir, "ops.json")) as fh:
        ops = json.load(fh)
    # built before tracing starts, so the trace holds only the ops' own work
    start_graphs = {
        op["id"]: graphs.SimpleGraph.from_edges(op["n"], [tuple(e) for e in op["edges"]])
        for op in ops
        if op["kind"] == "via_domination"
    }
    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing as tracing_mod

        tracer = tracing_mod.Tracer()
        tracer.install()
    records = []
    stdout_bytes = 0
    for op in ops:
        gc.collect()
        try:
            wall, cpu, code, text = run_op(op, start_graphs)
            error = None
        except Exception as exc:  # recorded and judged by the checker
            wall = cpu = 0.0
            code, text, error = -1, "", f"{type(exc).__name__}: {exc}"
        data = text.encode()
        if op["kind"] == "cli":
            stdout_bytes += len(data)
        with open(os.path.join(round_dir, op["id"] + ".out"), "wb") as fh:
            fh.write(data)
        records.append(
            {
                "id": op["id"],
                "wall_s": wall,
                "cpu_s": cpu,
                "code": code,
                "error": error,
                "sha1": hashlib.sha1(data).hexdigest(),
            }
        )
    result = {
        "ops": records,
        "peak_rss_kb": peak_rss_kb(),
        "stdout_bytes": stdout_bytes,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(os.path.join(round_dir, "spans"))
    with open(os.path.join(round_dir, "result.json"), "w") as fh:
        json.dump(result, fh)


main()
