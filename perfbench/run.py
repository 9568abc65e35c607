"""degseq benchmark: seeded workloads, every output checked, one JSON result.

    python3 perfbench/run.py --workload decide|realize|poset --seed N \
        --seconds S --trace 0|1

Run from the repository root. Each round is one fresh measured process
(perfbench/child.py) that imports only degseq and the standard library and
runs the workload's whole op list (at least MIN_OPS ops) in a seeded
order. Rounds repeat until --seconds have passed, and at least MIN_ROUNDS
times. After each
round this process checks every output with perfbench/check.py, which uses
networkx and its own code, never degseq's.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics of the traced ones, plus
the tracing overhead. The last stdout line is the result object; the lines
before it give every metric with its unit and a record of the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # distinct ops per round: op_p90_ms needs ten ops beyond it
MIN_ROUNDS = 4  # an op's upper quartile needs a few rounds
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 120

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a measured process; return it and its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _, err = finish(proc)
        raise RuntimeError(f"measured process failed before it was ready:\n{err}")
    return proc, setup


def finish(proc: subprocess.Popen) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_times(rounds: list[dict], key: str) -> list[float]:
    """Each op's time in a run: its upper quartile over the run's rounds.

    The host alternates between two speeds about 2x apart, for seconds at
    a time, and spends most of the time in the slower one. An op's upper
    quartile stays on that level. Its median, the median of whole-round
    sums and percentiles over single executions jump between the levels
    when a run happens to catch a long fast spell.
    """
    ids = rounds[0][key].keys()
    return [percentile([r[key][op_id] for r in rounds], 0.75) for op_id in ids]


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def build_ops(workload: str, seed: int) -> list[dict]:
    if workload == "decide":
        return workloads.decide_ops(seed, check.eg_graphical)
    if workload == "realize":
        return workloads.realize_ops(seed)
    return workloads.poset_ops(seed, check.candidates)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.dir = os.path.join(WORK, self.tag)
        self.ops = build_ops(workload, seed)
        self.meta = {op["id"]: op["meta"] for op in self.ops}
        self.verified: dict[str, str] = {}
        self.failures: list[dict] = []
        self.setups: list[float] = []
        self.rounds: list[dict] = []

    def run_round(self, round_no: int, traced: bool) -> None:
        rdir = os.path.join(self.dir, f"round{round_no}")
        os.makedirs(rdir)
        order = workloads.round_order(self.ops, self.seed, round_no)
        with open(os.path.join(rdir, "ops.json"), "w") as fh:
            json.dump([{k: v for k, v in op.items() if k != "meta"} for op in order], fh)
        proc, setup = spawn([rdir] + (["--trace"] if traced else []))
        _, err = finish(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"measured process exited with {proc.returncode}:\n{err}")
        self.setups.append(setup)
        with open(os.path.join(rdir, "result.json")) as fh:
            result = json.load(fh)
        for rec in result["ops"]:
            self._check(rdir, rec)
        if traced:
            for suffix in (".json", ".bin"):
                os.replace(os.path.join(rdir, "spans" + suffix),
                           os.path.join(self.dir, "spans" + suffix))
        shutil.rmtree(rdir)
        self.rounds.append(
            {
                "traced": traced,
                "wall_s": {rec["id"]: rec["wall_s"] for rec in result["ops"]},
                "cpu_s": {rec["id"]: rec["cpu_s"] for rec in result["ops"]},
                "peak_rss_mb": result["peak_rss_kb"] / 1024,
                "stdout_mb": result["stdout_bytes"] / 2**20,
                "layers": result.get("layers"),
            }
        )

    def _check(self, rdir: str, rec: dict) -> None:
        op_id = rec["id"]
        if rec["error"] is None and self.verified.get(op_id) == rec["sha1"]:
            return  # byte-identical to an output that already passed
        path = os.path.join(rdir, op_id + ".out")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        problem = check.check_op(self.meta[op_id], rec["code"], text, rec["error"])
        if problem is None:
            self.verified[op_id] = rec["sha1"]
            return
        # the known fault: an uncertifiable sequence reported as graphical
        known = bool(self.meta[op_id].get("known_fault")) and problem.startswith(
            "verdict graphical=True"
        )
        self.failures.append({"id": op_id, "reason": problem, "known_fault": known})

    def execute(self) -> None:
        os.makedirs(self.dir)
        for _ in range(SETUP_PROBES):
            proc, setup = spawn(["--probe"])
            finish(proc)
            if proc.returncode != 0:
                raise RuntimeError("set-up probe failed")
            self.setups.append(setup)
        if len(self.ops) < MIN_OPS:
            raise RuntimeError(f"{len(self.ops)} ops per round; op_p90_ms needs {MIN_OPS}")
        start = time.perf_counter()
        durations: list[float] = []
        round_no = 0
        while True:
            elapsed = time.perf_counter() - start
            if round_no >= MIN_ROUNDS and elapsed + statistics.median(durations) > self.seconds:
                break
            t0 = time.perf_counter()
            self.run_round(round_no, traced=self.trace and round_no % 2 == 1)
            durations.append(time.perf_counter() - t0)
            round_no += 1

    def end_to_end(self) -> dict[str, float]:
        plain = [r for r in self.rounds if not r["traced"]]
        walls = op_times(plain, "wall_s")
        return {
            "setup_s": statistics.median(self.setups),
            "run_s": sum(walls),
            "cpu_s": sum(op_times(plain, "cpu_s")),
            "op_p50_ms": 1000 * percentile(walls, 0.5),
            "op_p90_ms": 1000 * percentile(walls, 0.9),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        """Median self times over traced rounds; counts must agree exactly."""
        traced = [r for r in self.rounds if r["traced"]]
        problems = []
        out: dict[str, float] = {}
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                continue
            if name == "cli.stdout_mb":
                values = [r["stdout_mb"] for r in traced]
            else:
                values = [r["layers"][name] for r in traced]
            if unit == "s":
                out[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced rounds: {values}")
                out[name] = values[0]
        plain = [r for r in self.rounds if not r["traced"]]
        out["trace.overhead_s"] = sum(op_times(traced, "wall_s")) - sum(op_times(plain, "wall_s"))
        return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("decide", "realize", "poset"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "degseq", "cli.py")):
        print(f"error: no degseq source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if os.path.isdir(run.dir):
        shutil.rmtree(run.dir)
    run.execute()

    problems = [f"{f['id']}: {f['reason']}" for f in run.failures if not f["known_fault"]]
    if args.trace:
        values, count_problems = run.per_layer()
        problems += count_problems
        units = dict(tracing.PER_LAYER)
    else:
        values = run.end_to_end()
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    attempted = len(run.ops) * len(run.rounds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_lines": src_lines(),
        "rounds": len(run.rounds),
        "ops_per_round": len(run.ops),
        "attempted": attempted,
        "failed": len(run.failures),
        "failures": sorted({f"{f['id']}: {f['reason']}" for f in run.failures}),
        "setup_samples_s": run.setups,
        "round_run_s": [sum(r["wall_s"].values()) for r in run.rounds],
        "traced_rounds": [r["traced"] for r in run.rounds],
        "spans_per_traced_round": [r["layers"]["trace.spans"] for r in run.rounds if r["traced"]],
        "metrics": metrics,
        "op_wall_s": [r["wall_s"] for r in run.rounds],
        "op_cpu_s": [r["cpu_s"] for r in run.rounds],
    }
    with open(os.path.join(run.dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"degseq benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"ops attempted={attempted} failed={len(run.failures)} rounds={len(run.rounds)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("record: " + json.dumps({k: v for k, v in record.items()
                                   if k not in ("metrics", "op_wall_s", "op_cpu_s")}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(run.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
