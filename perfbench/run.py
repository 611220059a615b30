#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds `cmcp-perfbench` (`perfbench/`, a Cargo package of its own)
and the `fig9` binary from source, runs one workload for `--seconds`,
checks the outputs and prints one JSON object as the last stdout line:
`--trace 0` gives every end-to-end metric of BENCHMARK.json, `--trace 1`
every per-layer metric. perfbench/README.md explains the workloads, the
metrics and why they hold steady.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path("perfbench")
GOLDENS = BENCH_DIR / "goldens"
SCRATCH = Path(".bench_build") / "perfbench-fig9"
IN_PROCESS = ("cg.C-16-cmcp", "bt.B-56-cmcp", "lu.B-56-lru-4tier-2node")
SWEEP = "fig9-sweep"
# Share of `--seconds` the sweep workload spends in-process (its set-up
# and its bt.B point) before the timed sweeps; the traced run needs more.
SWEEP_IN_PROCESS_SHARE = {0: 0.1, 1: 0.6}
MIN_SWEEPS = {0: 3, 1: 1}
# Driver processes per in-process run; the traced run's per-layer metrics
# have no bounds.
PROCESSES = {0: 3, 1: 1}
# How long the sweep runs between two calibration samples.
SLICE_SECONDS = 0.25


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=IN_PROCESS + (SWEEP,))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    args.seed %= 2**64
    return args


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds `cmcp-perfbench` and the sweep binary; a no-op when up to date."""
    if not (Path("Cargo.toml").is_file() and Path("crates/bench/Cargo.toml").is_file()):
        die("run from the root of a full checkout: the program's sources are missing")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-p", "cmcp-bench", "--bin", "fig9"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            die(f"build failed: {' '.join(cmd)}")


def perfbench(workload, seed, seconds, trace):
    """Runs `cmcp-perfbench` and returns its JSON line."""
    cmd = [str(target_dir() / "release" / "cmcp-perfbench"), workload,
           "--seed", str(seed), "--seconds", f"{seconds:.3f}", "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=seconds * 4 + 60)
    except subprocess.TimeoutExpired:
        die(f"cmcp-perfbench timed out: {' '.join(cmd)}")
    if out.returncode != 0:
        die(f"cmcp-perfbench exited with {out.returncode}: {' '.join(cmd)}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class Ops:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted, self.failed, self.errors = 0, 0, []

    def merge(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"]

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def golden_rows():
    """The bt.B, CMCP, 56-core rows of Table 1 and Figure 7: the copy pinned
    with the benchmark, and the repository's own when the checkout has it."""
    pinned = json.loads((GOLDENS / "bt.B-56-cmcp.json").read_text())
    rows = [(pinned["table1"], pinned["fig7"], "pinned")]
    table1, fig7 = Path("results/table1.json"), Path("results/fig7.json")
    def pick(path, key, value):
        return [r for r in json.loads(path.read_text())
                if r["workload"] == "bt.B" and r["cores"] == 56 and r[key] == value]

    if table1.is_file() and fig7.is_file():
        t, f = pick(table1, "policy", "CMCP"), pick(fig7, "config", "PSPT + CMCP")
        rows.append((t[0] if t else {}, f[0] if f else {}, "results/"))
    return rows


def check_bt_goldens(outputs, ops):
    """bt.B-56-cmcp is seed-free, so its goldens apply at every seed."""
    for table1, fig7, source in golden_rows():
        ops.check(
            table1.get("page_faults") == outputs["page_faults_per_core"]
            and table1.get("remote_tlb_invalidations") == outputs["remote_invalidations_per_core"]
            and table1.get("dtlb_misses") == outputs["dtlb_misses_per_core"]
            and fig7.get("runtime_cycles") == outputs["runtime_cycles"]
            and fig7.get("runtime_ms") == outputs["virtual_runtime_ms"],
            f"bt.B 56-core CMCP report differs from the {source} Table 1 / Figure 7 golden")


def fig9_goldens():
    paths = [GOLDENS / "fig9.json", Path("results/fig9.json")]
    return [(p, p.read_bytes()) for p in paths if p.is_file()]


class Calibrator:
    """A long-lived `cmcp-perfbench calibrate` process: one host-slowdown
    sample (see `Calibration` in src/main.rs) per request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [str(target_dir() / "release" / "cmcp-perfbench"), "calibrate"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def timed_sweep(binary, work, cal):
    """Runs one sweep in `work`, pausing it every `SLICE_SECONDS` for a
    calibration sample, as the in-process workloads calibrate before every
    repetition. Returns its running seconds on the reference host state,
    its running seconds, its exit code and its rusage."""
    at_reference = running = 0.0
    slowdown = cal.sample()
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        child = subprocess.Popen([str(binary)], cwd=work, stdout=out, stderr=err)
    pidfd = os.pidfd_open(child.pid)
    try:
        while True:
            t0 = time.perf_counter()
            exited, _, _ = select.select([pidfd], [], [], SLICE_SECONDS)
            if not exited:
                os.kill(child.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(child.pid, os.WUNTRACED)
            slice_s = time.perf_counter() - t0
            running += slice_s
            at_reference += slice_s / slowdown
            if not os.WIFSTOPPED(status):
                child.returncode = os.waitstatus_to_exitcode(status)
                return at_reference, running, child.returncode, usage
            slowdown = cal.sample()
            os.kill(child.pid, signal.SIGCONT)
    finally:
        os.close(pidfd)
        if child.returncode is None:
            child.kill()
            os.kill(child.pid, signal.SIGCONT)
            child.wait()


def run_sweeps(budget, min_sweeps, ops):
    """Runs the `fig9` binary in fresh scratch directories until `budget`
    seconds have passed. Returns, per sweep, its wall seconds on the
    reference host state, peak RSS MB, CPU seconds per wall second and the
    rows it wrote."""
    binary = (target_dir() / "release" / "fig9").resolve()
    goldens = fig9_goldens()
    sweeps = []
    cal = Calibrator()
    try:
        deadline = time.perf_counter() + budget
        while len(sweeps) < min_sweeps or time.perf_counter() < deadline:
            work = SCRATCH / f"sweep{len(sweeps)}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            at_reference, running, code, usage = timed_sweep(binary, work, cal)
            produced = work / "results" / "fig9.json"
            data = produced.read_bytes() if produced.is_file() else None
            ops.check(code == 0, f"fig9 exited with {code}")
            for path, golden in goldens:
                ops.check(data == golden, f"fig9.json is not byte-identical to {path}")
            rows = json.loads(data) if data else []
            cpu = usage.ru_utime + usage.ru_stime
            sweeps.append((at_reference, usage.ru_maxrss * 1024 / 1e6, cpu / running, rows))
    finally:
        cal.close()
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return sweeps


def sweep_workload(args, ops):
    share = SWEEP_IN_PROCESS_SHARE[args.trace]
    res = perfbench(SWEEP, args.seed, args.seconds * share, args.trace)
    ops.merge(res)
    check_bt_goldens(res["outputs"], ops)
    sweeps = run_sweeps(args.seconds * (1 - share), MIN_SWEEPS[args.trace], ops)
    metrics = res["metrics"]
    walls = [s[0] for s in sweeps]
    if args.trace:
        rows = sweeps[0][3]
        # Each application's FIFO baseline plus one CMCP run per row.
        metrics["bench.sweep_runs"] = len(rows) + len({r["workload"] for r in rows})
        metrics["bench.sweep_cpu_per_wall"] = statistics.median(s[2] for s in sweeps)
    else:
        touches = res["outputs"]["sweep_touches"]
        metrics["wall_s"] = statistics.median(walls)
        metrics["accesses_per_s"] = statistics.median(touches / w for w in walls)
        metrics["peak_rss_mb"] = statistics.median(s[1] for s in sweeps)
    log(f"{len(sweeps)} sweeps, at the reference host state: "
        + ", ".join(f"{w:.3f} s" for w in walls))
    return metrics


def in_process_workload(args, ops):
    """Runs `cmcp-perfbench` in `PROCESSES[trace]` successive processes and takes
    each metric's median across them. The heap a process happens to build
    moves trace generation by up to 8% for its whole life, which the
    repetitions inside one process cannot average out."""
    results = []
    for _ in range(PROCESSES[args.trace]):
        res = perfbench(args.workload, args.seed, args.seconds / PROCESSES[args.trace], args.trace)
        ops.merge(res)
        if args.workload == "bt.B-56-cmcp":
            check_bt_goldens(res["outputs"], ops)
        results.append(res["metrics"])
    return {k: statistics.median(r[k] for r in results) for k in results[0]}


def main():
    args = parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()
    ops = Ops()
    if args.workload == SWEEP:
        metrics = sweep_workload(args, ops)
    else:
        metrics = in_process_workload(args, ops)
    for e in ops.errors:
        log(f"FAILED {e}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        die(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
