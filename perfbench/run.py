#!/usr/bin/env python3
"""End-to-end replay benchmark for ethshard.

For each workload the benchmark
  1. generates the input trace from --seed with `ethshard generate`
     (the set-up, timed as setup_s),
  2. replays it with the unmodified `ethshard simulate` CLI as a child
     process, one run at a time (a closed loop with one client), reading
     wall time, CPU time and peak RSS from the child's wait4 rusage and
     checking every run's outputs, and
  3. replays it once more in the tracer (tracer/traced_replay.cpp),
     which calls the same library entry points through pass-through
     timers and splits the time by layer.

Only the generated trace reaches `simulate`, never the seed. End-to-end
metrics come only from the untraced runs. Usage, from the repository root:

    python3 perfbench/run.py --workload trace_hashing --seed 1234 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 1

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. RATIONALE.md says why each workload and
metric exists.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SHARDS = 8
DEFAULT_SEED = 1234


@dataclass(frozen=True)
class Workload:
    scale: float
    method: str
    stream: bool


# Why each workload exists: RATIONALE.md and BENCHMARK.json.
WORKLOADS = {
    "trace_hashing": Workload(0.01, "Hashing", stream=False),
    "stream_rmetis": Workload(0.01, "R-METIS", stream=True),
    "trace_metis": Workload(0.001, "METIS", stream=False),
}

# sha256 of the checked outputs (see output_digest) at DEFAULT_SEED and
# each workload's own scale. For any other seed or scale the traced run's
# outputs are the reference.
PINNED_DIGESTS = {
    "trace_hashing":
        "81c6aa812fcf7f0fca595d18209f5c3663501d17158637eb2b81eb9b39ddb6a1",
    "stream_rmetis":
        "188813a2df9eb5c3c01bca6aabd0c5e00405da55f4402dcf6afb320045d90c8f",
    "trace_metis":
        "8ee0b24d3291a1198f2743f7873cd03d2eac313e4d2d937f3ff1b65c2440851f",
}

SETUP_REPS = 3        # minimum set-ups per workload; setup_s is their median
SETUP_MIN_S = 2.0     # whole rounds over the CPUs until this much set-up
MIN_RUNS = 3          # measured runs per workload, even past --seconds
RUN_TIMEOUT_S = 60.0  # one child process
DEADLINE_S = 170.0    # per workload, from the end of the build
MIN_COVERAGE_PCT = 95.0

E2E_UNITS = {"wall_s": "s", "calls_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_s": "s"}
# How one workload's samples become its end-to-end value. Replay times are
# the best of the run's timed replays: a replay is deterministic, and on a
# shared host contention only ever adds time, in stretches of 5-25 s that
# can cover most of a run and move its median by 20-50% (RATIONALE.md).
# The median, quartiles and sample count are printed beside the value.
E2E_STAT = {"wall_s": min, "calls_per_s": max,
            "peak_rss_mb": statistics.median, "setup_s": statistics.median}
LAYER_UNITS = {
    "workload.ingest_ms": "ms", "workload.blocks": "count",
    "workload.calls": "count", "workload.rss_mb": "MB",
    "core.replay_ms": "ms", "core.place_ms": "ms",
    "core.placements": "count", "core.window_ms_p50": "ms",
    "core.window_ms_p99": "ms", "core.windows": "count",
    "core.rss_growth_mb": "MB", "core.teardown_ms": "ms",
    "core.output_ms": "ms", "partition.compute_ms": "ms",
    "partition.compute_ms_max": "ms", "partition.repartitions": "count",
    "partition.moves": "count", "graph.snapshots": "count",
    "cli.cpu_s": "s", "trace.overhead_pct": "%",
}
# Printed and saved with the results, but not in the JSON line: they are
# structurally zero on some workloads (no snapshot is ever taken for
# Hashing) or describe the benchmark itself.
EXTRA_UNITS = {
    "graph.cumulative_snapshot_ms": "ms", "graph.window_snapshot_ms": "ms",
    "workload.release_ms": "ms", "trace.coverage_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program source, build failed)."""


# ---------------------------------------------------------------------------
# Statistics


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def resolvable(values: list[float], q: float) -> bool:
    """A percentile is reported only when at least ten samples lie beyond
    it (above it for q >= 0.5, below it otherwise)."""
    if not values:
        return False
    v = quantile(values, q)
    beyond = sum(1 for x in values if (x > v if q >= 0.5 else x < v))
    return beyond >= 10


def describe(values: list[float]) -> str:
    """Median, quartiles and the highest upper percentile that are
    resolvable, and the sample count."""
    parts = [f"median {statistics.median(values):.6g}"]
    if resolvable(values, 0.25) and resolvable(values, 0.75):
        parts.append(f"q1 {quantile(values, 0.25):.6g} "
                     f"q3 {quantile(values, 0.75):.6g}")
    for q in (0.999, 0.99, 0.9):
        if resolvable(values, q):
            parts.append(f"p{q * 100:g} {quantile(values, q):.6g}")
            break
    parts.append(f"n={len(values)}")
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# Spans


def self_time_ms(span: dict, children: list[dict]) -> float:
    """The span's duration minus the part of it its children cover. A
    child that only partly overlaps its parent counts only inside it."""
    start, end = span["start_ms"], span["end_ms"]
    pieces = sorted((max(c["start_ms"], start), min(c["end_ms"], end))
                    for c in children)
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in pieces:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def layer_metrics(trace: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced run (the spans file the tracer
    writes). cli.cpu_s and trace.overhead_pct come from the CLI runs."""
    spans = trace["spans"]
    agg = trace["aggregates"]
    pulls, place = agg["workload.pull"], agg["core.place"]
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def self_ms(s: dict) -> float:
        return self_time_ms(s, children.get(s["id"], []))

    def total(name: str, self_only: bool = False) -> float:
        return sum(self_ms(s) if self_only else s["end_ms"] - s["start_ms"]
                   for s in spans if s["name"] == name)

    hooks = [(self_ms(s), s) for s in spans
             if s["name"] in ("partition.should_repartition",
                              "partition.compute_partition")]
    slowest_ms, slowest = max(hooks, key=lambda h: h[0],
                              default=(0.0, None))
    windows = trace["windows_ms"]
    p99_ok = resolvable(windows, 0.99)
    top = sum(s["end_ms"] - s["start_ms"] for s in spans
              if s["parent"] == -1)
    snapshots = [s for s in spans if s["name"].startswith("graph.")]
    m = {
        "workload.ingest_ms": total("workload.read_trace", True)
        + total("workload.open_source", True) + pulls["ms"]
        + pulls["offthread_ms"],
        "workload.blocks": trace["blocks"],
        "workload.calls": trace["calls"],
        "workload.rss_mb": trace["rss_after_ingest_mb"],
        "core.replay_ms": total("core.run", True) - pulls["ms"]
        - place["ms"],
        "core.place_ms": place["ms"] + place["offthread_ms"],
        "core.placements": place["count"] + place["offthread_count"],
        "core.window_ms_p50": quantile(windows, 0.5) if windows else 0.0,
        "core.window_ms_p99": (quantile(windows, 0.99) if p99_ok
                               else max(windows, default=0.0)),
        "core.windows": len(windows),
        "core.rss_growth_mb": trace["rss_end_of_run_mb"]
        - trace["rss_after_ingest_mb"],
        "core.teardown_ms": total("core.teardown"),
        "core.output_ms": total("core.output"),
        "partition.compute_ms": sum(h[0] for h in hooks),
        "partition.compute_ms_max": slowest_ms,
        "partition.repartitions": trace["repartitions"],
        "partition.moves": trace["moves"],
        "graph.snapshots": len(snapshots),
        "graph.cumulative_snapshot_ms": total("graph.cumulative_snapshot"),
        "graph.window_snapshot_ms": total("graph.window_snapshot"),
        "workload.release_ms": total("workload.release"),
        "trace.coverage_pct": 100.0 * top / trace["end_ms"],
    }
    notes = {}
    if not p99_ok:
        notes["core.window_ms_p99"] = (
            f"only {len(windows)} windows, too few for p99; value is the "
            "maximum")
    if slowest is not None:
        notes["partition.compute_ms_max"] = (
            f"{slowest['name']} in window {slowest['window']}, "
            f"span {slowest['id']}")
    return m, notes


# ---------------------------------------------------------------------------
# Output check


def checked_stdout(stdout: bytes) -> bytes:
    """The run summary minus its peak-RSS line, which is a measurement."""
    return b"".join(line for line in stdout.splitlines(keepends=True)
                    if not line.startswith(b"peak rss mb"))


def without_column(csv: bytes, column: bytes) -> bytes:
    """A CSV with one named column removed (the wall-clock compute_ms of
    the repartition events)."""
    lines = csv.splitlines(keepends=True)
    if not lines:
        return csv
    header = lines[0].rstrip(b"\r\n").split(b",")
    if column not in header:
        return csv
    i = header.index(column)
    out = []
    for line in lines:
        body = line.rstrip(b"\r\n")
        fields = body.split(b",")
        del fields[i:i + 1]
        out.append(b",".join(fields) + line[len(body):])
    return b"".join(out)


def output_digest(stdout: bytes, windows: bytes, events: bytes) -> str:
    """Digest of everything a run's correctness is judged on."""
    h = hashlib.sha256()
    for part in (checked_stdout(stdout), windows,
                 without_column(events, b"compute_ms")):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


@dataclass
class Run:
    """One child process."""
    rc: int | None = None  # None: killed at its timeout
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    digest: str = ""
    windows_digest: str = ""


def run_failed(run: Run, reference: str) -> bool:
    return run.rc != 0 or run.digest != reference


# ---------------------------------------------------------------------------
# Processes


def run_child(argv: list[str], cwd: Path, timeout_s: float,
              cpu: int | None = None) -> Run:
    """Runs argv in cwd with stdout and stderr to files there, on one CPU
    if `cpu` is given; times it from spawn to exit and reads its rusage.
    Kills it at timeout_s."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=pin)
        lock = threading.Lock()
        exited = False

        def kill() -> None:
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout_s, 0.0), kill)
        timer.start()
        # Wait without reaping: the pid stays valid until the flag is set,
        # so the timer can never signal a recycled pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            exited = True
        timer.cancel()
        timer.join()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    return Run(rc=None if killed else proc.returncode, wall_s=wall,
               cpu_s=ru.ru_utime + ru.ru_stime,
               peak_rss_mb=ru.ru_maxrss / 1024.0)


def collect_outputs(run: Run, cwd: Path) -> Run:
    def read(name: str) -> bytes:
        path = cwd / name
        return path.read_bytes() if path.exists() else b""

    windows = read("windows.csv")
    run.windows_digest = hashlib.sha256(windows).hexdigest()
    run.digest = output_digest(read("stdout.txt"), windows,
                               read("events.csv"))
    for name in ("windows.csv", "events.csv"):
        (cwd / name).unlink(missing_ok=True)
    return run


# ---------------------------------------------------------------------------
# Build


def target_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build(out: Path) -> tuple[Path, Path]:
    """Builds the CLI and the tracer from the checkout's sources
    (Release, the program's own CMake build plus tracer/perfbench.cmake).
    Returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        raise BenchError(f"no ethshard sources at {ROOT}")
    bdir = out / "build"
    log = out / "build.log"
    hook = HERE / "tracer" / "perfbench.cmake"
    cache = bdir / "CMakeCache.txt"
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not cache.exists() or f"={hook}\n" not in cache.read_text():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DCMAKE_PROJECT_INCLUDE={hook}"])
    jobs = str(os.cpu_count() or 1)
    for target in ("ethshard_cli", "perfbench_trace"):
        steps.append(["cmake", "--build", str(bdir), "--target", target,
                      "-j", jobs])
    with open(log, "wb") as f:
        for argv in steps:
            if subprocess.run(argv, stdout=f, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError(f"build failed: {' '.join(argv)} "
                                 f"(log: {log})")
    return bdir / "tools" / "ethshard", bdir / "perfbench_trace"


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    if git is not None and git.returncode == 0:
        source = "git " + git.stdout.strip()
    else:  # a plain checkout: digest the sources that were built
        h = hashlib.sha256()
        files = [p for d in ("src", "tools") for p in (ROOT / d).rglob("*")
                 if p.is_file()] + [ROOT / "CMakeLists.txt"]
        for p in sorted(files):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
        source = "sha256 " + h.hexdigest()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "kernel": os.uname().release, "build_type": "Release",
            "source": source}


# ---------------------------------------------------------------------------
# Benchmark


@dataclass
class Bench:
    """One workload's runs."""
    name: str
    workload: Workload
    scale: float
    work: Path
    calls: int = 0
    setup_s: list[float] = field(default_factory=list)
    warmup: Run | None = None
    runs: list[Run] = field(default_factory=list)
    traced: Run | None = None
    trace: dict | None = None

    @property
    def trace_csv(self) -> Path:
        return self.work / "trace.csv"

    def simulate_args(self) -> list[str]:
        args = ["--trace", str(self.trace_csv), "--method",
                self.workload.method, "--shards", str(SHARDS),
                "--csv", "windows.csv", "--events-csv", "events.csv"]
        return (["--stream"] if self.workload.stream else []) + args


def set_up(bench: Bench, cli: Path, seed: int, deadline: float) -> None:
    """Generates the trace once on each CPU, in whole rounds until
    SETUP_MIN_S of set-up was timed, and at least SETUP_REPS times (each
    must be identical), then reads it once so the runs start on a cached
    trace, as a user re-running on the same file would.

    `generate` is single-threaded and short, so unpinned it runs where the
    benchmark process sits, and on a shared host one core can be ~1.7x
    slower than another for minutes: the median of reps on one core
    jumped between 0.16 s and 0.30 s from run to run at scale 0.001.
    One rep per core makes the median independent of that placement."""
    cpus = sorted(os.sched_getaffinity(0))
    digests = set()
    i = 0
    while i < max(SETUP_REPS, len(cpus)) or i % len(cpus) != 0 or \
            sum(bench.setup_s) < SETUP_MIN_S:
        run = run_child([str(cli), "generate", "--preset", "paper",
                         "--scale", repr(bench.scale), "--seed", str(seed),
                         "--out", str(bench.trace_csv)],
                        bench.work, min(RUN_TIMEOUT_S,
                                        deadline - time.monotonic()),
                        cpu=cpus[i % len(cpus)])
        if run.rc != 0:
            raise BenchError(f"{bench.name}: generate failed "
                             f"(see {bench.work / 'stderr.txt'})")
        bench.setup_s.append(run.wall_s)
        i += 1
        h = hashlib.sha256()
        rows = 0
        with open(bench.trace_csv, "rb") as f:
            while chunk := f.read(1 << 20):
                h.update(chunk)
                rows += chunk.count(b"\n")
        digests.add(h.hexdigest())
    if len(digests) != 1:
        raise BenchError(f"{bench.name}: generate is not deterministic")
    bench.calls = rows - 1  # one row per call, after the header


def replay(bench: Bench, cli: Path, deadline: float) -> Run:
    run = run_child([str(cli), "simulate"] + bench.simulate_args(),
                    bench.work, min(RUN_TIMEOUT_S,
                                    deadline - time.monotonic()))
    return collect_outputs(run, bench.work)


def traced_replay(bench: Bench, tracer: Path, seed: int,
                  deadline: float) -> None:
    cwd = bench.work / "traced"
    cwd.mkdir(exist_ok=True)
    spans = cwd / "spans.json"
    spans.unlink(missing_ok=True)
    run = run_child([str(tracer)] + bench.simulate_args()
                    + ["--spans-out", "spans.json",
                       "--run-id", f"{bench.name}-seed{seed}"],
                    cwd, min(RUN_TIMEOUT_S, deadline - time.monotonic()))
    bench.traced = collect_outputs(run, cwd)
    if run.rc == 0 and spans.exists():
        bench.trace = json.loads(spans.read_text())


def measure(benches: list[Bench], cli: Path, tracer: Path, seed: int,
            seconds: float) -> None:
    """Set-up, one discarded warm-up, then rounds that run each workload
    once in turn (so host drift spreads over all of them) until every
    workload had `seconds` of runs and MIN_RUNS runs; then the traced
    runs."""
    deadline = time.monotonic() + DEADLINE_S * len(benches)
    for b in benches:
        b.work.mkdir(parents=True, exist_ok=True)
        set_up(b, cli, seed, deadline)
    for b in benches:
        b.warmup = replay(b, cli, deadline)
    start = time.monotonic()
    while True:
        for b in benches:
            b.runs.append(replay(b, cli, deadline))
        now = time.monotonic()
        longest = max(statistics.median(r.wall_s for r in b.runs)
                      for b in benches)
        if now + 3 * longest * len(benches) > deadline:
            break  # leave time for the traced runs
        if now - start >= seconds * len(benches) and \
                min(len(b.runs) for b in benches) >= MIN_RUNS:
            break
    for b in benches:
        traced_replay(b, tracer, seed, deadline)


@dataclass
class Verdict:
    attempted: int
    failed: int
    correct: bool
    problems: list[str]


def check(bench: Bench, seed: int) -> Verdict:
    """A run fails if it exits non-zero, times out, or its outputs differ
    from the reference: the pinned digest at the default seed and scale,
    the traced run's own outputs otherwise."""
    problems = []
    default = seed == DEFAULT_SEED and bench.scale == bench.workload.scale
    traced = bench.traced
    pinned = PINNED_DIGESTS.get(bench.name, "") if default else ""
    reference = pinned or (traced.digest if traced else "")
    if traced is None or traced.rc != 0 or bench.trace is None:
        problems.append("traced run failed")
    elif traced.digest != reference:
        problems.append("traced run's outputs differ from the pinned "
                        "digest")
    runs = [bench.warmup] + bench.runs
    failed = sum(run_failed(r, reference) for r in runs)
    if failed:
        problems.append(f"{failed} of {len(runs)} runs failed")
    if traced is not None and any(
            r.windows_digest != traced.windows_digest for r in runs):
        problems.append("traced window CSV differs from the untraced one")
    return Verdict(len(runs), failed, not problems, problems)


def e2e_metrics(bench: Bench) -> dict[str, list[float]]:
    ok = [r for r in bench.runs if r.rc == 0] or bench.runs
    return {
        "wall_s": [r.wall_s for r in ok],
        "calls_per_s": [bench.calls / r.wall_s for r in ok],
        "peak_rss_mb": [r.peak_rss_mb for r in ok],
        "setup_s": bench.setup_s,
    }


def report(benches: list[Bench], seed: int, trace: bool,
           host: dict, out: Path) -> dict:
    """Prints every metric of every workload and saves the results;
    returns the JSON result object."""
    print(f"host: nproc={host['nproc']} cpu=\"{host['cpu']}\" "
          f"kernel={host['kernel']} build={host['build_type']} "
          f"source={host['source']}")
    attempted = failed = 0
    correct = True
    metrics: dict[str, dict] = {}
    saved = {"seed": seed, "host": host, "workloads": {}}
    for b in benches:
        verdict = check(b, seed)
        attempted += verdict.attempted
        failed += verdict.failed
        correct &= verdict.correct
        samples = e2e_metrics(b)
        cpu = [r.cpu_s for r in b.runs if r.rc == 0] or [0.0]
        wall = statistics.median(samples["wall_s"])
        print(f"== {b.name}: {b.workload.method}"
              f"{' --stream' if b.workload.stream else ''} --shards "
              f"{SHARDS}, scale {b.scale:g}, seed {seed}, {b.calls} calls; "
              f"{len(b.runs)} runs after 1 warm-up")
        values = {name: E2E_STAT[name](v) for name, v in samples.items()}
        for name, v in samples.items():
            print(f"  {name:<30} {values[name]:>14.6g} "
                  f"{E2E_UNITS[name]:<6} {E2E_STAT[name].__name__} of: "
                  f"{describe(v)}")
        values["fail_rate"] = verdict.failed / verdict.attempted
        print(f"  {'fail_rate':<30} {values['fail_rate']:>14.6g} "
              f"{'ratio':<6} {verdict.failed} of {verdict.attempted} runs")
        for p in verdict.problems:
            print(f"  CHECK FAILED: {p}")
        layers, notes = {}, {}
        if b.trace is not None:
            layers, notes = layer_metrics(b.trace)
            layers["cli.cpu_s"] = statistics.median(cpu)
            layers["trace.overhead_pct"] = \
                100.0 * (b.traced.wall_s - wall) / wall
            units = {**LAYER_UNITS, **EXTRA_UNITS}
            for name in units:
                note = f"  ({notes[name]})" if name in notes else ""
                print(f"  {name:<30} {layers[name]:>14.6g} "
                      f"{units[name]:<6}{note}")
            print(f"  {'core.window_ms':<30} "
                  f"{describe(b.trace['windows_ms'])}")
            timed = {k: layers[k] for k in (
                "workload.ingest_ms", "core.replay_ms",
                "partition.compute_ms", "core.teardown_ms")}
            dominant = max(timed, key=timed.get)
            print(f"  dominant layer: {dominant} "
                  f"({100 * timed[dominant] / b.trace['end_ms']:.1f}% of "
                  f"the traced run)")
            if layers["trace.coverage_pct"] < MIN_COVERAGE_PCT:
                print(f"  warning: top-level spans cover only "
                      f"{layers['trace.coverage_pct']:.1f}% of the traced "
                      "run", file=sys.stderr)
        prefix = f"{b.name}." if len(benches) > 1 else ""
        chosen = LAYER_UNITS if trace else E2E_UNITS
        for name, unit in chosen.items():
            if name in values or name in layers:
                metrics[prefix + name] = {
                    "value": values.get(name, layers.get(name)),
                    "unit": unit}
        saved["workloads"][b.name] = {
            "scale": b.scale, "calls": b.calls, "samples": samples,
            "cpu_s": cpu, "attempted": verdict.attempted,
            "failed": verdict.failed, "problems": verdict.problems,
            "digest": b.traced.digest if b.traced else None,
            "layers": layers, "notes": notes, "trace": b.trace,
        }
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    names = "-".join(b.name for b in benches)
    path = results / f"{stamp}-{names}-seed{seed}.json"
    path.write_text(json.dumps(saved))
    print(f"results -> {path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=None,
                   help="generator scale for every workload instead of its "
                        "own (smoke runs)")
    args = p.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = target_dir()
    try:
        cli, tracer = build(out)
        benches = [Bench(n, WORKLOADS[n], args.scale or WORKLOADS[n].scale,
                         out / "work" / n) for n in names]
        measure(benches, cli, tracer, args.seed, args.seconds)
        result = report(benches, args.seed, bool(args.trace), fingerprint(),
                        out)
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
