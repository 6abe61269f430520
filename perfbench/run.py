#!/usr/bin/env python3
"""The repository's benchmark: three workloads over the `bdc` front ends.

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 25 --trace 0

Workloads:
  plan-cold     a fresh `bdc run --all --quick` process on an empty cache,
                repeated; every compute layer runs, cache traffic is writes.
  sweep-vt      `bdc sweep --param organic.vt=...` over four off-nominal
                points, each repetition restoring a warm nominal snapshot.
  serve-routed  a closed loop of 2 connections through a 3-shard
                `bdc cluster` router; 1 in 50 requests is a fresh IPC key.

`--trace 0` measures the end-to-end metrics, the same on every workload.
An operation is one cold plan, one sweep point or one request:
  setup_s      median time from start to ready (plan graph verified;
               nominal cache warm and snapshotted; fleet up and primed)
  peak_rss_mb  peak resident memory of the processes under test
  op_p50_ms    median latency of an operation
  op_p99_ms    p99 latency (the slowest, with fewer than 100 operations)
  op_cpu_ms    user+sys CPU the processes under test spent per operation
  ops_per_s    operations completed per second
Times are net of hypervisor steal (see `Stopwatch`). `--trace 1` is a
separate run that times calls into each crate from outside
(`perfbench/tracer`) and reports the per-layer metrics; it does a fixed
amount of work and ignores `--seconds`. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Every output is
checked; any failed or mismatched operation makes the run exit 1.

Run from the repository root. Builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`); scratch directories and result records go
under `.perfbench/`. `--compare DIR_A DIR_B` compares two sets of result
records and refuses when their environment stamps differ. The arithmetic
is tested by `python3 -m unittest discover -s perfbench -p 'test_*.py'`.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
WORKLOADS = ("plan-cold", "sweep-vt", "serve-routed")

# Set-ups per run; `setup_s` is their median. A plan-cold set-up takes
# tens of milliseconds, the others seconds.
SETUPS = 3
PLAN_SETUPS = 9
# plan-cold and sweep-vt repeat whole processes: at least this many.
MIN_REPS = 3
# serve-routed: client connections, one fresh key per block of this many
# requests on each connection, session lengths.
CONNECTIONS = 2
FRESH_ONE_IN = 50
SESSION_RANGE = (20, 200)
# A fresh key forces an OoO simulation of one of these (workload, outer)
# kernels, 16-40 ms each; their instruction cap never binds, so varying it
# makes keys distinct without changing the work.
FRESH_KERNELS = (("gap", 60), ("bzip", 40), ("bzip", 60))
FRESH_CAP = 4_000_000
SIM_WORKLOADS = ("dhrystone", "bzip", "gap", "gzip", "mcf", "parser", "vortex")

# Outputs the repository pins in its own tests: quick node renders, which
# appear verbatim in `bdc run --all --quick` stdout, and `/v1/*` bodies.
PLAN_GOLDENS = "crates/bdc-bench/tests/golden"
SERVE_GOLDENS = {
    "/v1/library?process=organic": "library_organic.json",
    "/v1/library?process=silicon": "library_silicon.json",
    "/v1/synth?process=silicon&fe_width=1&be_pipes=3": "synth_silicon_baseline.json",
    "/v1/synth?process=organic&fe_width=2&be_pipes=4&splits=fetch,issue":
        "synth_organic_2w4b.json",
    "/v1/depth?process=silicon&stages=11": "depth_silicon_11.json",
    "/v1/width?process=organic&fe=2&be=4": "width_organic_2_4.json",
    "/v1/ipc?workload=gzip&outer=5&instructions=4000": "ipc_gzip_5_4000.json",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "op_cpu_ms": "ms",
    "ops_per_s": "1/s",
}


def stolen_s():
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs (the `steal` column of /proc/stat; 0 on bare metal)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Stopwatch:
    """Wall time, and wall time net of steal: the wall less the stolen CPU
    time spread over the machine's CPUs. On a shared host the stolen share
    swings by tens of percent from minute to minute; the net time is what
    the same work takes with the CPUs it was actually given."""

    def __init__(self):
        self.t0, self.s0 = time.perf_counter(), stolen_s()

    def read(self):
        wall = time.perf_counter() - self.t0
        stolen = stolen_s() - self.s0
        return wall, max(wall - stolen / os.cpu_count(), 0.1 * wall)


class HarnessError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and environment
# ---------------------------------------------------------------------------


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds `bdc`, `bdc_serve` and the tracer; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise HarnessError("run from the repository root (no Cargo.toml/crates here)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "bdc", "--bin", "bdc_serve"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", "perfbench/tracer/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise HarnessError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return {
        "bdc": str(release / "bdc"),
        "bdc_serve": str(release / "bdc_serve"),
        "trace": str(release / "perfbench-trace"),
    }


def source_digest():
    """Digest of the sources the benchmark builds, for the stamp."""
    h = hashlib.sha256()
    files = sorted(
        p for p in list((ROOT / "crates").rglob("*")) + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
        if p.is_file() and "target" not in p.parts
    )
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def default_workers():
    """The worker count `bdc` runs with: `BDC_WORKERS`, else every CPU."""
    return int(os.environ.get("BDC_WORKERS") or len(os.sched_getaffinity(0)))


def environment_stamp():
    nproc = len(os.sched_getaffinity(0))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    lanes = "1" if os.environ.get("BDC_NO_BATCH") else os.environ.get("BDC_BATCH_LANES", "8")
    cpu_model = next((line.split(":", 1)[1].strip() for line in
                      Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), "unknown")
    return {
        "cpu_model": cpu_model,
        "nproc": nproc,
        "workers_available": os.cpu_count(),
        "bdc_workers": default_workers(),
        "batch_lanes": int(lanes),
        "git_commit": commit,
        "source_digest": source_digest(),
        "rustc": rustc,
        "profile": "release",
    }


def bdc_env(cache_dir, workers=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("BDC_")}
    for knob in ("BDC_WORKERS", "BDC_BATCH_LANES", "BDC_NO_BATCH"):
        if knob in os.environ:
            env[knob] = os.environ[knob]
    env["BDC_CACHE_DIR"] = str(cache_dir)
    if workers is not None:
        env["BDC_WORKERS"] = str(workers)
    return env


class Scratch:
    """Numbered fresh directories under one per-run temporary root."""

    def __init__(self, workload):
        self.root = WORK / "tmp" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.n = 0

    def fresh(self, tag):
        self.n += 1
        d = self.root / f"{self.n:03d}-{tag}"
        d.mkdir()
        return d

    def remove(self):
        shutil.rmtree(self.root, ignore_errors=True)


class Proc:
    """Outcome of one child process, with the kernel's rusage for it."""

    def __init__(self, cmd, cwd, env, stdout_path):
        with open(stdout_path, "wb") as out, open(Path(cwd) / "stderr.txt", "wb") as err:
            clock = Stopwatch()
            child = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            self.wall_s, self.net_s = clock.read()
        child.returncode = os.waitstatus_to_exitcode(status)
        self.rc = child.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = Path(stdout_path).read_bytes()
        self.stderr_path = Path(cwd) / "stderr.txt"

    def tail(self):
        return self.stderr_path.read_text(errors="replace")[-600:]


def result_metrics(values):
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# plan-cold
# ---------------------------------------------------------------------------


def catalogue_size(bins, d):
    p = Proc([bins["bdc"], "list", "--json"], d, bdc_env(d / "cache"), d / "list.json")
    if p.rc != 0:
        raise HarnessError("bdc list failed: " + p.tail())
    return len(json.loads(p.stdout))


def cold_plan(bins, scratch, nodes_expected, workers=None):
    """One `bdc run --all --quick` on an empty cache in a fresh directory.

    Returns the process outcome, a list of problems (failed nodes, nodes
    that were not cold, duplicate artifact keys) and the directory.
    """
    d = scratch.fresh("plan")
    p = Proc([bins["bdc"], "run", "--all", "--quick"], d, bdc_env(d / "cache", workers),
             d / "stdout.txt")
    problems = []
    if p.rc != 0:
        problems.append(f"bdc run exited {p.rc}: {p.tail()}")
        return p, problems, d
    nodes = json.loads((d / "results" / "run_manifest.json").read_text())["nodes"]
    if len(nodes) != nodes_expected:
        problems.append(f"{len(nodes)} nodes, expected {nodes_expected}")
    problems += [f"node {n['id']} {n['status']}" for n in nodes if n["status"] != "ok"]
    warm = [n["id"] for n in nodes if n["cache"] != "miss"]
    if warm:
        problems.append(f"not cold: {len(nodes) - len(warm)}/{len(nodes)} misses ({warm})")
    keys = [n["artifact_key"] for n in nodes]
    if len(set(keys)) != len(keys):
        problems.append("artifact key collision")
    return p, problems, d


def missing_plan_goldens(stdout):
    """Pinned quick renders that do not appear verbatim in a plan's stdout."""
    return [f"golden {g.name} not in the plan output"
            for g in sorted((ROOT / PLAN_GOLDENS).glob("*.quick.txt"))
            if g.read_bytes() not in stdout]


def plan_setup(bins, scratch):
    """Start to ready for a cold plan: a fresh working directory and empty
    cache in which `bdc verify --quick` proves the plan graph (unique ids,
    collision-free cache keys, acyclic stage graph) before anything runs."""
    times = []
    batch = Stopwatch()
    for _ in range(PLAN_SETUPS):
        d = scratch.fresh("setup")
        p = Proc([bins["bdc"], "verify", "--quick"], d, bdc_env(d / "cache"), d / "verify.txt")
        times.append(p.wall_s)
        if p.rc != 0:
            raise HarnessError("bdc verify failed: " + p.stdout.decode(errors="replace")[-600:])
    # One set-up is a few steal-counter ticks long: scale the median by
    # the net share of the whole batch instead.
    wall, net = batch.read()
    return stats.median(times) * net / wall, catalogue_size(bins, scratch.fresh("list"))


def run_plan_cold(bins, args, scratch):
    setup_s, nodes_expected = plan_setup(bins, scratch)
    walls, nets, cpus, rss = [], [], [], []
    attempted = failed = 0
    first_text = None
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        p, problems, _ = cold_plan(bins, scratch, nodes_expected)
        attempted += nodes_expected
        if first_text is None:
            first_text = p.stdout
            problems += missing_plan_goldens(p.stdout)
        elif p.stdout != first_text:
            problems.append("stdout differs from the first repetition")
        for msg in problems:
            log("plan-cold:", msg)
        failed += min(len(problems), nodes_expected)
        walls.append(p.wall_s)
        nets.append(p.net_s)
        cpus.append(p.cpu_s)
        rss.append(p.rss_mb)
    n = len(walls)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": max(rss),
        "op_p50_ms": stats.median(nets) * 1e3,
        "op_p99_ms": stats.percentile(nets, 0.99) * 1e3,
        "op_cpu_ms": stats.median(cpus) * 1e3,
        "ops_per_s": n / sum(nets),
    }
    report = [
        f"plan_wall_s     {stats.median(nets):.4f} s net of steal, "
        f"{stats.median(walls):.4f} s raw (median of {n} cold plans)",
        f"plan_cpu_s      {stats.median(cpus):.4f} s (median of {n})",
    ]
    return values, attempted, failed, report


def trace_plan_cold(bins, args, scratch):
    _, nodes_expected = plan_setup(bins, scratch)
    problems = []
    one, probs1, _ = cold_plan(bins, scratch, nodes_expected, workers=1)
    many, probs_n, many_dir = cold_plan(bins, scratch, nodes_expected)
    problems += probs1 + probs_n
    if one.stdout != many.stdout:
        problems.append("1-worker render differs from the default-worker render")
    workers = default_workers()

    d = scratch.fresh("trace-plan")
    plan_out = d / "plan.txt"
    plan, _ = run_tracer(bins, ["plan", "--out", str(plan_out)], d, bdc_env(d / "cache"))
    if plan_out.read_bytes() != many.stdout:
        problems.append("in-process plan render differs from `bdc run` stdout")
    problems += missing_plan_goldens(many.stdout)
    if not plan["warm_matches_cold"] or plan["warm_misses"] or plan["failed"]:
        problems.append(f"in-process plan: {plan}")

    # The reference for the replay is the cold cache `bdc run` just wrote.
    ref = many_dir / "cache"
    steps = ["--device", "--lib", "organic", "--lib", "silicon"]
    for p in ("organic", "silicon"):
        for spec in ("1:3", "2:4", "3:5", "4:6", "1:3:execute", "1:3:execute+issue"):
            steps += ["--synth", f"{p}:{spec}"]
    for w in SIM_WORKLOADS:
        for fe, be in ((1, 3), (2, 4), (3, 5), (4, 6)):
            steps += ["--ipc", f"{w}:25:12000:{fe}:{be}"]
    layers, problems_r = replay_layers(bins, scratch, steps, ref)
    problems += problems_r

    hits, misses = plan["stage_hits"], plan["stage_misses"]
    layers.update({
        "exec.stage.hits": hits,
        "exec.stage.misses": misses,
        "exec.stage.hit_rate": hits / (hits + misses),
        "exec.pool.cpu_util": many.cpu_s / (many.net_s * workers),
        "exec.pool.speedup": one.net_s / many.net_s,
        "core.plan.max_node_s": plan["max_node_s"],
        "core.plan.node_overlap": plan["sum_node_s"] / plan["cold_wall_s"],
        "core.plan.render_s": plan["render_s"],
        "core.plan.retries": plan["retries"],
    })
    report = [
        f"plan wall net of steal: {one.net_s:.3f} s at 1 worker, {many.net_s:.3f} s at {workers}",
        f"in-process plan: cold {plan['cold_wall_s']:.3f} s, warm {plan['render_s']:.4f} s",
    ]
    return layers, 3 * nodes_expected, len(problems), problems, report


# ---------------------------------------------------------------------------
# The layer tracer
# ---------------------------------------------------------------------------

LAYER_TIME_SPANS = {
    "circuit.tran_s": "circuit.tran",
    "circuit.dc_s": "circuit.dc",
    "cells.characterize_s.organic": "cells.characterize.organic",
    "cells.characterize_s.silicon": "cells.characterize.silicon",
    "cells.assemble_s": "cells.assemble",
    "cells.liberty_load_s": "cells.liberty",
    "device.fit_s": "device.fit",
    "synth.map_s": "synth.map",
    "synth.sta_s": "synth.sta",
    "synth.pipeline_cut_s": "synth.pipeline_cut",
    "synth.core_s": "synth.core",
    "uarch.sim_s": "uarch.sim",
    "exec.cache.store_s": "exec.cache.store",
    "exec.cache.load_s": "exec.cache.load",
}
LAYER_COUNTERS = (
    "circuit.tran_points", "synth.gates", "uarch.sim_instructions", "uarch.sim_cycles",
    "exec.cache.stores", "exec.cache.store_bytes", "exec.cache.loads", "exec.cache.load_bytes",
)
# Everything the traced run reports, in print order. A layer a workload
# does not reach reads 0.
PER_LAYER = list(LAYER_TIME_SPANS) + list(LAYER_COUNTERS) + [
    "circuit.tran_us_per_point", "uarch.sim_mips",
    "exec.stage.hits", "exec.stage.misses", "exec.stage.hit_rate",
    "exec.pool.cpu_util", "exec.pool.speedup",
    "core.plan.max_node_s", "core.plan.node_overlap", "core.plan.render_s", "core.plan.retries",
    "serve.direct_p50_ms", "serve.direct_p99_ms", "serve.connect_ms", "serve.compute_ms",
    "serve.engine.hit_ratio", "serve.engine.computes", "serve.engine.coalesced",
    "serve.engine.shed", "serve.connections",
    "cluster.router_hop_ms", "cluster.proxied", "cluster.failovers", "cluster.breaker_skips",
    "cluster.peer_fetch_ms",
    "trace.coverage", "trace.overhead", "trace.unattributed_s",
]
PER_LAYER_UNITS = {
    "circuit.tran_points": "count", "synth.gates": "count",
    "uarch.sim_instructions": "count", "uarch.sim_cycles": "count",
    "exec.cache.stores": "count", "exec.cache.loads": "count",
    "exec.cache.store_bytes": "B", "exec.cache.load_bytes": "B",
    "circuit.tran_us_per_point": "us", "uarch.sim_mips": "MIPS",
    "exec.stage.hits": "count", "exec.stage.misses": "count", "exec.stage.hit_rate": "ratio",
    "exec.pool.cpu_util": "ratio", "exec.pool.speedup": "x",
    "core.plan.node_overlap": "x", "core.plan.retries": "count",
    "serve.engine.hit_ratio": "ratio", "serve.engine.computes": "count",
    "serve.engine.coalesced": "count", "serve.engine.shed": "count",
    "serve.connections": "count", "cluster.proxied": "count", "cluster.failovers": "count",
    "cluster.breaker_skips": "count", "trace.coverage": "ratio", "trace.overhead": "x",
}


def per_layer_unit(name):
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "ms" if name.endswith("_ms") else "s"


def run_tracer(bins, argv, cwd, env):
    """Runs the tracer; returns its JSON report and the process outcome."""
    out = Path(cwd) / f"tracer-{argv[0]}.json"
    p = Proc([bins["trace"]] + argv, cwd, env, out)
    if p.rc != 0:
        raise HarnessError(f"tracer {argv[0]} exited {p.rc}: {p.tail()}")
    return json.loads(p.stdout), p


def replay_layers(bins, scratch, steps, ref):
    """Runs the tracer replay bare, with spans, and bare again, each in a
    fresh process and store; returns per-layer values and problems."""
    nets = {"0": [], "1": []}
    traced = None
    # Bare, traced, bare: the bare time is the mean of the two around it.
    # Overhead compares process times net of steal; coverage is measured
    # against the traced replay's own wall.
    for spans in ("0", "1", "0"):
        d = scratch.fresh(f"replay{spans}")
        argv = ["replay", "--spans", spans, "--store", str(d / "store"), "--ref", str(ref)]
        out, proc = run_tracer(bins, argv + steps, d, bdc_env(d / "cache"))
        nets[spans].append(proc.net_s)
        traced = out if spans == "1" else traced
    problems = [f"replay mismatch: {m}" for m in traced["mismatches"]]
    spans = traced["spans"]
    by_name = stats.self_time_by_name(spans)
    layers = {name: by_name.get(span, 0.0) for name, span in LAYER_TIME_SPANS.items()}
    counters = traced["counters"]
    layers.update({c: counters.get(c, 0.0) for c in LAYER_COUNTERS})
    points = layers["circuit.tran_points"]
    layers["circuit.tran_us_per_point"] = layers["circuit.tran_s"] / points * 1e6 if points else 0.0
    sim_s = layers["uarch.sim_s"]
    layers["uarch.sim_mips"] = layers["uarch.sim_instructions"] / sim_s / 1e6 if sim_s else 0.0
    layers["trace_wall"] = (traced["wall_s"], nets["1"][0], stats.median(nets["0"]), spans)
    return layers, problems


def finish_trace(layers):
    """Coverage and overhead over the replay plus any spans the benchmark
    recorded itself around HTTP calls, then fills unreached layers with 0.

    Span positions do not matter here: the benchmark's spans are roots, so
    their self times are their durations whatever they overlap.
    """
    traced_wall, traced_net, bare_net, spans = layers.pop("trace_wall")
    http_spans, http_traced, http_bare = layers.pop("trace_http", ([], 0.0, 0.0))
    cov, rest = stats.coverage(spans + http_spans, traced_wall + http_traced)
    layers["trace.coverage"] = cov
    layers["trace.unattributed_s"] = rest
    layers["trace.overhead"] = (traced_net + http_traced) / (bare_net + http_bare)
    return {k: {"value": float(layers.get(k, 0.0)), "unit": per_layer_unit(k)} for k in PER_LAYER}


# ---------------------------------------------------------------------------
# sweep-vt
# ---------------------------------------------------------------------------


def sweep_grid(seed):
    """Four off-nominal V_T points 0.1 V apart, shifted by a seeded offset
    of 0-14 mV so the nominal -1.3 V is never on the grid."""
    shift = (seed % 8) * 0.002
    return f"organic.vt={-1.45 + shift:.3f}:{-1.15 + shift:.3f}:4", 4


def sweep_setup(bins, scratch):
    """Warm the nominal quick plan once and snapshot its cache."""
    d = scratch.fresh("warm")
    clock = Stopwatch()
    p = Proc([bins["bdc"], "run", "--all", "--quick"], d, bdc_env(d / "cache"), d / "out.txt")
    if p.rc != 0:
        raise HarnessError("nominal warm-up failed: " + p.tail())
    shutil.copytree(d / "cache", d / "snapshot")
    return clock.read()[1], d / "snapshot"


def sweep_once(bins, scratch, snapshot, grid, points, expected=None):
    """One sweep from a restored snapshot. Every point must show the
    `expected` (hits, misses) split, or point 0's when none is given, and
    recompute only the organic cone: some misses, no IPC misses."""
    d = scratch.fresh("sweep")
    shutil.copytree(snapshot, d / "cache")
    p = Proc([bins["bdc"], "sweep", "--param", grid, "--quick"], d, bdc_env(d / "cache"),
             d / "stdout.txt")
    problems = []
    if p.rc != 0:
        return p, [f"bdc sweep exited {p.rc}: {p.tail()}"], None, d
    m = json.loads((d / "results" / "sweep_manifest.json").read_text())
    if m["stage_key_collisions"] != 0:
        problems.append(f"{m['stage_key_collisions']} stage-key collisions")
    if m["restored_points"] != 0 or len(m["points"]) != points:
        problems.append(f"{len(m['points'])} points, {m['restored_points']} restored")
    first = m["points"][0]
    expected = expected or (first["stage_hits"], first["stage_misses"])
    for pt in m["points"]:
        if (pt["stage_hits"], pt["stage_misses"]) != expected:
            problems.append(f"point {pt['index']}: {pt['stage_hits']} hits/"
                            f"{pt['stage_misses']} misses, expected {expected}")
        if pt["stages"].get("ipc", {}).get("misses", 0) != 0 or pt["stage_misses"] == 0:
            problems.append(f"point {pt['index']}: not an organic-cone-only point")
    return p, problems, m, d


def run_sweep_vt(bins, args, scratch):
    grid, points = sweep_grid(args.seed)
    setups = [sweep_setup(bins, scratch) for _ in range(SETUPS)]
    setup_s = stats.median([s[0] for s in setups])
    snapshot = setups[-1][1]
    per_point, nets, cpus, rss = [], [], [], []
    attempted = failed = 0
    first_text = expected = None
    deadline = time.perf_counter() + args.seconds
    while len(per_point) < MIN_REPS or time.perf_counter() < deadline:
        p, problems, m, _ = sweep_once(bins, scratch, snapshot, grid, points, expected)
        attempted += points
        if m is not None and expected is None:
            expected = (m["points"][0]["stage_hits"], m["points"][0]["stage_misses"])
        if first_text is None:
            first_text = p.stdout
        elif p.stdout != first_text:
            problems.append("transcript differs from the first repetition")
        for msg in problems:
            log("sweep-vt:", msg)
        failed += min(len(problems), points)
        per_point.append(p.wall_s / points)
        nets.append(p.net_s / points)
        cpus.append(p.cpu_s / points)
        rss.append(p.rss_mb)
    n = len(per_point)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": max(rss),
        "op_p50_ms": stats.median(nets) * 1e3,
        "op_p99_ms": stats.percentile(nets, 0.99) * 1e3,
        "op_cpu_ms": stats.median(cpus) * 1e3,
        "ops_per_s": n / sum(nets),
    }
    report = [
        f"grid            {grid}",
        f"sweep_point_s   {stats.median(nets):.4f} s net of steal, "
        f"{stats.median(per_point):.4f} s raw (median of {n} sweeps x {points} points)",
        f"stage split     {expected[0] if expected else '?'} hits / "
        f"{expected[1] if expected else '?'} misses per point",
    ]
    return values, attempted, failed, report


def trace_sweep_vt(bins, args, scratch):
    grid, points = sweep_grid(args.seed)
    _, snapshot = sweep_setup(bins, scratch)
    p, problems, m, d = sweep_once(bins, scratch, snapshot, grid, points)
    if m is None:
        raise HarnessError("sweep failed: " + "; ".join(problems))
    hits = sum(pt["stage_hits"] for pt in m["points"])
    misses = sum(pt["stage_misses"] for pt in m["points"])
    steps = []
    for pt in m["points"]:
        steps += ["--load-all", str(snapshot), "--lib", f"organic:vt={pt['value']!r}"]
        for spec in ("1:3", "2:4", "3:5", "1:3:execute"):
            steps += ["--synth", f"organic:{spec}"]
    # The sweep just stored every off-nominal cell and library: the
    # replay must reproduce them bit for bit.
    layers, problems_r = replay_layers(bins, scratch, steps, d / "cache")
    problems += problems_r
    layers.update({
        "exec.stage.hits": hits,
        "exec.stage.misses": misses,
        "exec.stage.hit_rate": hits / (hits + misses),
    })
    report = [f"sweep {grid}: {p.wall_s:.3f} s, {hits} stage hits / {misses} misses"]
    return layers, points, len(problems), problems, report


# ---------------------------------------------------------------------------
# serve-routed
# ---------------------------------------------------------------------------


class Conn:
    """A minimal keep-alive HTTP/1.1 GET client over one TCP connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self):
        self.sock.close()

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed mid-response")
        self.buf += chunk

    def get(self, path):
        self.sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            k, _, v = line.partition(":")
            headers[k.strip().lower()] = v.strip()
        length = int(headers.get("content-length", "0"))
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, headers, body


def get_once(port, path):
    c = Conn(port)
    try:
        return c.get(path)
    finally:
        c.close()


def warm_paths():
    """The warm working set: 39 keys, far below the 4096-entry cache."""
    paths = [f"/v1/library?process={p}" for p in ("organic", "silicon")]
    for p in ("organic", "silicon"):
        paths += [f"/v1/synth?process={p}&fe_width={fe}&be_pipes={be}"
                  for fe in (1, 2) for be in (3, 4)]
        paths += [f"/v1/depth?process={p}&stages={s}" for s in (9, 10, 11, 12)]
        paths += [f"/v1/width?process={p}&fe={fe}&be={be}" for fe in (1, 2, 3) for be in (3, 4)]
    paths += [f"/v1/ipc?workload={w}&outer=25&instructions=12000" for w in SIM_WORKLOADS]
    return paths + [p for p in SERVE_GOLDENS if p not in paths]


def fresh_path(seed, n):
    """The n-th never-seen IPC key of this seed. Kernels rotate, so every
    seed sends the same mix of work."""
    workload, outer = FRESH_KERNELS[n % len(FRESH_KERNELS)]
    cap = FRESH_CAP + (seed % 1000) * 1000 + n
    return f"/v1/ipc?workload={workload}&outer={outer}&instructions={cap}"


def free_ports(count):
    rng = random.Random(os.getpid() ^ time.time_ns())
    for _ in range(100):
        base = rng.randrange(20000, 60000 - count)
        socks = []
        try:
            for port in range(base, base + count):
                s = socket.socket()
                socks.append(s)
                s.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise HarnessError("no free port range")


def proc_alive(pid, needle):
    try:
        return needle in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def proc_cpu_s(pid):
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Fleet:
    """A 3-shard `bdc cluster` with its own cache root, up and primed."""

    def __init__(self, bins, scratch):
        self.dir = scratch.fresh("fleet")
        base = free_ports(4)
        self.router, self.shards = base, [base + 1, base + 2, base + 3]
        self.log = open(self.dir / "cluster.log", "wb")
        clock = Stopwatch()
        self.proc = subprocess.Popen(
            [bins["bdc"], "cluster", "--shards", "3", "--addr", f"127.0.0.1:{self.router}",
             "--base-port", str(base + 1), "--serve-bin", bins["bdc_serve"],
             "--cache-root", str(self.dir / "shards"), "--pid-file", str(self.dir / "pids.json")],
            cwd=self.dir, env=bdc_env(self.dir / "cache"), stdout=self.log, stderr=self.log)
        self.workers = []
        self.problems = []
        try:
            self._wait_healthy()
            self.expected = self._prime()
        except BaseException:
            self.stop()
            raise
        self.setup_s = clock.read()[1]

    def _wait_healthy(self):
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise HarnessError("bdc cluster exited during start-up")
            try:
                status, _, body = get_once(self.router, "/healthz")
                doc = json.loads(body)
                if status == 200 and doc.get("status") == "ok":
                    pids = json.loads((self.dir / "pids.json").read_text())
                    self.workers = [w["pid"] for w in pids["workers"]]
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.02)
        raise HarnessError("fleet not healthy within 60 s")

    def _prime(self):
        """Computes each warm key once, checks pinned bodies against their
        goldens, and records the owning shard's direct body as the expected
        bytes."""
        expected = {}
        routed = Conn(self.router)
        direct = {}
        for path in warm_paths():
            status, headers, body = routed.get(path)
            owner = int(headers.get("x-bdc-shard", "-1"))
            if status != 200 or owner not in range(3):
                raise HarnessError(f"priming {path}: status {status}, shard {owner}")
            conn = direct.setdefault(owner, Conn(self.shards[owner]))
            d_status, _, d_body = conn.get(path)
            if d_status != 200 or d_body != body:
                raise HarnessError(f"priming {path}: routed body differs from shard {owner}")
            golden = SERVE_GOLDENS.get(path)
            if golden and body != (ROOT / "crates/bdc-serve/tests/golden" / golden).read_bytes():
                self.problems.append(f"{path}: body differs from golden {golden}")
            expected[path] = (hashlib.sha256(body).digest(), owner)
        for c in [routed] + list(direct.values()):
            c.close()
        return expected

    def pids(self):
        return [self.proc.pid] + self.workers

    def cpu_s(self):
        return sum(proc_cpu_s(pid) for pid in self.pids())

    def peak_rss_mb(self):
        return sum(proc_hwm_mb(pid) for pid in self.pids())

    def metrics(self):
        return json.loads(get_once(self.router, "/v1/metrics")[2])

    def stop(self):
        """SIGTERM drain; returns the worker pids that outlived the fleet."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        deadline = time.perf_counter() + 5
        survivors = [p for p in self.workers if proc_alive(p, b"bdc_serve")]
        while survivors and time.perf_counter() < deadline:
            time.sleep(0.05)
            survivors = [p for p in survivors if proc_alive(p, b"bdc_serve")]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        return survivors


def start_fleets(bins, scratch):
    """Brings a fleet up SETUPS times, each on a fresh cache root; keeps
    the last one running. Returns (median set-up time, fleet, problems)."""
    times, problems = [], []
    fleet = None
    for i in range(SETUPS):
        fleet = Fleet(bins, scratch)
        times.append(fleet.setup_s)
        problems += fleet.problems
        if i < SETUPS - 1:
            survivors = fleet.stop()
            if survivors:
                problems.append(f"bdc_serve outlived its fleet: {survivors}")
    return stats.median(times), fleet, problems


class LoadResult:
    def __init__(self):
        self.latencies = []
        self.sent = 0
        self.errors = 0
        self.mismatches = 0
        self.fresh = []  # (path, digest, shard)
        self.lock = threading.Lock()


def client_loop(fleet, seed, tid, deadline, out):
    rng = random.Random(f"{seed}:{tid}")
    lat, fresh = [], []
    sent = errors = mismatches = 0
    conn, left, n_fresh, fresh_slot = None, 0, 0, -1
    warm = list(fleet.expected)
    while time.perf_counter() < deadline:
        if left == 0:
            if conn:
                conn.close()
            conn, left = Conn(fleet.router), rng.randint(*SESSION_RANGE)
        if sent % FRESH_ONE_IN == 0:
            fresh_slot = sent + rng.randrange(FRESH_ONE_IN)
        if sent == fresh_slot:
            path = fresh_path(seed, CONNECTIONS * n_fresh + tid)
            n_fresh += 1
        else:
            path = warm[rng.randrange(len(warm))]
        sent += 1
        left -= 1
        t0 = time.perf_counter()
        try:
            status, headers, body = conn.get(path)
        except (OSError, ValueError):
            errors += 1
            conn.close()
            left = 0
            continue
        t1 = time.perf_counter()
        if status != 200:
            errors += 1
            continue
        digest = hashlib.sha256(body).digest()
        if path in fleet.expected:
            if digest != fleet.expected[path][0]:
                mismatches += 1
                continue
        else:
            fresh.append((path, digest, int(headers.get("x-bdc-shard", "-1"))))
        lat.append((t1, t1 - t0))
    if conn:
        conn.close()
    with out.lock:
        out.latencies += lat
        out.fresh += fresh
        out.sent += sent
        out.errors += errors
        out.mismatches += mismatches


def check_fresh(fleet, fresh):
    """Each fresh routed body must equal its owning shard's direct body."""
    bad = 0
    conns = {}
    for path, digest, owner in fresh:
        if owner not in range(3):
            bad += 1
            continue
        conn = conns.setdefault(owner, Conn(fleet.shards[owner]))
        status, _, body = conn.get(path)
        if status != 200 or hashlib.sha256(body).digest() != digest:
            bad += 1
    for c in conns.values():
        c.close()
    return bad


def run_serve_routed(bins, args, scratch):
    setup_s, fleet, problems = start_fleets(bins, scratch)
    try:
        out = LoadResult()
        cpu0 = fleet.cpu_s()
        clock = Stopwatch()
        deadline = time.perf_counter() + args.seconds
        threads = [threading.Thread(target=client_loop, args=(fleet, args.seed, i, deadline, out))
                   for i in range(CONNECTIONS)]
        for t in threads:
            t.start()
        steal = []
        while any(t.is_alive() for t in threads):
            steal.append((time.perf_counter(), stolen_s()))
            time.sleep(0.25)
        steal.append((time.perf_counter(), stolen_s()))
        for t in threads:
            t.join()
        elapsed, net = clock.read()
        cpu = fleet.cpu_s() - cpu0
        rss = fleet.peak_rss_mb()
        fresh_bad = check_fresh(fleet, out.fresh)
    finally:
        survivors = fleet.stop()
    if survivors:
        problems.append(f"bdc_serve outlived its fleet: {survivors}")
    for msg in problems:
        log("serve-routed:", msg)
    ok = len(out.latencies)
    if ok == 0:
        raise HarnessError("no successful requests")
    failed = out.errors + out.mismatches + fresh_bad + len(problems)
    raw = [lat for _, lat in out.latencies]
    nets = [lat * stats.net_share(steal, t, os.cpu_count()) for t, lat in out.latencies]
    p50 = stats.percentile(nets, 0.50) * 1e3
    p99 = stats.percentile(nets, 0.99) * 1e3
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "op_p50_ms": p50,
        "op_p99_ms": p99,
        "op_cpu_ms": cpu / ok * 1e3,
        "ops_per_s": ok / net,
    }
    beyond = ok - stats.quantile_index(ok, 0.99) - 1
    report = [
        f"serve_rps       {ok / net:.1f} req/s net of steal, {ok / elapsed:.1f} raw "
        f"({ok} ok of {out.sent} sent, {CONNECTIONS} connections, closed loop)",
        f"serve_p50_ms    {p50:.4f} ms net, {stats.percentile(raw, 0.5) * 1e3:.4f} raw (n={ok})",
        f"serve_p99_ms    {p99:.4f} ms net, {stats.percentile(raw, 0.99) * 1e3:.4f} raw "
        f"(n={ok}, {beyond} beyond)",
        f"fresh keys      {len(out.fresh)} (1 in {FRESH_ONE_IN} requests)",
    ]
    return values, out.sent, failed, report


def timed_stream(conn, paths, expected, spans, name, t_base):
    """Sends `paths` in order; records one span per request when `spans`
    is a list. Returns (latencies, mismatches, wall)."""
    lat, bad = [], 0
    t_start = time.perf_counter()
    for path in paths:
        t0 = time.perf_counter()
        status, headers, body = conn.get(path)
        t1 = time.perf_counter()
        if spans is not None:
            spans.append({"name": name, "start": t0 - t_base, "end": t1 - t_base, "parent": -1})
        lat.append(t1 - t0)
        if status != 200 or (expected and hashlib.sha256(body).digest() != expected[path][0]):
            bad += 1
    return lat, bad, time.perf_counter() - t_start


def metric_totals(m):
    router = m["router"]
    engine = {"cache_hits": 0, "batched_jobs": 0, "coalesced": 0, "queue_shed": 0}
    accepted = hits = misses = peer_hits = 0
    for shard in m["shards"]:
        sm = shard["metrics"]
        for k in engine:
            engine[k] += sm["engine"][k]
        accepted += sm["connections"]["accepted"]
        peer_hits += sm["faults"]["peer_hits"]
        for c in sm["stages"]["counters"].values():
            hits += c["hits"]
            misses += c["misses"]
    return {
        "proxied": router["proxied"], "failovers": router["failovers"],
        "breaker_skips": router["breaker_skips"], "accepted": accepted,
        "stage_hits": hits, "stage_misses": misses, "peer_hits": peer_hits, **engine,
    }


def trace_serve_routed(bins, args, scratch):
    fleet = Fleet(bins, scratch)
    problems = list(fleet.problems)
    try:
        rng = random.Random(f"{args.seed}:trace")
        warm = list(fleet.expected)
        stream = [warm[rng.randrange(len(warm))] for _ in range(2000)]
        before = metric_totals(fleet.metrics())
        spans = []
        t_base = time.perf_counter()

        # Same warm stream routed bare and routed with spans, alternating
        # which goes first per chunk of 100, then direct to each key's
        # owning shard.
        routed = Conn(fleet.router)
        routed_lat, bad0, bad1, bare_wall, routed_wall = [], 0, 0, 0.0, 0.0
        for i in range(0, len(stream), 100):
            chunk = stream[i:i + 100]
            for traced in ((False, True) if i % 200 == 0 else (True, False)):
                if traced:
                    lat, bad, wall = timed_stream(routed, chunk, fleet.expected, spans,
                                                  "cluster.route", t_base)
                    routed_lat += lat
                    bad1 += bad
                    routed_wall += wall
                else:
                    _, bad, wall = timed_stream(routed, chunk, fleet.expected, None, "", t_base)
                    bad0 += bad
                    bare_wall += wall
        routed.close()
        direct = [Conn(p) for p in fleet.shards]
        direct_lat, bad2 = [], 0
        for path in stream:
            lat, bad, _ = timed_stream(direct[fleet.expected[path][1]], [path], fleet.expected,
                                       spans, "serve.direct", t_base)
            direct_lat += lat
            bad2 += bad
        for c in direct:
            c.close()
        problems += [f"{n} warm bodies differ" for n in (bad0, bad1, bad2) if n]

        # Fresh connection to first byte.
        connect = []
        for _ in range(50):
            t0 = time.perf_counter()
            c = Conn(fleet.shards[0])
            c.get("/healthz")
            t1 = time.perf_counter()
            c.close()
            spans.append({"name": "serve.connect", "start": t0 - t_base, "end": t1 - t_base,
                          "parent": -1})
            connect.append(t1 - t0)

        # Fresh keys straight to shard 0, then to the next shard, which
        # answers from a peer's artifact.
        fresh = [fresh_path(args.seed, 900 + n) for n in range(15)]
        c0, c1 = Conn(fleet.shards[0]), Conn(fleet.shards[1])
        compute, bad3, _ = timed_stream(c0, fresh, None, spans, "serve.compute", t_base)
        peer, bad4, _ = timed_stream(c1, fresh, None, spans, "cluster.peer", t_base)
        problems += [f"{n} fresh-key requests failed" for n in (bad3, bad4) if n]
        for path in fresh:
            if c0.get(path)[2] != c1.get(path)[2]:
                problems.append(f"{path}: shard 0 and shard 1 bodies differ")
        c0.close()
        c1.close()
        http_wall = time.perf_counter() - t_base
        after = metric_totals(fleet.metrics())
    finally:
        survivors = fleet.stop()
    if survivors:
        problems.append(f"bdc_serve outlived its fleet: {survivors}")

    # The shards' fresh-key work, replayed in-process: simulation + store.
    steps = []
    for path in fresh:
        q = dict(kv.split("=") for kv in path.split("?", 1)[1].split("&"))
        steps += ["--ipc", f"{q['workload']}:{q['outer']}:{q['instructions']}:1:3"]
    layers, problems_r = replay_layers(bins, scratch, steps, scratch.root)
    problems += problems_r

    delta = {k: after[k] - before[k] for k in after}
    computes = delta["batched_jobs"]
    lookups = delta["stage_hits"] + delta["stage_misses"]
    p50_routed = stats.percentile(routed_lat, 0.5) * 1e3
    p50_direct = stats.percentile(direct_lat, 0.5) * 1e3
    layers.update({
        "exec.stage.hits": delta["stage_hits"],
        "exec.stage.misses": delta["stage_misses"],
        "exec.stage.hit_rate": delta["stage_hits"] / max(1, lookups),
        "serve.direct_p50_ms": p50_direct,
        "serve.direct_p99_ms": stats.percentile(direct_lat, 0.99) * 1e3,
        "serve.connect_ms": stats.median(connect) * 1e3,
        "serve.compute_ms": stats.median(compute) * 1e3,
        "serve.engine.hit_ratio": delta["cache_hits"] / max(1, delta["cache_hits"] + computes),
        "serve.engine.computes": computes,
        "serve.engine.coalesced": delta["coalesced"],
        "serve.engine.shed": delta["queue_shed"],
        "serve.connections": delta["accepted"],
        "cluster.router_hop_ms": p50_routed - p50_direct,
        "cluster.proxied": delta["proxied"],
        "cluster.failovers": delta["failovers"],
        "cluster.breaker_skips": delta["breaker_skips"],
        "cluster.peer_fetch_ms": stats.median(peer) * 1e3,
    })
    # The HTTP window with the routed stream traced, against the same
    # window with the stream bare.
    layers["trace_http"] = (spans, http_wall - bare_wall, http_wall - routed_wall)
    report = [
        f"routed p50 {p50_routed:.4f} ms vs direct {p50_direct:.4f} ms (n={len(stream)} each)",
        f"peer hits during fresh-key fetches: {delta['peer_hits']}",
    ]
    return layers, len(stream) * 3 + 2 * len(fresh), len(problems), problems, report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

RUNNERS = {
    "plan-cold": (run_plan_cold, trace_plan_cold),
    "sweep-vt": (run_sweep_vt, trace_sweep_vt),
    "serve-routed": (run_serve_routed, trace_serve_routed),
}


def compare(dirs):
    """Prints, per workload and metric, each side's median and spread over
    the result records in two directories (e.g. parent and change)."""
    sides = [[json.loads(p.read_text()) for p in sorted(Path(d).glob("*.json"))] for d in dirs]
    if not all(sides):
        log("refusing to compare: a side has no result records")
        return 2
    first = sides[0][0]["stamp"]
    diff = sorted({k for side in sides for r in side
                   for k in stats.stamp_differences(first, r["stamp"], stats.MACHINE_KEYS)})
    if diff:
        log("refusing to compare: environment stamps differ in " + ", ".join(diff))
        return 2
    groups = sorted({(r["workload"], r["trace"]) for side in sides for r in side})
    for workload, trace in groups:
        runs = [[r for r in side if (r["workload"], r["trace"]) == (workload, trace)]
                for side in sides]
        print(f"# {workload} trace={trace}: {len(runs[0])} vs {len(runs[1])} runs")
        for name in runs[0][0]["metrics"] if runs[0] else []:
            vals = [[r["metrics"][name]["value"] for r in side if name in r["metrics"]]
                    for side in runs]
            if not all(vals):
                continue
            (ma, mb), (sa, sb) = ([stats.median(v) for v in vals],
                                  [stats.spread(v) for v in vals])
            change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
            print(f"  {name:30} {ma:12.6g} (spread {sa:.3f})  {mb:12.6g} (spread {sb:.3f})"
                  f"  {change}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="DIR")
    args = ap.parse_args()
    if args.compare:
        return compare(args.compare)
    if not args.workload:
        ap.error("--workload is required")
    # A terminated benchmark still runs its `finally` blocks, which stop
    # the fleet and remove scratch directories.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bins = build()
    stamp = environment_stamp()
    scratch = Scratch(args.workload)
    try:
        measure, trace = RUNNERS[args.workload]
        if args.trace:
            layers, attempted, failed, problems, report = trace(bins, args, scratch)
            metrics = finish_trace(layers)
            for msg in problems:
                log(f"{args.workload}:", msg)
        else:
            values, attempted, failed, report = measure(bins, args, scratch)
            metrics = result_metrics(values)
    finally:
        scratch.remove()

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for line in report:
        print("  " + line)
    print(f"  failed_frac     {failed / attempted:.6f} ratio ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:.6g} {m['unit']}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
