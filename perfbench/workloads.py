"""The benchmark's three workloads: seeded inputs, timed units, metrics.

Every workload is serial and closed-loop: ``run.py`` starts one child
process (or sends one request) at a time and waits for it, so on the
2-core machines this is sized for, one core runs the measured work and
the other absorbs ``run.py`` and the operating system.

* ``tune-cold`` — one fresh process per job doing what ``repro tune``
  does. A draw is four Table-4 jobs, one per (fabric, size) stratum
  {L4 seq 2048, A100-40GB seq 4096} x {2.7b, 6.7b}, the family drawn by
  the seed; three draws make a cycle in which each stratum meets every
  family once. Balancing keeps the work of a run the same for every
  seed: job time depends on size and fabric more than on family.
* ``fig11-slice`` — one fresh process per model family runs
  ``compare_systems`` over megatron/deepspeed/mist on the Fig. 11 L4
  points 1.3b (L4x2, B32) and 2.7b (L4x4, B64). A run sweeps all three
  families in a seeded order: a single family's sweep time differs from
  another's by up to a quarter, more than any bound could absorb.
* ``serve-revisit`` — rounds of a spawned ``repro serve`` (thread tier,
  two workers, fresh cache directory) and one client: a warm-up job,
  phase A (every job of a 24-job smoke-scale pool, in seeded order,
  each a search plus a ``PlanCache.store``), then phase B (seeded
  revisits of the pool, each a ``PlanCache`` read plus HTTP).

Run sizes are fixed from ``--seconds`` and nominal unit costs, so the
same seed and seconds always do the same work.
"""

from __future__ import annotations

import json
import math
import queue
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from spans import COUNTERS, LAYERS, Recorder, attribute, merge

from repro.api import PlanCache, SolveReport, TuningJob, solve
from repro.benchmarking import plan_hash
from repro.core.plan import TrainingPlan
from repro.evaluation.workloads import batch_for_size, gpu_count_for_size
from repro.service import Client, ServiceError

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"

FAMILIES = ("gpt3", "llama", "falcon")
#: tune-cold strata: (gpu, seq_len) fabrics x Table-4 sizes
TUNE_FABRICS = (("L4", 2048), ("A100-40GB", 4096))
TUNE_SIZES = ("2.7b", "6.7b")
SLICE_SIZES = ("1.3b", "2.7b")
SERVE_SIZES = ("1.3b", "2.7b")
SERVE_BATCHES = (8, 16, 32, 64)
SERVE_WORKERS = 2
#: phase-B revisits of each pool job per serve round (24 jobs: 1008
#: revisits, which leaves >= 10 samples beyond the p99)
SERVE_REVISITS = 42
#: client poll period while a phase-A search runs
SERVE_POLL_S = 0.02
#: in-process plan-cache revisits of each answered job on tune-cold and
#: fig11-slice
CACHE_REVISITS = 60
WARMUP_JOB = TuningJob(model="gpt3-1.3b", gpu="L4", num_gpus=2,
                       global_batch=4, scale="smoke")

#: nominal seconds of one cycle on a 2-core x86 VM, to size runs: the
#: 12-job tune pool, the three slice families, one daemon round
NOMINAL_S = {"tune-cold": 19.0, "fig11-slice": 30.0, "serve-revisit": 6.5}
CHILD_TIMEOUT_S = 150.0
TERMINAL = ("done", "failed", "cancelled")


def tune_job(family: str, size: str, gpu: str, seq_len: int) -> TuningJob:
    return TuningJob(model=f"{family}-{size}", gpu=gpu,
                     num_gpus=gpu_count_for_size(size),
                     global_batch=batch_for_size(size), seq_len=seq_len,
                     scale="quick")


def tune_pool() -> list[TuningJob]:
    return [tune_job(family, size, gpu, seq)
            for family in FAMILIES for gpu, seq in TUNE_FABRICS
            for size in TUNE_SIZES]


def serve_pool() -> list[TuningJob]:
    return [TuningJob(model=f"{family}-{size}", gpu="L4",
                      num_gpus=gpu_count_for_size(size), global_batch=batch,
                      scale="smoke")
            for family in FAMILIES for size in SERVE_SIZES
            for batch in SERVE_BATCHES]


def job_key(job: TuningJob) -> str:
    return (f"{job.model}/{job.gpu}x{job.num_gpus}/B{job.global_batch}"
            f"/s{job.seq_len}/{job.scale}")


def megatron_key(job: TuningJob) -> str:
    """Megatron's grid search ignores the tuning scale."""
    return job_key(job).rsplit("/", 1)[0]


def units_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_S[workload]))


# -- correctness ----------------------------------------------------------

class Golden:
    """Committed plan hashes and simulated throughputs (golden.json)."""

    def __init__(self, path: Path = GOLDEN) -> None:
        self.data = json.loads(path.read_text())

    def matches(self, section: str, key: str, plan: TrainingPlan | None,
                throughput: float) -> bool:
        entry = self.data[section].get(key)
        return (entry is not None and plan is not None
                and entry["plan_hash"] == plan_hash(plan)
                and entry["samples_per_s"] == throughput)

    def megatron(self, job: TuningJob) -> float:
        return self.data["megatron"][megatron_key(job)]


@dataclass
class Tally:
    """Operations attempted and the ones that failed, with why."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# -- child processes ------------------------------------------------------

@dataclass
class Unit:
    """One measured child process, times from ``time.monotonic_ns()``."""

    spawn_ns: int
    exit_ns: int
    result: dict

    @property
    def setup_s(self) -> float:
        return (self.result["ready_ns"] - self.spawn_ns) / 1e9

    @property
    def wall_s(self) -> float:
        return (self.exit_ns - self.spawn_ns) / 1e9

    @property
    def work_s(self) -> float:
        return (self.result["done_ns"] - self.result["ready_ns"]) / 1e9


class Children:
    """Starts child processes one at a time, results under ``tmp``."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.count = 0

    def spec(self, kind: str, traced: bool, **inputs: Any) -> dict:
        self.count += 1
        out = self.tmp / f"{kind}-{self.count}.json"
        return {"kind": kind, "trace": traced, "out": str(out),
                "trace_id": f"{kind}-{self.count}", **inputs}

    def run(self, spec: dict) -> Unit | None:
        argv = [sys.executable, str(CHILD), json.dumps(spec)]
        spawn = time.monotonic_ns()
        try:
            proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {spec['trace_id']} timed out",
                  file=sys.stderr)
            return None
        exit_ns = time.monotonic_ns()
        if proc.returncode != 0:
            print(f"perfbench: {spec['trace_id']} exited "
                  f"{proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return Unit(spawn, exit_ns, json.loads(Path(spec["out"]).read_text()))


# -- metrics --------------------------------------------------------------

def balanced(items: list, repeats: int, rng: random.Random) -> list:
    """Each item ``repeats`` times, in seeded order.

    Revisit latency differs from job to job (report sizes differ), so
    every seed revisits the same mix; otherwise the median would move
    with the mix instead of with the program.
    """
    sequence = [item for item in items for _ in range(repeats)]
    rng.shuffle(sequence)
    return sequence


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


class Revisits:
    """In-process ``solve(job, cache=...)`` hits on answered Mist jobs.

    This is the path ``repro tune --cache-dir`` takes when a question is
    asked again; it is what ``serve_hit_p50_ms`` reads on the workloads
    without a daemon. Each answer is revisited right after it arrives,
    so the sub-millisecond samples spread over the whole run instead of
    landing in one burst that a busy neighbour could slow as a block.
    """

    def __init__(self, cache_dir: Path, rng: random.Random,
                 tally: Tally) -> None:
        self.cache = PlanCache(cache_dir)
        self.rng = rng
        self.tally = tally
        self.latencies_ms: list[float] = []

    def answered(self, reports: list[SolveReport]) -> None:
        for report in reports:
            self.cache.store(report)
            # untimed: the first hits after this process slept through a
            # child's run are several times slower than the rest
            solve(report.job, "mist", cache=self.cache)
        for report in balanced(reports, CACHE_REVISITS, self.rng):
            start = time.monotonic_ns()
            hit = solve(report.job, "mist", cache=self.cache)
            self.latencies_ms.append((time.monotonic_ns() - start) / 1e6)
            self.tally.op(hit.from_cache and hit.plan == report.plan,
                          f"revisit {job_key(report.job)}")


def end_to_end(*, setup: list[float], tune_cold: float, sweep: float,
               serve_miss: float, hit_ms: list[float],
               throughputs: list[float], speedups: list[float],
               rss: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "tune_cold_s": (tune_cold, "s"),
        "sweep_s": (sweep, "s"),
        "serve_miss_s": (serve_miss, "s"),
        "serve_hit_p50_ms": (statistics.median(hit_ms), "ms"),
        "plan_samples_per_s": (geomean(throughputs), "samples/s"),
        "mist_speedup_vs_megatron": (geomean(speedups), "x"),
        "peak_rss_mb": (max(rss), "MB"),
    }


def schedule(items: list, traced: bool) -> list[tuple[Any, bool]]:
    """``(item, with_trace)`` pairs for a run.

    A traced run traces every unit and also runs the first one
    untraced, the reference for the tracing overhead.
    """
    if not traced:
        return [(item, False) for item in items]
    return [(items[0], False)] + [(item, True) for item in items]


def per_layer(units: list[tuple[list[dict], list[tuple[int, int]]]],
              overhead_share: float,
              service: dict[str, float] | None = None
              ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced units.

    ``units`` pairs the span payloads of one unit's processes with the
    windows its wall time covers; ``overhead_share`` is the first
    unit's traced wall time over its untraced one, minus one.
    """
    rows = {name: {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
            for name in LAYERS}
    counters: dict[str, dict[str, int]] = {
        layer: dict.fromkeys(names, 0) for layer, names in COUNTERS.items()}
    wall = unattributed = 0.0
    for processes, windows in units:
        found = attribute(processes, windows)
        wall += found["wall_s"]
        unattributed += found["unattributed_s"]
        for name, row in found["layers"].items():
            for key in row:
                rows[name][key] += row[key]
        for payload in processes:
            for layer, values in payload["counters"].items():
                for key, value in values.items():
                    counters[layer][key] += value
    out: dict[str, tuple[float, str]] = {}
    for name, row in rows.items():
        out[f"{name}.busy_s"] = (row["busy_s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
        out[f"{name}.calls"] = (row["calls"], "count")
    for name in COUNTERS["core.search"]:
        out[f"core.search.{name}"] = (counters["core.search"][name], "count")
    runs = rows["execution.simulate"]["calls"]
    oom = counters["execution.simulate"]["oom"]
    out["execution.simulate.oom"] = (oom, "count")
    out["execution.simulate.useful_ratio"] = (
        (runs - oom) / runs if runs else 0.0, "ratio")
    for name in COUNTERS["baselines.grid"]:
        out[f"baselines.grid.{name}"] = (counters["baselines.grid"][name],
                                         "count")
    loads = counters["api.cache"]["loads"]
    out["api.cache.hit_ratio"] = (
        counters["api.cache"]["hits"] / loads if loads else 0.0, "ratio")
    service = service or {}
    out["service.http.queue_wait_p50_s"] = (
        service.get("queue_wait_p50_s", 0.0), "s")
    out["service.http.solver_invocations"] = (
        service.get("solver_invocations", 0), "count")
    out["wall_s"] = (wall, "s")
    out["unattributed_s"] = (unattributed, "s")
    out["unattributed_share"] = (unattributed / wall if wall else 0.0,
                                 "ratio")
    out["tracing_overhead_share"] = (overhead_share, "ratio")
    return out


@dataclass
class Outcome:
    """What one run measured."""

    tally: Tally
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)
    #: traced runs: every unit's span payloads, written when the run ends
    trace: list[dict] = field(default_factory=list)


# -- tune-cold ------------------------------------------------------------

def tune_cold(seed: int, seconds: int, traced: bool, tmp: Path,
              golden: Golden) -> Outcome:
    rng = random.Random(seed)
    strata = [(size, gpu, seq) for gpu, seq in TUNE_FABRICS
              for size in TUNE_SIZES]
    jobs: list[TuningJob] = []
    for _ in range(units_for("tune-cold", seconds)):
        # one cycle: each stratum meets every family once, in seeded order
        orders = [rng.sample(FAMILIES, len(FAMILIES)) for _ in strata]
        for turn in range(len(FAMILIES)):
            draw = [tune_job(order[turn], *stratum)
                    for order, stratum in zip(orders, strata)]
            rng.shuffle(draw)
            jobs += draw
    children = Children(tmp)
    tally = Tally()
    plain: list[Unit] = []
    traced_units: list[Unit] = []
    reports: list[SolveReport] = []
    revisits = Revisits(tmp / "revisits", rng, tally)
    for job, with_trace in schedule(jobs, traced):
        unit = children.run(children.spec("tune", with_trace,
                                          job=job.to_dict()))
        report = (SolveReport.from_json(unit.result["report"])
                  if unit is not None else None)
        tally.op(report is not None and golden.matches(
            "tune", job_key(job), report.plan, report.throughput),
            f"tune {job_key(job)}")
        if unit is None or report is None or report.plan is None:
            continue
        (traced_units if with_trace else plain).append(unit)
        if not with_trace:
            reports.append(report)
            revisits.answered([report])
    if traced:
        return _traced_outcome(tally, plain, traced_units)
    if not reports:
        return Outcome(tally, {})
    work = statistics.fmean(u.work_s for u in plain)
    return Outcome(tally, end_to_end(
        setup=[u.setup_s for u in plain],
        tune_cold=statistics.fmean(u.wall_s for u in plain),
        sweep=work, serve_miss=work, hit_ms=revisits.latencies_ms,
        throughputs=[r.throughput for r in reports],
        speedups=[r.throughput / golden.megatron(r.job) for r in reports],
        rss=[u.result["rss_mb"] for u in plain]))


def _traced_outcome(tally: Tally, plain: list[Unit],
                    traced_units: list[Unit]) -> Outcome:
    units = [([u.result["trace"]], [(u.spawn_ns, u.exit_ns)])
             for u in traced_units]
    overhead = (traced_units[0].wall_s / plain[0].wall_s - 1
                if plain and traced_units else 0.0)
    return Outcome(tally, per_layer(units, overhead),
                   trace=_trace_dump(units))


def _trace_dump(units: list[tuple[list[dict], list[tuple[int, int]]]]
                ) -> list[dict]:
    """The trace file: per unit, ``[process, id, layer, start_ns,
    end_ns, parent, trace_id]`` rows, daemon spans under the request
    that caused them."""
    return [{"unit": i, "windows": windows,
             "spans": [[p, sid, layer, start, end, parent, trace]
                       for (p, sid), (layer, start, end, parent, trace, _)
                       in merge(processes, windows).items()]}
            for i, (processes, windows) in enumerate(units)]


# -- fig11-slice ----------------------------------------------------------

def fig11_slice(seed: int, seconds: int, traced: bool, tmp: Path,
                golden: Golden) -> Outcome:
    rng = random.Random(seed)
    families = [family for _ in range(units_for("fig11-slice", seconds))
                for family in rng.sample(FAMILIES, len(FAMILIES))]
    children = Children(tmp)
    tally = Tally()
    plain: list[Unit] = []
    traced_units: list[Unit] = []
    points: list[dict] = []
    revisits = Revisits(tmp / "revisits", rng, tally)
    for family, with_trace in schedule(families, traced):
        unit = children.run(children.spec(
            "slice", with_trace, family=family, sizes=SLICE_SIZES))
        if unit is None:
            tally.op(False, f"slice {family}")
            continue
        for point in unit.result["points"]:
            for system, outcome in point["outcomes"].items():
                plan = outcome["plan"]
                tally.op(outcome["throughput"] > 0 and golden.matches(
                    "slice", f"{point['name']}/{system}",
                    TrainingPlan.from_dict(plan) if plan else None,
                    outcome["throughput"]),
                    f"slice {point['name']}/{system}")
        (traced_units if with_trace else plain).append(unit)
        if with_trace:
            continue
        found = [p for p in unit.result["points"]
                 if all(o["throughput"] > 0 for o in p["outcomes"].values())]
        points += found
        revisits.answered([SolveReport(
            solver="mist", job=TuningJob.from_dict(p["job"]),
            plan=TrainingPlan.from_dict(p["outcomes"]["mist"]["plan"]),
            measured={"throughput": p["outcomes"]["mist"]["throughput"]})
            for p in found])
    if traced:
        return _traced_outcome(tally, plain, traced_units)
    if not points:
        return Outcome(tally, {})
    work = sum(u.work_s for u in plain)
    return Outcome(tally, end_to_end(
        setup=[u.setup_s for u in plain],
        tune_cold=statistics.fmean(u.wall_s for u in plain),
        sweep=work / len(plain), serve_miss=work / len(points),
        hit_ms=revisits.latencies_ms,
        throughputs=[p["outcomes"]["mist"]["throughput"] for p in points],
        speedups=[p["outcomes"]["mist"]["throughput"]
                  / p["outcomes"]["megatron"]["throughput"] for p in points],
        rss=[u.result["rss_mb"] for u in plain]))


# -- serve-revisit --------------------------------------------------------

_URL_RE = re.compile(r"http://[\d.]+:\d+")


@dataclass
class Round:
    """One daemon lifetime as the client saw it."""

    spawn_ns: int
    ready_ns: int = 0
    end_ns: int = 0
    miss_s: list[float] = field(default_factory=list)
    phase_a_s: float = 0.0
    hit_ms: list[float] = field(default_factory=list)
    throughputs: dict[str, float] = field(default_factory=dict)
    server: dict = field(default_factory=dict)
    daemon: dict = field(default_factory=dict)
    client_trace: dict | None = None

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.spawn_ns) / 1e9


def _ask(client: Client, job: TuningJob) -> dict:
    record = client.submit(job)
    if record["status"] not in TERMINAL:
        record = client.wait(record["id"], timeout=CHILD_TIMEOUT_S,
                             poll_interval=SERVE_POLL_S)
    return record


def _check_record(record: dict | None, job: TuningJob, golden: Golden,
                  from_cache: bool) -> float:
    """The served plan's throughput, or 0.0 when it is wrong."""
    if record is None or record["status"] != "done" \
            or bool(record["from_cache"]) != from_cache:
        return 0.0
    report = record["report"]
    plan = TrainingPlan.from_dict(report["plan"]) if report["plan"] else None
    throughput = float(report["measured"].get("throughput", 0.0))
    ok = golden.matches("serve", job_key(job), plan, throughput)
    return throughput if ok else 0.0


class _Daemon:
    """The daemon child, its banner URL and a drained stdout pipe."""

    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.spawn_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.lines: queue.Queue[str | None] = queue.Queue()
        self.tail: list[str] = []
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def url(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            if line is None:
                raise RuntimeError("daemon exited before listening: "
                                   + "".join(self.tail[-20:]))
            self.tail.append(line)
            match = _URL_RE.search(line)
            if match:
                return match.group(0)

    def stop(self) -> dict:
        """SIGTERM, wait, and read the result the child wrote."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.reader.join(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        try:
            return json.loads(Path(self.spec["out"]).read_text())
        except (OSError, ValueError):
            return {}


def serve_round(children: Children, traced: bool, order: list[TuningJob],
                revisits: list[TuningJob], golden: Golden,
                tally: Tally) -> Round:
    spec = children.spec("serve", traced, workers=SERVE_WORKERS)
    spec["cache_dir"] = str(Path(spec["out"]).with_suffix(".plans"))
    daemon = _Daemon(spec)
    rnd = Round(spawn_ns=daemon.spawn_ns)
    recorder = Recorder() if traced else None
    try:
        client = Client(daemon.url(), timeout=CHILD_TIMEOUT_S)
        deadline = time.monotonic() + 60
        while True:
            try:
                if client.health().get("status") == "ok":
                    break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.01)
        if recorder is not None:
            recorder.install()

        def request(job: TuningJob, trace_id: str) -> dict | None:
            if recorder is not None:
                recorder.trace_id = trace_id
            try:
                return _ask(client, job)
            except (ServiceError, TimeoutError, OSError):
                return None

        warm = request(WARMUP_JOB, "warmup")
        tally.op(_check_record(warm, WARMUP_JOB, golden, False) > 0,
                 "serve warm-up")
        rnd.ready_ns = time.monotonic_ns()
        for n, job in enumerate(order):
            start = time.monotonic_ns()
            record = request(job, f"miss-{n}")
            rnd.miss_s.append((time.monotonic_ns() - start) / 1e9)
            throughput = _check_record(record, job, golden, False)
            if tally.op(throughput > 0, f"serve miss {job_key(job)}"):
                rnd.throughputs[job_key(job)] = throughput
        rnd.phase_a_s = (time.monotonic_ns() - rnd.ready_ns) / 1e9
        for n, job in enumerate(revisits):
            start = time.monotonic_ns()
            record = request(job, f"hit-{n}")
            rnd.hit_ms.append((time.monotonic_ns() - start) / 1e6)
            tally.op(_check_record(record, job, golden, True) > 0,
                     f"serve hit {job_key(job)}")
        rnd.end_ns = time.monotonic_ns()
        snapshot = client.metrics()
        invocations = snapshot["solver"]["invocations"]
        tally.op(invocations == len(order) + 1,
                 f"solver.invocations {invocations} != {len(order) + 1}")
        rnd.server = {"solver_invocations": invocations - 1,
                      "queue_wait_p50_s": snapshot["latency"]["wait_p50"]}
    except (RuntimeError, ServiceError, OSError, queue.Empty) as exc:
        tally.op(False, f"serve round: {type(exc).__name__}: {exc}")
    finally:
        if recorder is not None:
            recorder.uninstall()
            rnd.client_trace = recorder.dump()
        rnd.daemon = daemon.stop()
    return rnd


def serve_revisit(seed: int, seconds: int, traced: bool, tmp: Path,
                  golden: Golden) -> Outcome:
    rng = random.Random(seed)
    pool = serve_pool()
    plan = [(rng.sample(pool, len(pool)),
             balanced(pool, SERVE_REVISITS, rng))
            for _ in range(units_for("serve-revisit", seconds))]
    children = Children(tmp)
    tally = Tally()
    plain: list[Round] = []
    traced_rounds: list[Round] = []
    for (order, revisits), with_trace in schedule(plan, traced):
        rnd = serve_round(children, with_trace, order, revisits, golden,
                          tally)
        if rnd.end_ns:
            (traced_rounds if with_trace else plain).append(rnd)
    if traced:
        units = [([r.client_trace, r.daemon["trace"]],
                  [(r.spawn_ns, r.end_ns)]) for r in traced_rounds
                 if r.client_trace and r.daemon.get("trace")]
        service = {
            "solver_invocations": sum(r.server.get("solver_invocations", 0)
                                      for r in traced_rounds),
            "queue_wait_p50_s": statistics.median(
                r.server.get("queue_wait_p50_s", 0.0) for r in traced_rounds)
            if traced_rounds else 0.0}
        overhead = (traced_rounds[0].wall_s / plain[0].wall_s - 1
                    if plain and traced_rounds else 0.0)
        return Outcome(tally, per_layer(units, overhead, service),
                       trace=_trace_dump(units))
    if not plain or not plain[0].throughputs:
        return Outcome(tally, {})
    hits = [ms for r in plain for ms in r.hit_ms]
    throughputs = plain[0].throughputs
    pool_by_key = {job_key(job): job for job in pool}
    # round-level figures are medians over rounds, robust to one round
    # that a busy neighbour slowed down
    return Outcome(tally, end_to_end(
        setup=[(r.ready_ns - r.spawn_ns) / 1e9 for r in plain],
        tune_cold=statistics.median(statistics.fmean(r.miss_s)
                                    for r in plain),
        sweep=statistics.median((r.end_ns - r.ready_ns) / 1e9
                                for r in plain),
        serve_miss=statistics.median(r.phase_a_s / len(r.miss_s)
                                     for r in plain),
        hit_ms=hits, throughputs=list(throughputs.values()),
        speedups=[t / golden.megatron(pool_by_key[k])
                  for k, t in throughputs.items()],
        rss=[r.daemon.get("rss_mb", 0.0) for r in plain]),
        notes=[f"serve_hit_p99_ms {sorted(hits)[int(0.99 * len(hits))]:.4f}"
               f" over {len(hits)} revisits (not gated)"])


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "tune-cold": tune_cold,
    "fig11-slice": fig11_slice,
    "serve-revisit": serve_revisit,
}
