"""Benchmark of wallman: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload cli_tables --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; wallman is imported from its ``src``.
One process runs one workload: it sets up (imports wallman, makes the
inputs from the seed, writes input files), then runs whole passes over the
job list, one job at a time, until ``--seconds`` have passed.  Every job
gets fresh lattice, space and family objects, so no pass reuses the memo
of an earlier one.

End-to-end metrics (``--trace 0``) cover every job run of the timed passes:
``jobs_per_s`` is their number over the seconds they took, ``job_ms.p50``
and ``job_ms.p90`` are percentiles of their latencies, ``setup_s`` is the
median of the set-ups (the first one, and one before every pass, whose
jobs that pass runs), each importing wallman afresh, and ``peak_rss_mb``
is the process's ru_maxrss at the end.  The set-ups are spread over the
run so that they meet the same host speed as the jobs.  ``failed_ratio``,
the share of job runs that failed, is printed with them.  With
``--trace 1`` the layer metrics of `tracing` come from traced passes that
alternate with untraced ones.

Outputs are checked outside the timed region:

* exit codes against the expected ones (exit 2 is expected for some
  fixtures, and one known defect is expected to raise; it is reported on
  its own line, not as a failure);
* digests of the canonical output against the first pass, and against
  the digests recorded in ``expected.json`` for the seeds listed there;
* oracle checks that hold for any seed (see ``workloads``).

The last line of stdout is a JSON object with the metrics.  A full report,
and with tracing the spans of the first traced pass, are written under
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field

from tracing import LAYERS, Tracer, metric_names, span_metrics
from workloads import BUILDERS, size_class

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("cli_tables", "keyed_library", "cert_rank")
# covers iterates over sets of member ids; a fixed hash seed keeps the
# order, and with it every count, repeatable.
HASH_SEED = "0"
MIN_JOBS = 100  # distinct jobs per pass, so that ten or more lie beyond p90
MIN_PASSES = 3  # so that one burst of host noise hits a few samples only
SPIN_ITERATIONS = 2_000_000
MODULES = ("lattice", "filters", "spaces", "homs", "covers", "io", "cli", "gen")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_wallman():
    """Import wallman afresh from the checkout, as a namespace of modules."""
    for name in [m for m in sys.modules if m == "wallman" or m.startswith("wallman.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("wallman")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"wallman imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"wallman.{m}") for m in MODULES}
    )


def spin_seconds() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i
    return time.perf_counter() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def digest(code, data) -> str:
    text = json.dumps([code, data], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pass_digest(digests: list) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


@contextlib.contextmanager
def scratch_dir():
    """Work in a directory of this process under OUT; removed afterwards."""
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.chdir(work)
    try:
        yield
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def run_pass(jobs, tracer=None) -> list:
    """Run every job once; returns (seconds, exit code, raw output) each."""
    gc.collect()
    clock = time.perf_counter
    out = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        start = clock()
        try:
            code, raw = job.run()
        except Exception as exc:  # a job that raises counts as failed
            code, raw = f"raised {type(exc).__name__}", str(exc)
        out.append((clock() - start, code, raw))
    return out


class Checker:
    """Judges every job execution; counts failures and keeps problems."""

    def __init__(self, jobs, expected_jobs):
        self.jobs = jobs
        self.expected = expected_jobs  # job id -> digest, or None
        self.first = None  # digests of the first pass
        self.bad = set()  # jobs whose pass-one output fails an oracle
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def judge(self, results) -> list:
        digests = []
        for job, (_, code, raw) in zip(self.jobs, results):
            ok = code == job.expect_exit
            exited = ok and isinstance(code, int)  # a raise has no output
            data = job.canon(raw) if exited else raw
            d = digest(code, data)
            digests.append(d)
            if self.first is None and exited and job.check is not None:
                problem = job.check(data)
                if problem:
                    self.bad.add(job.id)
                    self.problems.append(f"{job.id}: {problem}")
            if not ok:
                self.problems.append(f"{job.id}: exit {code!r}, expected {job.expect_exit}: {raw!r:.200}")
            elif self.first is not None and d != self.first[len(digests) - 1]:
                ok = False
                self.problems.append(f"{job.id}: output differs from pass one")
            elif self.expected is not None and self.expected.get(job.id) != d:
                ok = False
                self.problems.append(f"{job.id}: digest {d} != recorded {self.expected.get(job.id)}")
            self.attempted += 1
            self.failed += not ok or job.id in self.bad
        if self.first is None:
            self.first = digests
        return digests


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def set_up(workload: str, seed: int, setups: list) -> list:
    """Import wallman and build the jobs; appends the seconds to setups."""
    start = time.perf_counter()
    jobs = BUILDERS[workload](import_wallman(), seed)
    setups.append(time.perf_counter() - start)
    return jobs


def traced_set_up(workload: str, seed: int):
    """set_up under a tracer; returns (jobs, tracer, gen.ms)."""
    w = import_wallman()
    tracer = Tracer()
    tracer.install()
    try:
        jobs = BUILDERS[workload](w, seed)
    finally:
        tracer.uninstall()
    return jobs, tracer, span_metrics(tracer)["gen.ms"]


@dataclass
class Measurement:
    samples: list  # per job: seconds of each untraced execution
    walls: list = field(default_factory=list)  # untraced passes, seconds
    traced_walls: list = field(default_factory=list)
    layer_runs: list = field(default_factory=list)  # span_metrics per traced pass
    spans: list = None  # spans of the first traced pass
    pass_digests: set = field(default_factory=set)


def measure(jobs, checker: Checker, tracer, seconds: float, rebuild=None) -> Measurement:
    """Whole passes until `seconds` are spent.

    Without a tracer every pass runs on the jobs of a fresh `rebuild()`.
    With a tracer each round has an untraced pass, a traced one and one
    that counts meet and join calls, the wrappers installed for that pass
    only.  The untraced and traced passes swap places every other round,
    and there are at least two rounds, so that a drift in host speed
    cancels out of trace.overhead_ratio.
    """
    m = Measurement([[] for _ in jobs])

    def untraced():
        nonlocal jobs
        if rebuild is not None:
            jobs = rebuild()
        begin = time.perf_counter()
        results = run_pass(jobs)
        m.walls.append(time.perf_counter() - begin)
        for times, (dt, _, _) in zip(m.samples, results):
            times.append(dt)
        m.pass_digests.add(pass_digest(checker.judge(results)))

    def traced(count_meet_join: bool):
        tracer.install(count_meet_join)
        try:
            begin = time.perf_counter()
            results = run_pass(jobs, tracer)
            wall = time.perf_counter() - begin
        finally:
            tracer.uninstall()
        if not count_meet_join:
            m.traced_walls.append(wall)
        m.pass_digests.add(pass_digest(checker.judge(results)))

    min_rounds = MIN_PASSES if tracer is None else 2
    started = time.perf_counter()
    while True:
        if tracer is None:
            untraced()
        else:
            tracer.reset()
            if len(m.walls) % 2:
                traced(False)
                untraced()
            else:
                untraced()
                traced(False)
            traced(True)
            layers = span_metrics(tracer)
            layers["lattice.meet_join_calls"] = tracer.meet_join
            m.layer_runs.append(layers)
            if m.spans is None:
                m.spans = tracer.spans
        elapsed = time.perf_counter() - started
        if len(m.walls) >= min_rounds and elapsed * (1 + 1 / len(m.walls)) > seconds:
            return m


def end_to_end_metrics(m: Measurement, setups: list) -> dict:
    flat = [t for times in m.samples for t in times]
    return {
        "jobs_per_s": (len(flat) / sum(flat), "jobs/s"),
        "job_ms.p50": (statistics.median(flat) * 1000.0, "ms"),
        "job_ms.p90": (quantile(flat, 0.90) * 1000.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(m: Measurement, gen_ms: float) -> tuple:
    """Self times are medians over the traced passes; counts come from the
    first traced pass.  Also returns the counts that other passes did not
    repeat, which would mean that state leaks from one pass to the next."""
    first = m.layer_runs[0]
    out, unrepeated = {}, []
    for name, unit in metric_names():
        if unit == "ratio":
            continue
        if unit == "ms":
            value = statistics.median(r[name] for r in m.layer_runs)
        else:
            value = first[name]
            if any(r[name] != value for r in m.layer_runs):
                unrepeated.append(name)
        out[name] = (value, unit)
    out["gen.ms"] = (gen_ms, "ms")
    cands = first["filters.candidates"]
    out["filters.yield"] = (first["filters.found"] / cands if cands else 0.0, "ratio")
    out["trace.overhead_ratio"] = (sum(m.traced_walls) / sum(m.walls), "ratio")
    return out, unrepeated


def environment(load_start) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "spin_s": spin_seconds(),
        "spin_iterations": SPIN_ITERATIONS,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def size_classes(jobs, m: Measurement) -> dict:
    classes = {}
    for job, times in zip(jobs, m.samples):
        c = classes.setdefault(size_class(job.tags), {"jobs": 0, "busy_s": 0.0})
        c["jobs"] += len(times)
        c["busy_s"] += sum(times)
    return classes


def known_defects(jobs) -> list:
    """Jobs whose expected outcome is an exception cli.main does not map
    to an exit code."""
    return [job for job in jobs if isinstance(job.expect_exit, str)]


def print_summary(args, jobs, m, shown, setups, classes, env, checker) -> None:
    n_timed = sum(map(len, m.samples))
    busy = sum(map(sum, m.samples))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(m.walls)} passes "
        f"of {len(jobs)} jobs, {n_timed} timed jobs, {busy:.2f} s busy"
    )
    counts = {
        "setup_s": f"{len(setups)} set-ups",
        "peak_rss_mb": "1 process",
        "failed_ratio": f"{checker.attempted} attempted",
    }
    for name, (value, unit) in shown.items():
        if name.startswith("job"):
            n = f"{n_timed} = {len(jobs)} jobs x {len(m.walls)} passes"
        else:
            n = counts.get(name, f"{len(m.layer_runs)} traced passes")
        print(f"  {name:26s} {value:14.6g} {unit:8s} (n={n})")
    if args.trace:
        for layer in LAYERS:
            print(f"  {layer.ms} should move {layer.target}")
    for label, c in sorted(classes.items()):
        print(
            f"  class {label:26s} {c['jobs']:6d} jobs, {c['busy_s'] / busy:7.2%} of busy time"
        )
    print(
        f"  env: python {env['python']}, nproc {env['nproc']}, {env['cpu']}, load "
        f"{env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}, "
        f"spin {env['spin_s']:.3f} s (recorded, never used to normalise)"
    )
    for job in known_defects(jobs):
        print(f"  known defect {job.id}: {job.expect_exit}, as expected (not counted as failed)")
    for p in checker.problems[:20]:
        print(f"  FAILED {p}", file=sys.stderr)


def write_report(args, jobs, m, shown, setups, classes, env, checker) -> None:
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "pass_wall_s": m.walls,
        "traced_pass_wall_s": m.traced_walls,
        "setup_s": setups,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "pass_digests": sorted(m.pass_digests),
        "size_classes": classes,
        "jobs": [
            {
                "id": job.id,
                "tags": job.tags,
                "digest": d,
                "samples_ms": [t * 1000.0 for t in times],
            }
            for job, d, times in zip(jobs, checker.first, m.samples)
        ],
        "known_defects": {job.id: job.expect_exit for job in known_defects(jobs)},
        "problems": checker.problems,
    }
    if args.trace:
        report["layer_targets"] = {layer.ms: layer.target for layer in LAYERS}
    os.makedirs(OUT, exist_ok=True)
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if m.spans is not None:
        with gzip.open(stem + "-spans.json.gz", "wt") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job", "self"],
                    "jobs": [job.id for job in jobs],
                    "spans": m.spans,
                },
                fh,
            )


def run_workload(args) -> int:
    load_start = os.getloadavg()
    expected = load_expected()
    per_job = expected["jobs"].get(args.workload) if args.seed == expected["seed"] else None
    pass_expected = expected["passes"].get(args.workload, {}).get(str(args.seed))
    with scratch_dir():
        setups = []
        if args.trace:
            jobs, tracer, gen_ms = traced_set_up(args.workload, args.seed)
            rebuild = None
        else:
            jobs, tracer, gen_ms = set_up(args.workload, args.seed, setups), None, 0.0
            rebuild = functools.partial(set_up, args.workload, args.seed, setups)
        if len(jobs) < MIN_JOBS:
            raise RuntimeError(f"{args.workload} has {len(jobs)} jobs, fewer than {MIN_JOBS}")
        checker = Checker(jobs, per_job)
        m = measure(jobs, checker, tracer, args.seconds, rebuild)
    if pass_expected is not None and m.pass_digests != {pass_expected}:
        checker.problems.append(f"pass digests {sorted(m.pass_digests)} != recorded {pass_expected}")
    if tracer is None:
        metrics = end_to_end_metrics(m, setups)
        shown = dict(metrics, failed_ratio=(checker.failed / checker.attempted, "fraction"))
    else:
        metrics, unrepeated = layer_metrics(m, gen_ms)
        shown = metrics
        for name in unrepeated:
            checker.problems.append(f"{name} differs between traced passes")
    env = environment(load_start)
    classes = size_classes(jobs, m)
    print_summary(args, jobs, m, shown, setups, classes, env, checker)
    write_report(args, jobs, m, shown, setups, classes, env, checker)
    print(
        json.dumps(
            {
                "correct": not checker.problems,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if checker.problems else 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
    print(json.dumps(results))
    return code


def fix_hash_seed(script: str) -> None:
    """Re-execute the script under PYTHONHASHSEED=HASH_SEED if needed."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)


def have_sources() -> bool:
    if os.path.isfile(os.path.join(SRC, "wallman", "__init__.py")):
        return True
    print(f"error: no wallman sources under {SRC}", file=sys.stderr)
    return False


def main(argv=None) -> int:
    args = parse_args(argv)
    fix_hash_seed(os.path.abspath(__file__))
    if not have_sources():
        return 1
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
