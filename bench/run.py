"""liecoh benchmark: exact-cohomology CLI queries on seeded su(3) inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn and prints each one's
metrics by name and unit.

Run from a checkout of the repository; the library is imported from its
``src/`` directory, so nothing needs installing.  Workloads, end-to-end
metrics and per-layer metrics are declared in ``BENCHMARK.json``.

--trace 0 is a closed loop with one client: one ``liecoh ... --json``
query at a time, each in a fresh child process, cycling through the
workload's queries on every seeded presentation until S seconds have
passed.  It reports the end-to-end metrics.  Their times are each
child's CPU time from spawn to exit, given in seconds of a nominal host
(see hostclock.py): a shared host can drift in speed by up to 2x within
seconds, and that drift would otherwise swamp any change of the program.
The detail line before the result also gives the raw wall-clock figures.

--trace 1 runs the queries of the first presentation in process through
``liecoh.cli.main``, alternately untraced and with span wrappers
installed (see spans.py), then once more counting scalar operations.
It reports the per-layer metrics.

A query whose argv ran before must print byte-identical JSON; the traced
run repeats every argv, the plain run whenever the cycle comes round.

Every output is checked (see workloads.py).  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics;
the lines before it describe the run.  The benchmark leaves
LIECOH_THREADS unset, in its children and in process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

QUERY_TIMEOUT_S = 60.0
RUN_BUDGET_S = 165.0  # a workload's run, set-up included, must end within 180 s
SETUP_REPEATS = 25


class SetupError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LIECOH_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


# A query child runs ``python -m liecoh.cli`` and, at exit, writes its own
# peak resident set (VmHWM) to stderr.  wait4's ru_maxrss would not do:
# Linux carries the parent's high-water mark into a child through exec.
QUERY_MAIN = """\
import atexit, runpy, sys
def _peak():
    with open("/proc/self/status") as fh:
        sys.stderr.write(next(line for line in fh if line.startswith("VmHWM:")))
atexit.register(_peak)
runpy.run_module("liecoh.cli", run_name="__main__", alter_sys=True)
"""


def peak_rss_mb(stderr: bytes):
    """The VmHWM line a query child printed last, in MB, or None."""
    lines = [l for l in stderr.decode("utf-8", "replace").splitlines() if l.startswith("VmHWM:")]
    return int(lines[-1].split()[1]) / 1024.0 if lines else None


@dataclass
class Exit:
    code: int | None  # None on timeout
    stdout: bytes
    stderr: bytes
    start: float  # perf_counter() at spawn
    wall: float  # seconds from spawn to exit
    cpu: float  # the child's user plus system CPU seconds


def spawn(argv, out_path: Path, timeout: float) -> Exit:
    """Run argv to completion."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        pidfd = os.pidfd_open(proc.pid)
        status = None
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode if ready else None, out_path.read_bytes(), err_path.read_bytes(),
                start, wall, usage.ru_utime + usage.ru_stime)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path.name} not found next to the benchmark")
    return json.loads(path.read_text())


def import_library():
    if not (SRC / "liecoh" / "__init__.py").is_file():
        raise SetupError(f"no liecoh sources under {SRC.relative_to(ROOT)}/; run from a checkout")
    sys.path.insert(0, str(SRC))
    os.environ.pop("LIECOH_THREADS", None)
    import liecoh

    if Path(liecoh.__file__).resolve().parent != (SRC / "liecoh").resolve():
        raise SetupError(f"imported liecoh from {liecoh.__file__}, not from the checkout")


def setup(workload: str, seed: int, workloads):
    """Generate and validate the inputs, then time fresh-process set-up.
    Returns (instances, run directory, setup seconds on the nominal host,
    raw setup wall seconds)."""
    run_dir = WORK / f"{workload}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = workloads.base_su3()
    instances = [
        workloads.make_instance(base, seed, k, run_dir)
        for k in range(workloads.PRESENTATIONS)
    ]
    load = [sys.executable, "-c",
            "import json, sys\nfrom liecoh import LieAlgebra\n"
            "LieAlgebra.from_json_dict(json.load(open(sys.argv[1])))",
            str(instances[0].algebra)]
    if spawn(load, run_dir / "setup.out", QUERY_TIMEOUT_S).code != 0:  # compiles bytecode
        raise SetupError("a fresh process could not import liecoh and load the algebra")
    exits = []
    with hostclock.HostClock() as clock:
        for _ in range(SETUP_REPEATS):
            exits.append(spawn(load, run_dir / "setup.out", QUERY_TIMEOUT_S))
            if exits[-1].code != 0:
                raise SetupError("a fresh process could not import liecoh and load the algebra")
    nominal = [clock.nominal(e.cpu, e.start, e.start + e.wall) for e in exits]
    return instances, run_dir, statistics.median(nominal), statistics.median(e.wall for e in exits)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Outcomes:
    """Checks each output and remembers the first JSON of every argv."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, query, code, stdout: bytes) -> bool:
        self.attempted += 1
        if code is None:
            problems = ["timed out"]
        elif code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = self.workloads.check(query, stdout.decode("utf-8", "replace"))
            key = tuple(query.argv)
            if self.first.setdefault(key, stdout) != stdout:
                problems.append("JSON differs from an earlier run of the same argv")
        if problems:
            self.failed += 1
            self.reasons.append(f"{' '.join(query.argv[:1])}: {'; '.join(problems)}")
        return not problems


def tail(samples):
    """The highest percentile (nearest rank) with at least ten samples
    beyond it, and its label.  Below twenty samples that percentile would
    not lie above the median, so the maximum is reported instead."""
    s = sorted(samples)
    rank = len(s) - 10
    if len(s) < 20:
        return s[-1], f"max of {len(s)}"
    return s[rank - 1], f"p{100 * rank // len(s)} of {len(s)}"


def measure_cli(queries, group: int, run_dir: Path, seconds: float, outcomes: Outcomes,
                deadline: float):
    """The closed loop over `queries`, `group` of them per presentation."""
    def remaining():
        return deadline - perf_counter()

    exits, rss = [], []
    prefix = [sys.executable, "-c", QUERY_MAIN]
    # Time runs out only at the end of a presentation's queries, so that
    # every run samples the workload's query mix in the same proportions.
    start = perf_counter()
    with hostclock.HostClock() as clock:
        while (perf_counter() - start < seconds or len(exits) % group) and remaining() > 0:
            q = queries[len(exits) % len(queries)]
            e = spawn(prefix + q.argv, run_dir / "query.out", min(QUERY_TIMEOUT_S, remaining()))
            exits.append(e)
            rss.append(peak_rss_mb(e.stderr) or 0.0)
            outcomes.record(q, e.code, e.stdout)
    elapsed = perf_counter() - start
    if not exits:
        raise SetupError("no query finished within the run budget")
    ok = outcomes.attempted - outcomes.failed
    times = [clock.nominal(e.cpu, e.start, e.start + e.wall) for e in exits]
    tail_value, tail_label = tail(times)
    metrics = {
        # one client: completed queries over the time spent in queries
        "queries_per_s": ok / sum(times),
        "query_s_p50": statistics.median(times),
        "query_s_tail": tail_value,
        "peak_rss_mb": max(rss),
    }
    walls = [e.wall for e in exits]
    raw = {"queries_per_s": ok / sum(walls), "query_s_p50": statistics.median(walls),
           "query_s_tail": tail(walls)[0], "query_cpu_s_p50": statistics.median(e.cpu for e in exits),
           "reference_piece_s": statistics.median(p[2] for p in clock.pieces),
           "reference_pieces": len(clock.pieces)}
    return metrics, {"samples": len(exits), "tail": tail_label, "elapsed_s": elapsed,
                     "raw_wall_clock": raw}


def run_in_process(cli, query, outcomes: Outcomes):
    """One query through cli.main; an exception counts as a failed query."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(query.argv))
        except Exception:  # noqa: BLE001 - the run goes on and reports it
            traceback.print_exc(file=sys.__stderr__)
            code = 1
    outcomes.record(query, code, out.getvalue().encode("utf-8"))


def measure_traced(queries, run_dir: Path, seconds: float, outcomes: Outcomes):
    import spans
    from liecoh import cli

    # Untraced and traced runs of each query alternate, in ABBA order, so
    # that drift in machine speed cancels out of trace.overhead; rounds
    # repeat until the two together have taken `seconds`.
    tracer = spans.Tracer()
    plain_wall = traced_wall = 0.0
    rounds = 0
    while rounds == 0 or plain_wall + traced_wall < seconds:
        for i, q in enumerate(queries):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                with tracer.installed() if traced else contextlib.nullcontext():
                    tracer.query = f"{rounds}:{i}"
                    start = perf_counter()
                    run_in_process(cli, q, outcomes)
                    wall = perf_counter() - start
                if traced:
                    traced_wall += wall
                else:
                    plain_wall += wall
        rounds += 1
    counter = spans.Counter()
    with counter.installed():
        for q in queries:
            run_in_process(cli, q, outcomes)
    tracer.write(run_dir / "spans.jsonl")
    metrics = spans.layer_metrics(tracer.spans, rounds)
    metrics.update({k: v if k in spans.MAX_COUNTS else v / rounds for k, v in tracer.counts.items()})
    metrics.update(counter.counts)
    metrics["trace.overhead"] = traced_wall / plain_wall
    return metrics, {"rounds": rounds, "in_process_s": plain_wall, "traced_s": traced_wall,
                     "spans": len(tracer.spans)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


NPROC = len(os.sched_getaffinity(0))  # before the benchmark pins itself


def run_metadata(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "nproc": NPROC,
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "liecoh_threads": "unset (the benchmark removes LIECOH_THREADS)",
    }


def run_workload(name: str, args, spec: dict, workloads):
    """Set up and measure one workload; returns (metrics, outcomes, detail)."""
    deadline = perf_counter() + RUN_BUDGET_S
    instances, run_dir, setup_s, setup_wall = setup(name, args.seed, workloads)
    outcomes = Outcomes(workloads)
    if args.trace:
        queries = workloads.round_queries(name, instances[:1])
        measured, detail = measure_traced(queries, run_dir, args.seconds, outcomes)
        declared = spec["per_layer"]
    else:
        queries = workloads.round_queries(name, instances)
        measured, detail = measure_cli(queries, len(queries) // len(instances), run_dir,
                                       args.seconds, outcomes, deadline)
        measured["setup_s"] = setup_s
        detail["raw_wall_clock"]["setup_s"] = setup_wall
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    detail["failed_ratio"] = outcomes.failed / outcomes.attempted
    return metrics, outcomes, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    hostclock.pin_to_one_cpu()
    results = {}
    try:
        spec = load_spec()
        declared = [w["name"] for w in spec["workloads"]]
        names = declared if args.workload == "all" else [args.workload]
        if not set(names) <= set(declared):
            raise SetupError(f"unknown workload {args.workload!r}")
        import_library()
        sys.path.insert(0, str(BENCH))
        import workloads

        for name in names:
            results[name] = run_workload(name, args, spec, workloads)
            metrics, outcomes, detail = results[name]
            meta = dict(run_metadata(args), workload=name)
            print(json.dumps({"meta": meta, "detail": detail, "failures": outcomes.reasons[:10]}))
            for metric, m in metrics.items():
                print(f"{name:18s} {metric:48s} {m['value']:>14.6g} {m['unit']}")
    except (SetupError, RuntimeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = next(iter(results.values()))[0]
    else:
        metrics = {f"{name}.{k}": v for name, r in results.items() for k, v in r[0].items()}
    print(json.dumps({
        "correct": all(r[1].failed == 0 for r in results.values()),
        "attempted": sum(r[1].attempted for r in results.values()),
        "failed": sum(r[1].failed for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
