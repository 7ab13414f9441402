#!/usr/bin/env python3
"""qmeasure benchmark: end-to-end and per-layer numbers for one workload.

Usage (from the root of a checkout):

    python3 bench/run.py --workload oit_ladder --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1 --seconds 15     # every workload in turn

Measures the library in ``src/`` of the checkout the script sits in, and
refuses to run if ``qmeasure`` would be imported from anywhere else. With
``--trace 0`` the last line of standard output is one JSON object whose
metrics are the end-to-end metrics listed in BENCHMARK.json; with
``--trace 1`` they are its per-layer metrics, taken from spans recorded
around the library's public functions. The line before it holds the
environment block. A readable table goes to standard error, and the full
record (environment, every derived metric, failures, spans) is written to
``.bench_out/`` in the checkout. See bench/README.md for the definitions.
"""

import os
import sys
import time

ENTERED = time.time()

# one BLAS thread, for steady timings on a small shared host; set before
# numpy is first imported, and inherited by every child process
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

# numpy, and the workloads that use it, are imported only after qmeasure, so
# that a probe's import time covers numpy as `import qmeasure` does for users

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("oit_ladder", "unsharp_sweep", "custom_sample", "cli_cold")
SETUP_PROBES = 7     # fresh processes whose set-up is timed; setup_s is their median
MIN_OPS = 100        # so that at least ten latencies lie beyond p90
MAX_LOOP_S = 120.0   # hard stop for a loop that needs longer than --seconds for MIN_OPS
SPAN_BUDGET = 100_000  # a traced phase stops after the cycle that passes this many spans
LAYER_SUFFIXES = ("calls_per_op", "ms", "self_ms", "errors")


class BenchError(Exception):
    """The benchmark cannot measure this checkout (not a failure of an op)."""


def import_library():
    """Import qmeasure from this checkout's src/, or refuse."""
    init = SRC / "qmeasure" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no library source at {init}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qmeasure
    import_s = time.perf_counter() - start
    found = Path(qmeasure.__file__).resolve()
    if found != init.resolve():
        raise BenchError(f"qmeasure was imported from {found}, not from {init}")
    return qmeasure, import_s


def build_workload(name, qm, seed, tracer):
    import numpy as np
    import workloads

    rng = np.random.default_rng(seed)
    if name == "cli_cold":
        runner = workloads.CliRunner(ROOT, tracer)
        found = Path(runner.imported_file()).resolve()
        if found != (SRC / "qmeasure" / "__init__.py").resolve():
            raise BenchError(f"CLI children import qmeasure from {found}, not from {SRC}")
        return workloads.cli_cold(qm, rng, ROOT, runner), runner
    return getattr(workloads, name)(qm, rng, ROOT), None


@dataclass
class Phase:
    latencies: list = field(default_factory=list)   # wall seconds per op
    cpu_s: list = field(default_factory=list)       # CPU seconds per op, CLI child included
    failures: list = field(default_factory=list)    # (op index, reason)
    report_bytes: int = 0
    cycles: int = 0
    wall_s: float = 0.0
    reference_s: list = field(default_factory=list)  # kernel CPU seconds: before op 0, after each op
    kernel_wall_s: float = 0.0


def run_kernel(phase):
    import reference

    began = time.perf_counter()
    phase.reference_s.append(reference.time_kernel())
    phase.kernel_wall_s += time.perf_counter() - began


def run_ops(workload, phase, tracer=None, gauge=False):
    """One cycle of ops, each timed on its own and checked after its clock stops.
    With `gauge`, the reference kernel runs right after each op's clocks stop."""
    for i, op in enumerate(workload.ops):
        op_id = len(phase.latencies)
        if tracer is not None:
            tracer.begin_op(op_id)
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            out = op()
            reason = None
        except Exception as exc:  # an op that raises is a failed op, not a stop
            out, reason = None, f"raised {exc!r}"
        phase.latencies.append(time.perf_counter() - start)
        phase.cpu_s.append(time.thread_time() - cpu_start + getattr(out, "cpu_s", 0.0))
        if gauge:
            run_kernel(phase)
        if tracer is not None:
            tracer.end_op(failed=reason is not None)
        if reason is None:
            reason = workload.check(i, out)
            text = getattr(out, "stdout", out)
            if isinstance(text, str):
                phase.report_bytes += len(text.encode())
        if reason is not None:
            phase.failures.append((op_id, reason))
    phase.cycles += 1


def measure(workload, seconds, min_ops=0, cycles=None, tracer=None, probes=None,
            gauge=False) -> Phase:
    """Whole cycles until `seconds` have passed and min_ops are done; traced,
    at most `cycles` cycles and until the tracer holds SPAN_BUDGET spans.

    Set-up probes, when given, run between cycles at even intervals of the
    loop, so that they sample the host over the same window as the ops.
    With `gauge`, the reference kernel runs before the first op and after
    every op, so that each op lies between two kernel runs. The time of
    probes and kernel runs is left out of the loop's wall time.
    """
    phase = Phase()
    start = time.perf_counter()
    paused = 0.0
    if gauge:
        run_kernel(phase)
    while True:
        elapsed = time.perf_counter() - start - paused - phase.kernel_wall_s
        if probes is not None and probes.due(elapsed, seconds):
            paused += probes.run_one()
            continue
        if tracer is not None:
            if phase.cycles >= cycles or len(tracer.spans) >= SPAN_BUDGET:
                break
        elif (elapsed >= seconds and len(phase.latencies) >= min_ops) or elapsed >= MAX_LOOP_S:
            break
        run_ops(workload, phase, tracer, gauge)
    phase.wall_s = time.perf_counter() - start - paused - phase.kernel_wall_s
    while probes is not None and probes.due(float("inf"), seconds):
        probes.run_one()
    return phase


def warm_up(workload):
    """Run one cycle, then confirm the oracle rejects a perturbed passing output."""
    phase = Phase()
    for i, op in enumerate(workload.ops):
        try:
            out = op()
        except Exception as exc:
            phase.failures.append((-1, f"warm-up op {i} raised {exc!r}"))
            continue
        reason = workload.check(i, out)
        if reason is not None:
            phase.failures.append((-1, f"warm-up op {i}: {reason}"))
        elif workload.check(i, workload.perturb(out)) is None:
            raise BenchError(f"oracle self-check: a perturbed output of op {i} passed")
    return phase


def set_up(name, seed, tracer):
    qm, import_s = import_library()
    workload, runner = build_workload(name, qm, seed, tracer)
    return qm, import_s, workload, runner, warm_up(workload)


def probe(args):
    """Set-up only, in a fresh process; the parent times start to ready, and
    the probe reports its CPU time to ready, its CLI children included."""
    _, import_s, _, runner, _ = set_up(args.workload, args.seed, spans.Tracer())
    cpu_s = sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                   resource.getrusage(resource.RUSAGE_CHILDREN)))
    if runner is not None:
        runner.close()
    print(json.dumps({"entered": ENTERED, "import_s": import_s, "cpu_s": cpu_s}), flush=True)


class Probes:
    """SETUP_PROBES fresh processes, each timed from spawn to ready for its first
    op, with its interpreter start and its `import qmeasure`."""

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
                     "--workload", args.workload, "--seed", str(args.seed)]
        self.samples = {"setup_s": [], "setup_cpu_s": [], "interpreter_s": [], "import_s": []}

    def due(self, elapsed, seconds) -> bool:
        done = len(self.samples["setup_s"])
        return done < SETUP_PROBES and elapsed >= done * seconds / SETUP_PROBES

    def run_one(self) -> float:
        spawned = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(self.argv, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate()
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        info = json.loads(line)
        self.samples["setup_s"].append(ready)
        self.samples["setup_cpu_s"].append(info["cpu_s"])
        self.samples["interpreter_s"].append(info["entered"] - spawned)
        self.samples["import_s"].append(info["import_s"])
        return time.perf_counter() - start

    def median(self, name) -> float:
        return statistics.median(self.samples[name])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(phase, probes, peak_rss_kb, in_process):
    """Times are CPU times scaled to the reference host (see reference.py);
    the wall-clock values as measured are kept as `wall.<name>`."""
    import reference

    ops = len(phase.latencies)
    op_s = reference.scale_to_reference(phase.cpu_s, phase.reference_s, paired=in_process)
    reference_s = statistics.median(phase.reference_s)
    return {
        "ops_per_s": ops / sum(op_s),
        "op_p50_ms": 1000 * statistics.median(op_s),
        "op_p90_ms": 1000 * percentile(op_s, 90),
        "setup_s": probes.median("setup_cpu_s") * reference.REFERENCE_MS / (1000 * reference_s),
        "peak_rss_mb": peak_rss_kb / 1024,
        "success_rate": 1 - len(phase.failures) / ops,
        "wall.ops_per_s": ops / phase.wall_s,
        "wall.op_p50_ms": 1000 * statistics.median(phase.latencies),
        "wall.op_p90_ms": 1000 * percentile(phase.latencies, 90),
        "wall.setup_s": probes.median("setup_s"),
        "host.reference_ms": 1000 * reference_s,
    }


def layer_metrics(rows, ops, probes, overhead_frac, report_bytes):
    layers, tagged = spans.summarize(rows)
    out = {}
    for name, st in layers.items():
        out[f"{name}.calls_per_op"] = st["calls"] / ops
        out[f"{name}.ms"] = 1000 * st["incl_s"] / ops
        out[f"{name}.self_ms"] = 1000 * st["self_s"] / ops
        out[f"{name}.errors"] = st["errors"]
    for (name, tag), cell in tagged.items():
        out[f"{name}.D{tag}.ms"] = 1000 * cell["incl_s"] / cell["calls"]
    out["cli.interpreter_ms"] = 1000 * probes.median("interpreter_s")
    out["cli.import_ms"] = 1000 * probes.median("import_s")
    out["trace.overhead_frac"] = overhead_frac
    out["report.bytes"] = report_bytes / ops
    return out


def select(metrics, listed):
    """The listed metrics with their units. A layer metric the workload never
    reaches reads 0; any other missing name is an error in the benchmark."""
    chosen = {}
    for entry in listed:
        name = entry["name"]
        if name in metrics:
            value = metrics[name]
        elif name.rsplit(".", 1)[-1] in LAYER_SUFFIXES:
            value = 0
        else:
            raise BenchError(f"metric {name!r} is listed but never computed")
        chosen[name] = {"value": value, "unit": entry["unit"]}
    return chosen


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, qm):
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "qmeasure_file": qm.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def run_workload(args):
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    qm, _, workload, runner, warm = set_up(args.workload, args.seed, tracer)
    phases = [warm]
    try:
        probes = Probes(args)
        if runner is not None:
            runner.max_rss_kb = 0  # the largest child of the timed loop only
        if not args.trace:
            phase = measure(workload, args.seconds, min_ops=MIN_OPS, probes=probes,
                            gauge=True)
            phases.append(phase)
            peak_kb = (runner.max_rss_kb if runner is not None
                       else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            metrics = end_to_end_metrics(phase, probes, peak_kb, in_process=runner is None)
            listed = spec["end_to_end"]
        else:
            untraced = measure(workload, args.seconds / 2, probes=probes)
            tracer.install(qm, extra=[(workloads, "dump_report", "report.json_dumps")])
            try:
                phase = measure(workload, 0, cycles=untraced.cycles, tracer=tracer)
            finally:
                tracer.uninstall()
            phases += [untraced, phase]
            # the same cycle of ops in both phases, so compare time per cycle
            overhead = (phase.wall_s / phase.cycles) / (untraced.wall_s / untraced.cycles) - 1
            metrics = layer_metrics(tracer.spans, len(phase.latencies), probes, overhead,
                                    phase.report_bytes)
            listed = spec["per_layer"]
    finally:
        if runner is not None:
            runner.close()
    failures = [f for p in phases for f in p.failures]
    attempted = len(workload.ops) + sum(len(p.latencies) for p in phases)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": select(metrics, listed),
    }
    env = environment(args, qm)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-trace{args.trace}.json"  # the latest run only
    record.write_text(json.dumps({
        "env": env, "result": result, "error_rate": len(failures) / attempted,
        "failures": failures, "all_metrics": metrics, "probes": probes.samples,
        "latencies_s": phase.latencies, "cpu_s": phase.cpu_s, "reference_s": phase.reference_s,
        "spans": tracer.spans,
    }))
    print_table(args.workload, result, metrics, failures, record)
    print(json.dumps({"env": env}))
    print(json.dumps(result))


def print_table(workload, result, metrics, failures, record):
    err = sys.stderr
    print(f"{workload}: {result['attempted']} ops attempted, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.4g}", file=err)
    for op_id, reason in failures[:5]:
        print(f"  failed op {op_id}: {reason}", file=err)
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}", file=err)
    for name, value in metrics.items():
        if name.startswith(("wall.", "host.")):
            print(f"  {name:48s} {value:14.6g}", file=err)
    print(f"  full record: {record}", file=err)


def run_all(args):
    """Every workload in its own process; one result line per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(json.dumps({"workload": name, "exit_code": proc.returncode}))
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; every workload in turn when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args)
        if args.probe:
            probe(args)
        else:
            run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
