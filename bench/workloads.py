"""The benchmark's workloads: seeded inputs, one cycle of ops, and oracles.

Each workload is a closed loop of one client: the runner calls the ops of
one cycle in order, one at a time, and repeats the cycle. Inputs come only
from the seed. Every oracle here is computed by the benchmark itself with
numpy (eigendecompositions, Born weights, the closed-form unsharp curve,
binomial bounds); qmeasure's own outputs are only ever compared against it,
except where the cold CLI is compared with the same report made in-process.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

OIT_DIMS = (2, 3, 4, 5, 6)     # system dims; the compound dimension is d**3
SWEEP_POINTS = 21              # eta grid of unsharp_sweep, endpoints included
CLI_SWEEP_POINTS = 11
SAMPLE_DIM = 3
SAMPLE_N = 100_000
SAMPLE_SEEDS = 4               # sampling seeds cycled by custom_sample
BORN_TOL = 1e-9
CURVE_TOL = 1e-12
BINOMIAL_SIGMAS = 6.0
SPANS_MARK = "SPANS "          # prefix of the span line a traced CLI child writes

BENCH = Path(__file__).resolve().parent
SCENARIOS = Path("scenarios")  # relative to the checkout root


@dataclass
class Workload:
    ops: list                                           # one cycle of callables
    check: Callable[[int, object], Optional[str]]       # -> failure reason or None
    perturb: Callable[[object], object]                 # a corrupted passing output


def dump_report(report) -> str:
    """The report text exactly as ``qmeasure run`` prints it."""
    return json.dumps(report, indent=2, sort_keys=True)


def unsharp_agreement(eta: float) -> float:
    return ((1 + eta) ** 2 + (1 - eta) ** 2) / 4


def _random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def _random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _born(matrix, psi):
    """Eigenvalues of a Hermitian matrix and the Born weight of each."""
    w, v = np.linalg.eigh(matrix)
    return w, np.abs(v.conj().T @ psi) ** 2


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).ravel()]


def _from_pairs(entries):
    return np.array([complex(re, im) for re, im in entries])


def _oit_doc(matrix, psi):
    d = matrix.shape[0]
    return {
        "schema_version": "1",
        "system": {"dim": d, "state": _pairs(psi)},
        "observable": {"hermitian_matrix": {"rows": d, "cols": d, "entries": _pairs(matrix)}},
        "processes": [{"model": "von_neumann"}, {"model": "von_neumann"}],
        "experiment": "oit",
    }


def _far(a, b, tol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape != b.shape or bool(np.max(np.abs(a - b)) > tol)


def check_oit(report, eigenvalues, weights) -> Optional[str]:
    """Intersubjective, and the diagonal is the Born rule of the benchmark's eigh."""
    if report.get("experiment") != "oit":
        return f"experiment is {report.get('experiment')!r}, not 'oit'"
    res = report["results"]
    if res["intersubjective"] is not True:
        return "intersubjective is not true"
    labels = sorted(res["diagonal"], key=float)
    if _far([float(k) for k in labels], eigenvalues, BORN_TOL):
        return "outcome labels differ from the eigenvalues"
    if _far([res["diagonal"][k] for k in labels], weights, BORN_TOL):
        return "diagonal differs from the Born weights"
    table = np.asarray(res["joint_table"], dtype=float)
    if _far(np.diag(table) if table.ndim == 2 else table, weights, BORN_TOL):
        return "joint table diagonal differs from the Born weights"
    if abs(table.sum() - np.trace(table)) > BORN_TOL:
        return "joint table has off-diagonal mass"
    return None


def _perturb_json(text, path, delta):
    report = json.loads(text)
    node = report
    for key in path[:-1]:
        node = node[key]
    key = path[-1] if path[-1] is not None else sorted(node, key=float)[0]
    node[key] += delta
    return dump_report(report)


def oit_ladder(qm, rng, root):
    """load_scenario -> run_experiment(oit) -> report text, d = 2..6 in turn."""
    cases = []
    for d in OIT_DIMS:
        matrix, psi = _random_hermitian(rng, d), _random_state(rng, d)
        cases.append((_oit_doc(matrix, psi), _born(matrix, psi)))

    def op(doc):
        return lambda: dump_report(qm.run_experiment(qm.load_scenario(doc)))

    def check(i, text):
        return check_oit(json.loads(text), *cases[i][1])

    return Workload(
        ops=[op(doc) for doc, _ in cases],
        check=check,
        perturb=lambda text: _perturb_json(text, ("results", "diagonal", None), 1e-6),
    )


def unsharp_sweep(qm, rng, root):
    """One sweep_agreement call over a seeded eta grid on the bundled scenario."""
    scenario = qm.load_scenario_file(root / SCENARIOS / "unsharp_eta08.json")
    etas = sorted([0.0, 1.0] + rng.uniform(0.0, 1.0, SWEEP_POINTS - 2).tolist())

    def check(_, rows):
        if len(rows) != len(etas):
            return f"{len(rows)} rows for {len(etas)} eta values"
        for (eta, agreement), want in zip(rows, etas):
            if eta != want:
                return f"row eta {eta!r} is not the requested {want!r}"
            if abs(agreement - unsharp_agreement(want)) > CURVE_TOL:
                return f"agreement {agreement!r} at eta {want!r} is off the closed-form curve"
        return None

    def perturb(rows):
        rows = list(rows)
        eta, agreement = rows[len(rows) // 2]
        rows[len(rows) // 2] = (eta, agreement + 1e-9)
        return rows

    return Workload(ops=[lambda: qm.sweep_agreement(scenario, etas)], check=check,
                    perturb=perturb)


def custom_sample(qm, rng, root):
    """A von Neumann pair written out as custom processes, reloaded and sampled."""
    matrix, psi = _random_hermitian(rng, SAMPLE_DIM), _random_state(rng, SAMPLE_DIM)
    eigenvalues, weights = _born(matrix, psi)
    pvm = qm.pvm_from_observable(matrix)
    processes = [qm.von_neumann_model(pvm), qm.von_neumann_model(pvm)]
    seeds = [int(s) for s in rng.integers(0, 2**31, SAMPLE_SEEDS)]
    seen = {}

    def op(seed):
        def run():
            doc = qm.scenario_to_json(psi, pvm, processes, "sample",
                                      n_samples=SAMPLE_N, seed=seed)
            scenario = qm.load_scenario(json.loads(json.dumps(doc)))
            return dump_report(qm.run_experiment(scenario))
        return run

    def bound(p):
        return BINOMIAL_SIGMAS * math.sqrt(p * (1 - p) / SAMPLE_N) + 1 / SAMPLE_N

    def check(i, text):
        report = json.loads(text)
        res = report["results"]
        if report.get("experiment") != "sample" or res["n_samples"] != SAMPLE_N \
                or res["seed"] != seeds[i]:
            return "report does not echo the sample experiment, n and seed"
        if _far(res["outcomes1"], eigenvalues, BORN_TOL) \
                or _far(res["outcomes2"], eigenvalues, BORN_TOL):
            return "outcome labels differ from the eigenvalues"
        if abs(res["analytic_agreement"] - 1.0) > BORN_TOL:
            return f"analytic agreement {res['analytic_agreement']!r} is not 1"
        counts = np.asarray(res["counts"])
        if counts.shape != (SAMPLE_DIM, SAMPLE_DIM) or int(counts.sum()) != SAMPLE_N:
            return f"counts of shape {counts.shape} do not sum to {SAMPLE_N}"
        diagonal = np.diag(counts) / SAMPLE_N
        for got, want in zip(diagonal, weights):
            if abs(got - want) > bound(want):
                return f"diagonal frequency {got!r} is outside the binomial bound of {want!r}"
        if abs(res["empirical_agreement"] - weights.sum()) > bound(min(weights.sum(), 1.0)):
            return f"empirical agreement {res['empirical_agreement']!r} is outside its bound"
        first = seen.setdefault(i, res["counts"])
        if first != res["counts"]:
            return f"counts differ from an earlier draw with seed {seeds[i]}"
        return None

    return Workload(
        ops=[op(s) for s in seeds],
        check=check,
        perturb=lambda text: _perturb_json(text, ("results", "analytic_agreement"), -1e-6),
    )


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    max_rss_kb: int
    cpu_s: float = 0.0   # user + system time of the child


class CliRunner:
    """Starts one fresh CLI process per call, from the checkout root.

    Untraced, the child is ``python -m qmeasure``. While the tracer is
    installed, the child is ``cli_child.py``, which traces the same call and
    hands its spans back on standard error. Each child is reaped with
    wait4, which gives its own peak RSS and CPU time.
    """

    def __init__(self, root, tracer):
        self.root = root
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.max_rss_kb = 0
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        self._stderr = tempfile.TemporaryFile(dir=out)

    def close(self):
        self._stderr.close()

    def imported_file(self) -> str:
        code = "import qmeasure, sys; sys.stdout.write(qmeasure.__file__)"
        return self.spawn([sys.executable, "-c", code]).stdout

    def spawn(self, argv) -> CliResult:
        self._stderr.seek(0)
        self._stderr.truncate()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=self._stderr)
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self._stderr.seek(0)
        stderr = self._stderr.read().decode()
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, stdout.decode(), stderr, usage.ru_maxrss,
                         usage.ru_utime + usage.ru_stime)

    def __call__(self, args) -> CliResult:
        if not self.tracer.active:
            return self.spawn([sys.executable, "-m", "qmeasure", *args])
        result = self.spawn([sys.executable, str(BENCH / "cli_child.py"), *args])
        lines = result.stderr.splitlines()
        if lines and lines[-1].startswith(SPANS_MARK):
            self.tracer.absorb(json.loads(lines[-1][len(SPANS_MARK):]))
            result.stderr = "\n".join(lines[:-1])
        return result


def cli_cold(qm, rng, root, runner):
    """Fresh ``python -m qmeasure`` processes: run both bundled scenarios, then sweep."""
    oit_path = SCENARIOS / "oit_sigma_z.json"
    unsharp_path = SCENARIOS / "unsharp_eta08.json"
    values = sorted(rng.uniform(0.0, 1.0, CLI_SWEEP_POINTS).tolist())
    commands = [
        ["run", str(oit_path)],
        ["run", str(unsharp_path)],
        ["sweep", str(unsharp_path), "--param", "eta",
         "--values", ",".join(repr(v) for v in values)],
    ]
    # the same reports made in-process, plus the benchmark's own oracles
    expected = [
        json.loads(dump_report(qm.run_experiment(qm.load_scenario_file(root / oit_path)))),
        json.loads(dump_report(qm.run_experiment(qm.load_scenario_file(root / unsharp_path)))),
        qm.sweep_agreement(qm.load_scenario_file(root / unsharp_path), values),
    ]
    with open(root / oit_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    block = doc["observable"]["hermitian_matrix"]
    oit_born = _born(_from_pairs(block["entries"]).reshape(block["rows"], block["cols"]),
                     _from_pairs(doc["system"]["state"]))
    with open(root / unsharp_path, encoding="utf-8") as fh:
        eta_file = json.load(fh)["observable"]["unsharp"]["eta"]

    def check(i, result):
        if result.returncode != 0:
            return f"exit code {result.returncode}: {result.stderr.strip()[-300:]}"
        try:
            if i < 2:
                report = json.loads(result.stdout)
            else:
                lines = result.stdout.splitlines()
                if lines[0] != "eta,agreement":
                    return f"sweep header is {lines[0]!r}"
                report = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        except (ValueError, IndexError) as exc:
            return f"stdout does not parse: {exc}"
        if report != expected[i]:
            return "stdout differs from the in-process report"
        if i == 0:
            return check_oit(report, *oit_born)
        if i == 1:
            agreement = report["results"]["agreement_probability"]
            if abs(agreement - unsharp_agreement(eta_file)) > CURVE_TOL:
                return f"agreement {agreement!r} is off the closed-form curve"
            return None
        for (eta, agreement), want in zip(report, values):
            if eta != want or abs(agreement - unsharp_agreement(want)) > CURVE_TOL:
                return f"sweep row ({eta!r}, {agreement!r}) is off the closed-form curve"
        return None

    def perturb(result):
        text = result.stdout
        if text.startswith("eta,"):
            head, last = text.rstrip("\n").rsplit("\n", 1)
            eta, agreement = last.split(",")
            text = f"{head}\n{eta},{float(agreement) + 1e-9}\n"
        elif json.loads(text)["experiment"] == "oit":
            text = _perturb_json(text, ("results", "diagonal", None), 1e-6) + "\n"
        else:
            text = _perturb_json(text, ("results", "agreement_probability"), 1e-9) + "\n"
        return CliResult(result.returncode, text, result.stderr, result.max_rss_kb)

    return Workload(ops=[lambda args=args: runner(args) for args in commands],
                    check=check, perturb=perturb)
