"""Shared randomized factories for states, unitaries, observables, processes."""

import numpy as np

from qmeasure import MeasurementProcess, Povm, Pvm, intersubjectivity, measurement
from qmeasure.observables import _derived

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

# integer eigenvalue pool keeps clusters separated far beyond every tolerance
_LABEL_POOL = np.arange(-5, 6)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_labels(rng, n_outcomes):
    return np.sort(rng.choice(_LABEL_POOL, size=n_outcomes, replace=False)).astype(float)


def random_hermitian_with_outcomes(rng, dim, n_outcomes):
    """Hermitian operator with exactly n_outcomes well-separated eigenvalues."""
    values = random_labels(rng, n_outcomes)
    extra = rng.choice(values, size=dim - n_outcomes)
    spectrum = np.concatenate([values, extra])
    u = random_unitary(rng, dim)
    a = (u * spectrum) @ u.conj().T
    return (a + a.conj().T) / 2


def random_pvm(rng, dim, n_outcomes):
    u = random_unitary(rng, dim)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_outcomes - 1, replace=False))
    groups = np.split(np.arange(dim), cuts)
    projectors = []
    for grp in groups:
        block = u[:, grp]
        p = block @ block.conj().T
        projectors.append((p + p.conj().T) / 2)
    return Pvm(tuple(random_labels(rng, n_outcomes)), tuple(projectors), dim)


def random_povm(rng, dim, n_outcomes):
    grams = []
    for _ in range(n_outcomes):
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        grams.append(b.conj().T @ b)
    total = sum(grams)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = []
    for g in grams:
        e = inv_sqrt @ g @ inv_sqrt
        effects.append((e + e.conj().T) / 2)
    return Povm(tuple(random_labels(rng, n_outcomes)), tuple(effects), dim)


def pointer_meter(dim):
    projectors = tuple(np.diag(np.eye(dim)[j]).astype(complex) for j in range(dim))
    return Pvm(tuple(float(j) for j in range(dim)), projectors, dim)


def random_process(rng, system_dim, apparatus_dim):
    return MeasurementProcess(
        system_dim=system_dim,
        apparatus_dim=apparatus_dim,
        apparatus_state=random_state(rng, apparatus_dim),
        interaction=random_unitary(rng, system_dim * apparatus_dim),
        meter=pointer_meter(apparatus_dim),
    )


def controlled_process(rng, projectors, d, k):
    """U = sum_j P_j x V_j: every such pair's evolved meters commute."""
    u = sum(np.kron(p, random_unitary(rng, k)) for p in projectors)
    return MeasurementProcess(d, k, random_state(rng, k), u, pointer_meter(k))


def recompleted(rng, process):
    """The process with its interaction completed differently.

    U (I on the columns that carry |h> x |0> (+) a random unitary on the rest),
    checked by the public MeasurementProcess: the isometry the process applies
    to |psi> x |0> is unchanged, so the induced POVM must be too.
    """
    n = process.apparatus_dim
    total = process.total_dim
    free = [c for c in range(total) if c % n]
    mix = np.eye(total, dtype=complex)
    mix[np.ix_(free, free)] = random_unitary(rng, len(free))
    return MeasurementProcess(process.system_dim, n, process.apparatus_state,
                              process.interaction @ mix, process.meter)


def as_custom(process):
    """The process rebuilt by the checking constructor, as the loader builds a custom entry.

    A checked process records its effects from its Kraus rows but no roots,
    so compose evolves its meter and decides locality by the span bound,
    whatever model it was built by.
    """
    return MeasurementProcess(process.system_dim, process.apparatus_dim,
                              process.apparatus_state, process.interaction, process.meter)


def evolved_meter(process):
    """E(x) = U^dag (I x E_M(x)) U on system x apparatus, as a derived Pvm.

    The one-process case of measurement._evolved_meters, the stack compose
    keeps as a scenario's private meters.
    """
    evolved = measurement._evolved_meters(process.interaction[None], process.meter,
                                          process.system_dim)
    return _derived(Pvm, process.meter.outcomes, evolved[0], process.total_dim)


def pinched_effects(process):
    """Reference (n, d, d) effects Pi(x) = <xi|E(x)|xi> of a process, Hermitised.

    Each evolved meter (see evolved_meter) pinched with the apparatus state;
    every process's recorded effects are checked against it.
    """
    d, k, xi = process.system_dim, process.apparatus_dim, process.apparatus_state
    evolved = np.array(evolved_meter(process).projectors)
    kets = evolved.reshape(-1, d, k, d, k) @ xi  # [x, i, a, j]
    effects = kets.swapaxes(2, 3) @ xi.conj()
    return (effects + effects.conj().swapaxes(1, 2)) / 2


def refuse_meter_evolution(monkeypatch):
    """Make evolving any meter on system x apparatus fail, wherever the library evolves one."""
    def refuse(*args, **kwargs):
        raise AssertionError("a meter was evolved")

    for module in (measurement, intersubjectivity):
        monkeypatch.setattr(module, "_evolved_meters", refuse)


def refuse_interaction_builders(monkeypatch):
    """Make building a model's interaction fail; models made after this record the failing builder."""
    def refuse(*args, **kwargs):
        raise AssertionError("a model interaction was built")

    for name in ("_pointer_unitaries", "_dilation_unitaries"):
        monkeypatch.setattr(measurement, name, refuse)
