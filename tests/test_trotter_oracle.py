"""Dense oracles for the Trotter walk and the density channels.

The references here never touch the engine's kernels: a layer is the
product of full ``2^n x 2^n`` matrices built with
:func:`repro.qmath.tensor.embed_operator` and the diagonal ZZ phases, and a
channel is the explicit Kraus sum ``SUM_i K_i rho K_i^dag``.  Hypothesis
draws small devices with the awkward cases the batched walk reorders
around: 2-qubit drives on reversed or non-adjacent pairs, unequal step
counts, idle qubits and blocks of columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.qmath.tensor import embed_operator, zz_diagonal
from repro.runtime.backends.density import conjugate_local
from repro.sim.density import (
    DecoherenceModel,
    amplitude_damping_kraus,
    apply_channel,
    phase_damping_kraus,
)
from repro.sim.statevector import apply_gate, apply_local_ops
from repro.sim.trotter import LayerDrive, TrotterEngine, _fuse

DT = 0.25


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_columns(dim: int, columns: int | None, rng) -> np.ndarray:
    shape = (dim,) if columns is None else (dim, columns)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_density(n: int, rng) -> np.ndarray:
    m = random_columns(2**n, 2**n, rng)
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_kraus(k: int, rank: int, rng) -> list[np.ndarray]:
    """A CPTP map on ``k`` qubits: the blocks of a random isometry."""
    d = 2**k
    isometry = haar_unitary(d * rank, rng)[:, :d]
    return [isometry[i * d:(i + 1) * d] for i in range(rank)]


@st.composite
def layers(draw):
    """A device, one layer's drives on it, and the columns to evolve."""
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coupled = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    couplings = [(i, j, float(rng.uniform(-0.05, 0.05))) for i, j in coupled]
    n_steps = draw(st.integers(1, 6))
    # Qubits in a drawn order, cut into 1- and 2-qubit drives (so pairs come
    # reversed and non-adjacent); whatever is left over idles.
    order = draw(st.permutations(range(n)))
    drives, i = [], 0
    while i < n and draw(st.booleans()):
        size = 2 if i + 1 < n and draw(st.booleans()) else 1
        qubits = tuple(order[i:i + size])
        steps = draw(st.integers(0, n_steps))
        ops = np.array(
            [haar_unitary(2**size, rng) for _ in range(steps)], dtype=complex
        ).reshape(steps, 2**size, 2**size)
        drives.append(LayerDrive(qubits, ops))
        i += size
    columns = draw(st.sampled_from([None, 1, 3]))
    return n, couplings, n_steps, drives, random_columns(2**n, columns, rng)


def dense_layer(n, couplings, n_steps, drives) -> np.ndarray:
    """Strang-split layer as a product of dense matrices."""
    zz = zz_diagonal(couplings, n)
    full = np.diag(np.exp(-1j * zz * DT))
    half = np.diag(np.exp(-1j * zz * DT / 2.0))
    total = half
    for k in range(n_steps):
        for drive in drives:
            if k < len(drive.step_ops):
                total = embed_operator(drive.step_ops[k], drive.qubits, n) @ total
        total = (full if k < n_steps - 1 else half) @ total
    return total


@given(layers())
@settings(max_examples=150, deadline=None)
def test_evolve_layer_matches_dense_product(case):
    n, couplings, n_steps, drives, state = case
    engine = TrotterEngine(n, couplings, dt=DT)
    reference = dense_layer(n, couplings, n_steps, drives)
    before = state.copy()
    got = engine.evolve_layer(state, n_steps * DT, drives)
    assert got.shape == state.shape
    assert np.allclose(got, reference @ state, rtol=0, atol=1e-12)
    assert np.array_equal(state, before)  # input untouched


@given(layers())
@settings(max_examples=100, deadline=None)
def test_layer_unitary_matches_dense_product(case):
    n, couplings, n_steps, drives, _ = case
    engine = TrotterEngine(n, couplings, dt=DT)
    reference = dense_layer(n, couplings, n_steps, drives)
    got = engine.layer_unitary(n_steps * DT, drives)
    assert np.allclose(got, reference, rtol=0, atol=1e-12)


#: ``(n, [(qubits, steps), ...], fused group qubits)``: layers whose small
#: drives the walk packs into kron groups of <= 3 qubits.
FUSION_CASES = {
    "three-1q-unequal": (4, [((0,), 6), ((2,), 3), ((3,), 1)], [(0, 2, 3)]),
    "four-1q-unequal": (
        5, [((4,), 6), ((1,), 2), ((3,), 4), ((0,), 0)], [(4, 3, 1), (0,)]
    ),
    "2q-plus-1q": (4, [((3, 1), 4), ((0,), 6)], [(0, 3, 1)]),
    "non-adjacent": (6, [((5,), 5), ((0,), 5), ((2,), 2)], [(5, 0, 2)]),
    "4q-unfused": (5, [((3, 0, 4, 1), 6), ((2,), 3)], [(3, 0, 4, 1), (2,)]),
}


@pytest.mark.parametrize("name", sorted(FUSION_CASES))
def test_fused_walk_matches_dense_product(name):
    n, spec, groups = FUSION_CASES[name]
    rng = np.random.default_rng(sorted(FUSION_CASES).index(name))
    n_steps = 6
    drives = []
    for qubits, steps in spec:
        d = 2 ** len(qubits)
        ops = np.array(
            [haar_unitary(d, rng) for _ in range(steps)], dtype=complex
        ).reshape(steps, d, d)
        ops.setflags(write=False)  # shared with the propagator cache
        drives.append(LayerDrive(qubits, ops))
    originals = [drive.step_ops.copy() for drive in drives]
    fused = _fuse(sorted(drives, key=lambda drive: -len(drive.step_ops)))
    assert [drive.qubits for drive in fused] == groups
    by_qubits = {drive.qubits: drive for drive in drives}
    for group in fused:  # a group of one is the caller's own drive
        if group.qubits in by_qubits:
            assert group is by_qubits[group.qubits]

    couplings = [
        (i, j, float(rng.uniform(-0.05, 0.05)))
        for i in range(n) for j in range(i + 1, n)
    ]
    engine = TrotterEngine(n, couplings, dt=DT)
    reference = dense_layer(n, couplings, n_steps, drives)
    for columns in (None, 1):
        state = random_columns(2**n, columns, rng)
        got = engine.evolve_layer(state, n_steps * DT, drives)
        assert np.allclose(got, reference @ state, rtol=0, atol=1e-12)
    unitary = engine.layer_unitary(n_steps * DT, drives)  # C = 2^n columns
    assert np.allclose(unitary, reference, rtol=0, atol=1e-12)
    for drive, original in zip(drives, originals):
        assert np.array_equal(drive.step_ops, original)


def test_overlapping_drives_rejected():
    engine = TrotterEngine(3, [(0, 1, 0.01)], dt=DT)
    one = np.array([np.eye(2, dtype=complex)])
    two = np.array([np.eye(4, dtype=complex)])
    with pytest.raises(ValueError, match="overlap"):
        engine.evolve_layer(
            np.ones(8, dtype=complex), DT,
            [LayerDrive((0, 2), two), LayerDrive((2,), one)],
        )


@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    columns=st.sampled_from([None, 1, 4]),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_apply_local_ops_matches_embedded(n, seed, columns, data):
    rng = np.random.default_rng(seed)
    order = data.draw(st.permutations(range(n)))
    sizes = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=n))
    groups, i = [], 0
    for size in sizes:
        size = min(size, n - i)
        if size == 0:
            break
        groups.append(tuple(order[i:i + size]))
        i += size
    ops = [haar_unitary(2 ** len(g), rng) for g in groups]
    state = random_columns(2**n, columns, rng)
    expected = state
    for op, group in zip(ops, groups):
        expected = embed_operator(op, group, n) @ expected
    got = apply_local_ops(state, ops, groups, n)
    assert np.allclose(got, expected, rtol=0, atol=1e-12)
    single = apply_gate(state, ops[0], groups[0], n)
    assert np.allclose(
        single, embed_operator(ops[0], groups[0], n) @ state, rtol=0, atol=1e-12
    )


def kraus_sum(rho, kraus, qubits, n) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        big = embed_operator(k, qubits, n)
        out += big @ rho @ big.conj().T
    return out


@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    two_qubit=st.booleans(),
    rank=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_superoperator_channel_matches_kraus_sum(n, seed, two_qubit, rank, data):
    rng = np.random.default_rng(seed)
    k = 2 if two_qubit and n >= 2 else 1
    qubits = tuple(data.draw(st.permutations(range(n)))[:k])
    kraus = random_kraus(k, rank, rng)
    rho = random_density(n, rng)
    got = apply_channel(rho, kraus, qubits, n)
    assert np.allclose(got, kraus_sum(rho, kraus, qubits, n), rtol=0, atol=1e-14)
    op = haar_unitary(2**k, rng)
    assert np.allclose(
        conjugate_local(rho, op, qubits, n),
        kraus_sum(rho, [op], qubits, n),
        rtol=0,
        atol=1e-14,
    )


@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    t1=st.floats(5.0, 500.0),
    t2_ratio=st.floats(0.05, 2.0),
    duration=st.floats(0.0, 200.0),
)
@settings(max_examples=100, deadline=None)
def test_decoherence_superoperator_matches_kraus_sums(n, seed, t1, t2_ratio, duration):
    model = DecoherenceModel(t1_ns=t1, t2_ns=t1 * t2_ratio)
    rho = random_density(n, np.random.default_rng(seed))
    amp = amplitude_damping_kraus(model.damping_probability(duration))
    phi = phase_damping_kraus(model.dephasing_probability(duration))
    expected = rho
    for q in range(n):
        expected = kraus_sum(expected, amp, [q], n)
        expected = kraus_sum(expected, phi, [q], n)
    got = model.apply(rho, duration, n)
    assert np.allclose(got, expected, rtol=0, atol=1e-14)
