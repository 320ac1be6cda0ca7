import numpy as np
import pytest

from repro.qmath.paulis import ID2, SX, SZ
from repro.qmath.states import random_state, zero_state
from repro.qmath.tensor import embed_operator, kron_all, zz_diagonal
from repro.qmath.unitaries import CNOT, HADAMARD, expm_hermitian
from repro.sim.propagate import propagate_with_zz
from repro.sim.statevector import apply_gate
from repro.sim.trotter import LayerDrive, TrotterEngine


class TestApplyGate:
    def test_matches_embed_1q(self, rng):
        psi = random_state(3, rng)
        got = apply_gate(psi, HADAMARD, [1], 3)
        expected = embed_operator(HADAMARD, [1], 3) @ psi
        assert np.allclose(got, expected)

    def test_matches_embed_2q(self, rng):
        psi = random_state(4, rng)
        got = apply_gate(psi, CNOT, [3, 1], 4)
        expected = embed_operator(CNOT, [3, 1], 4) @ psi
        assert np.allclose(got, expected)

    def test_norm_preserved(self, rng):
        psi = random_state(5, rng)
        out = apply_gate(psi, CNOT, [0, 4], 5)
        assert np.isclose(np.linalg.norm(out), 1.0)

    def test_wrong_shape_raises(self, rng):
        with pytest.raises(ValueError):
            apply_gate(random_state(2, rng), HADAMARD, [0, 1], 2)

    def test_last_qubit_leaves_input_unmodified(self, rng):
        psi = random_state(3, rng)
        before = psi.copy()
        got = apply_gate(psi, HADAMARD, [2], 3)
        assert np.allclose(got, embed_operator(HADAMARD, [2], 3) @ before)
        assert np.array_equal(psi, before)


class TestApplyGateMatrix:
    """``apply_gate`` on a ``(2^n, m)`` block evolves every column."""

    def test_identity_columns(self, rng):
        mat = np.eye(8, dtype=complex)
        got = apply_gate(mat, HADAMARD, [1], 3)
        assert np.allclose(got, embed_operator(HADAMARD, [1], 3))

    def test_column_consistency(self, rng):
        mat = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        got = apply_gate(mat, CNOT, [2, 0], 3)
        expected = embed_operator(CNOT, [2, 0], 3) @ mat
        assert np.allclose(got, expected)


class TestDiagonalPhase:
    def test_elementwise(self):
        # A diagonal operator on every qubit multiplies elementwise.
        psi = np.ones(4, dtype=complex)
        phases = np.exp(1j * np.arange(4))
        out = apply_gate(psi, np.diag(phases), [0, 1], 2)
        assert np.allclose(out, phases)


class TestTrotterEngine:
    def test_idle_matches_exact(self, rng):
        couplings = [(0, 1, 0.01), (1, 2, 0.02)]
        engine = TrotterEngine(3, couplings, dt=0.25)
        psi = random_state(3, rng)
        got = engine.evolve_idle(psi.copy(), 17.0)
        diag = zz_diagonal(couplings, 3)
        expected = np.exp(-1j * diag * 17.0) * psi
        assert np.allclose(got, expected)

    def test_layer_matches_exact_propagator(self, rng):
        # 3-qubit chain, X drive on qubit 1, ZZ on both couplings.
        couplings = [(0, 1, 0.008), (1, 2, 0.005)]
        dt = 0.1
        n_steps = 100
        amps = 0.05 * np.sin(np.linspace(0, np.pi, n_steps))
        drive_ops = np.array(
            [expm_hermitian(a * SX, dt) for a in amps]
        )
        engine = TrotterEngine(3, couplings, dt=dt)
        psi0 = random_state(3, rng)
        got = engine.evolve_layer(psi0.copy(), n_steps * dt, [LayerDrive((1,), drive_ops)])

        # Exact: piecewise-constant full Hamiltonian.
        h_zz = 0.008 * kron_all([SZ, SZ, ID2]) + 0.005 * kron_all([ID2, SZ, SZ])
        hams = np.array(
            [a * kron_all([ID2, SX, ID2]) for a in amps]
        )
        u_exact = propagate_with_zz(hams, h_zz, dt)
        expected = u_exact @ psi0
        overlap = abs(np.vdot(expected, got)) ** 2
        assert overlap > 1.0 - 1e-8

    def test_norm_preserved(self, rng):
        engine = TrotterEngine(2, [(0, 1, 0.01)], dt=0.25)
        ops = np.array([expm_hermitian(0.1 * SX, 0.25)] * 80)
        psi = engine.evolve_layer(zero_state(2), 20.0, [LayerDrive((0,), ops)])
        assert np.isclose(np.linalg.norm(psi), 1.0)

    def test_too_many_drive_steps_raises(self):
        engine = TrotterEngine(2, [(0, 1, 0.01)], dt=0.25)
        ops = np.array([ID2] * 100)
        with pytest.raises(ValueError):
            engine.evolve_layer(zero_state(2), 20.0, [LayerDrive((0,), ops)])

    def test_layer_unitary_matches_state_evolution(self, rng):
        engine = TrotterEngine(2, [(0, 1, 0.02)], dt=0.5)
        ops = np.array([expm_hermitian(0.2 * SX, 0.5)] * 10)
        drives = [LayerDrive((1,), ops)]
        u = engine.layer_unitary(5.0, drives)
        psi0 = random_state(2, rng)
        via_matrix = u @ psi0
        via_state = engine.evolve_layer(psi0.copy(), 5.0, drives)
        assert np.allclose(via_matrix, via_state)

    def test_invalid_dt_raises(self):
        with pytest.raises(ValueError):
            TrotterEngine(2, [], dt=0.0)
