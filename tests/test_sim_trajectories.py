"""Quantum-trajectory simulator tests (validated against density matrices)."""

import numpy as np
import pytest

from repro.circuits import Circuit, compile_circuit, transpile
from repro.circuits.library import BENCHMARKS
from repro.device import grid, make_device
from repro.pulses import build_library
from repro.runtime import execute_density
from repro.sim.density import (
    DecoherenceModel,
    amplitude_damping_kraus,
    apply_channel,
)
from repro.sim.trajectories import (
    apply_channel_stochastic,
    execute_trajectories,
)
from repro.scheduling import par_schedule, zzx_schedule
from repro.units import US


class TestStochasticChannel:
    def test_preserves_norm(self, rng):
        from repro.qmath.states import random_state

        psi = random_state(3, rng)
        kraus = amplitude_damping_kraus(0.3)
        out = apply_channel_stochastic(psi, kraus, 1, 3, rng)
        assert np.isclose(np.linalg.norm(out), 1.0)

    def test_ground_state_fixed_point(self, rng):
        from repro.qmath.states import zero_state

        psi = zero_state(2)
        kraus = amplitude_damping_kraus(0.5)
        out = apply_channel_stochastic(psi, kraus, 0, 2, rng)
        assert np.isclose(abs(np.vdot(zero_state(2), out)) ** 2, 1.0)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_draw_weights_are_branch_norms(self, rng, qubit):
        """The draw's weights are ``||K_i psi||^2``; only K_choice is applied."""
        from repro.qmath.states import random_state
        from repro.sim.statevector import apply_gate

        class Recorder:
            def choice(self, n, p):
                self.n, self.p = n, p
                return 1

        # A basis rotation makes K^dag K non-diagonal (the channel stays CPTP).
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rotation, _ = np.linalg.qr(m)
        kraus = [k @ rotation for k in amplitude_damping_kraus(0.3)]
        psi = random_state(3, rng)
        branches = [apply_gate(psi, k, [qubit], 3) for k in kraus]
        norms = np.array([np.vdot(b, b).real for b in branches])
        recorder = Recorder()
        out = apply_channel_stochastic(psi, kraus, qubit, 3, recorder)
        assert recorder.n == 2
        assert np.allclose(recorder.p, norms / norms.sum(), rtol=0, atol=1e-14)
        assert np.allclose(
            out, branches[1] / np.linalg.norm(branches[1]), rtol=0, atol=1e-14
        )

    def test_average_matches_channel(self, rng):
        """Trajectory average of |1><1| under damping converges to channel."""
        psi = np.array([0.0, 1.0], dtype=complex)
        kraus = amplitude_damping_kraus(0.4)
        rho_exact = apply_channel(np.outer(psi, psi.conj()), kraus, [0], 1)
        samples = np.zeros((2, 2), dtype=complex)
        n = 4000
        for _ in range(n):
            out = apply_channel_stochastic(psi, kraus, 0, 1, rng)
            samples += np.outer(out, out.conj())
        samples /= n
        assert np.allclose(samples, rho_exact, atol=0.03)


class TestExecuteTrajectories:
    @pytest.fixture(scope="class")
    def stack(self):
        device = make_device(grid(2, 2), seed=5)
        lib = build_library("pert")
        compiled = compile_circuit(BENCHMARKS["Ising"](4), device.topology)
        schedule = zzx_schedule(compiled.circuit, device.topology)
        return device, lib, schedule

    def test_matches_density_matrix(self, stack):
        device, lib, schedule = stack
        deco = DecoherenceModel(t1_ns=50.0 * US, t2_ns=50.0 * US)
        dm = execute_density(schedule, device, lib, deco)
        tj = execute_trajectories(
            schedule, device, lib, deco, num_trajectories=300, seed=1
        )
        assert abs(tj.fidelity - dm.fidelity) < max(4.0 * tj.stderr, 0.02)

    def test_no_decoherence_limit(self, stack):
        device, lib, schedule = stack
        deco = DecoherenceModel(t1_ns=1e12, t2_ns=1e12)
        tj = execute_trajectories(
            schedule, device, lib, deco, num_trajectories=3, seed=2
        )
        assert tj.stderr < 1e-9  # all trajectories identical

    def test_confidence_interval(self, stack):
        device, lib, schedule = stack
        deco = DecoherenceModel(t1_ns=100.0 * US, t2_ns=100.0 * US)
        tj = execute_trajectories(
            schedule, device, lib, deco, num_trajectories=50, seed=3
        )
        low, high = tj.confidence95
        assert low <= tj.fidelity <= high

    def test_twelve_qubit_device_supported(self):
        """The point of trajectories: Fig. 23 on the paper's full grid."""
        device = make_device(grid(3, 4), seed=7)
        lib = build_library("pert")
        circuit = transpile(Circuit(12).h(0).cx(0, 1))
        compiled = compile_circuit(circuit, device.topology, layout="trivial")
        schedule = zzx_schedule(compiled.circuit, device.topology)
        deco = DecoherenceModel(t1_ns=100.0 * US, t2_ns=100.0 * US)
        tj = execute_trajectories(
            schedule, device, lib, deco, num_trajectories=5, seed=4
        )
        assert 0.8 < tj.fidelity <= 1.0

    def test_single_trajectory_has_no_stderr(self, stack):
        device, lib, schedule = stack
        deco = DecoherenceModel(t1_ns=100.0 * US, t2_ns=100.0 * US)
        tj = execute_trajectories(
            schedule, device, lib, deco, num_trajectories=1, seed=3
        )
        assert tj.stderr is None and tj.num_trajectories == 1
        with pytest.raises(ValueError, match="at least two trajectories"):
            tj.confidence95

    def test_zero_trajectories_rejected(self, stack):
        device, lib, schedule = stack
        deco = DecoherenceModel(t1_ns=1e6, t2_ns=1e6)
        with pytest.raises(ValueError):
            execute_trajectories(schedule, device, lib, deco, num_trajectories=0)
