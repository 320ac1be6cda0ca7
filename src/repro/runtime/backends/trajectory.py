"""Monte Carlo trajectory backend: decoherence beyond the density cap.

Unravels the per-layer T1/T_phi channels into stochastic Kraus
applications on statevectors (``2^n`` memory), converging to the
density-matrix result as the trajectory count grows — the standard
quantum-jump method, which makes the Fig. 23 decoherence study possible on
the paper's full 3x4 grid.

This backend repeats the executor's shared layer walk once per trajectory
(by overriding :meth:`outcome`) and reports the sample mean fidelity with
its standard error (``ddof=1``; ``None`` for a single trajectory).
"""

from __future__ import annotations

import numpy as np

from repro.qmath.fidelity import state_fidelity
from repro.qmath.states import zero_state
from repro.sim.density import (
    DecoherenceModel,
    amplitude_damping_kraus,
    phase_damping_kraus,
)
from repro.sim.statevector import apply_gate

from repro.runtime.backends.base import BackendOutcome, SimBackend

DEFAULT_TRAJECTORIES = 100
DEFAULT_TRAJECTORY_SEED = 99


class TrajectoryBackend(SimBackend):
    """Quantum-jump unraveling of the density backend's noise model."""

    name = "trajectories"

    def __init__(
        self,
        decoherence: DecoherenceModel,
        num_trajectories: int = DEFAULT_TRAJECTORIES,
        seed: int = DEFAULT_TRAJECTORY_SEED,
    ):
        if decoherence is None:
            raise ValueError(
                "the trajectories backend needs a DecoherenceModel "
                "(without one it degenerates to the statevector backend)"
            )
        if num_trajectories < 1:
            raise ValueError("need at least one trajectory")
        self.decoherence = decoherence
        self.num_trajectories = int(num_trajectories)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        #: duration -> (amplitude kraus, phase kraus | None); kraus sets
        #: depend only on the layer duration, so repeated layers share them.
        self._channels: dict[float, tuple] = {}

    def channels(self, duration: float) -> tuple:
        found = self._channels.get(duration)
        if found is None:
            amp = amplitude_damping_kraus(
                self.decoherence.damping_probability(duration)
            )
            p_phi = self.decoherence.dephasing_probability(duration)
            phi = phase_damping_kraus(p_phi) if p_phi > 0.0 else None
            found = (amp, phi)
            self._channels[duration] = found
        return found

    def initial_state(self, num_qubits):
        return zero_state(num_qubits)

    def apply_virtual(self, state, op, qubits, num_qubits):
        return apply_gate(state, op, qubits, num_qubits)

    def evolve_layer(self, state, engine, step, cache):
        # Imported here: sim.trajectories keeps the stochastic primitive
        # (and its direct tests) while this module owns the walk hooks.
        from repro.sim.trajectories import apply_channel_stochastic

        psi = engine.evolve_layer(state, step.duration, step.drives)
        amp, phi = self.channels(step.duration)
        n = engine.num_qubits
        for q in range(n):
            psi = apply_channel_stochastic(psi, amp, q, n, self._rng)
            if phi is not None:
                psi = apply_channel_stochastic(psi, phi, q, n, self._rng)
        return psi

    def outcome(self, walk, ideal):
        self._rng = np.random.default_rng(self.seed)
        fidelities = np.empty(self.num_trajectories)
        for t in range(self.num_trajectories):
            fidelities[t] = state_fidelity(ideal, walk())
        stderr = None
        if self.num_trajectories > 1:
            stderr = float(
                np.std(fidelities, ddof=1) / np.sqrt(self.num_trajectories)
            )
        return BackendOutcome(
            fidelity=float(np.mean(fidelities)),
            stderr=stderr,
            num_trajectories=self.num_trajectories,
        )

    def score(self, state, ideal):
        return BackendOutcome(fidelity=state_fidelity(ideal, state))
