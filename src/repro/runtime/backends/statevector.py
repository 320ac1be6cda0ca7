"""Coherent statevector backend: ZZ crosstalk and pulse error only."""

from __future__ import annotations

import numpy as np

from repro.qmath.fidelity import state_fidelity
from repro.qmath.states import zero_state
from repro.sim.statevector import apply_gate

from repro.runtime.backends.base import BackendOutcome, SimBackend

#: A statevector or trajectories cell simulates the whole device as one
#: ``2^n`` register (plus the ideal reference state).  20 qubits is 16 MiB
#: per state: well above the paper's 12-qubit device, and small enough that
#: no accepted request can exhaust a worker's memory.
MAX_STATEVECTOR_QUBITS = 20


class StatevectorBackend(SimBackend):
    """Pure-state evolution through the Trotter engine (``2^n`` memory)."""

    name = "statevector"

    def initial_state(self, num_qubits):
        return zero_state(num_qubits)

    def apply_virtual(self, state, op, qubits, num_qubits):
        return apply_gate(state, op, qubits, num_qubits)

    def evolve_layer(self, state, engine, step, cache):
        return engine.evolve_layer(state, step.duration, step.drives)

    def score(self, state, ideal):
        return BackendOutcome(
            fidelity=state_fidelity(ideal, state), state=state
        )
