"""Monte Carlo quantum trajectories for decoherence on large devices.

Density-matrix execution (Fig. 23) scales as ``4^n`` and is capped at 8
qubits; the trajectory method unravels the same per-layer T1/T_phi channels
into stochastic Kraus applications on statevectors (``2^n``), converging to
the density-matrix result as the number of trajectories grows.  This makes
the decoherence study possible on the paper's full 3x4 grid.

For each layer and qubit, one Kraus operator ``K_i`` of the channel is
drawn with probability ``||K_i psi||^2`` and applied (renormalized) — the
standard quantum-jump unraveling of a CPTP map.  The weights come from the
qubit's reduced density matrix, so only the drawn branch is ever built.

This module owns the stochastic primitive
(:func:`apply_channel_stochastic`) and the :class:`TrajectoryResult`
container; the schedule walk itself is the executor's shared driver, which
:func:`execute_trajectories` invokes with the
:class:`~repro.runtime.backends.TrajectoryBackend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.sim import DEFAULT_DT
from repro.sim.density import DecoherenceModel
from repro.sim.statevector import apply_gate

if TYPE_CHECKING:  # imported lazily at call time to avoid import cycles
    from repro.device.device import Device
    from repro.pulses.library import PulseLibrary
    from repro.scheduling.layer import Schedule


@dataclass
class TrajectoryResult:
    """Monte Carlo fidelity estimate."""

    fidelity: float
    #: Standard error of the mean; ``None`` for a single trajectory.
    stderr: float | None
    num_trajectories: int
    execution_time_ns: float

    @property
    def confidence95(self) -> tuple[float, float]:
        if self.stderr is None:
            raise ValueError(
                "a confidence interval needs at least two trajectories; "
                f"this estimate has {self.num_trajectories}"
            )
        delta = 1.96 * self.stderr
        return (self.fidelity - delta, self.fidelity + delta)


def apply_channel_stochastic(
    state: np.ndarray,
    kraus: list[np.ndarray],
    qubit: int,
    num_qubits: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply one randomly drawn Kraus operator (quantum-jump step).

    Branch ``i`` is drawn with weight ``||K_i psi||^2 = Tr(K_i^dag K_i
    rho_q)``, read off the qubit's 2x2 reduced density matrix ``rho_q``, so
    only the drawn operator is applied to the state.
    """
    # Rows: the qubit's value; columns: every other qubit (and column).
    split = state.reshape(2**qubit, 2, -1).swapaxes(0, 1).reshape(2, -1)
    rho_q = split @ split.conj().T
    weights = np.einsum("mca,mcb,ba->m", np.conj(kraus), kraus, rho_q).real
    total = float(weights.sum())
    probabilities = [w / total for w in weights.tolist()]
    choice = rng.choice(len(kraus), p=probabilities)
    branch = apply_gate(state, kraus[choice], [qubit], num_qubits)
    return branch / np.linalg.norm(branch)


def execute_trajectories(
    schedule: Schedule,
    device: Device,
    library: PulseLibrary,
    decoherence: DecoherenceModel,
    num_trajectories: int = 100,
    seed: int = 99,
    dt: float = DEFAULT_DT,
) -> TrajectoryResult:
    """Trajectory-averaged output fidelity under ZZ crosstalk + T1/T2."""
    from repro.runtime.executor import execute

    out = execute(
        schedule,
        device,
        library,
        "trajectories",
        decoherence=decoherence,
        trajectories=num_trajectories,
        seed=seed,
        dt=dt,
    )
    return TrajectoryResult(
        fidelity=out.fidelity,
        stderr=out.stderr,
        num_trajectories=out.num_trajectories,
        execution_time_ns=out.execution_time_ns,
    )
