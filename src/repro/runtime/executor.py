"""Circuit execution at the Hamiltonian level.

Runs a :class:`Schedule` on a :class:`Device`: every layer plays its pulses
through the Trotter engine with the device's always-on ZZ crosstalk; virtual
``rz`` gates apply exactly at layer boundaries.  The output fidelity against
the ideal state is the paper's evaluation metric (Sec 7.3).

:func:`execute` is the single layer-walk driver — virtual gates, layer
evolution, trailing virtuals, fidelity — parameterized over a pluggable
:class:`~repro.runtime.backends.SimBackend`:

- ``"statevector"`` (default) — coherent errors only (ZZ crosstalk, pulse
  error);
- ``"density"`` — additionally applies T1/T2 channels per layer (Fig. 23);
- ``"trajectories"`` — Monte Carlo unraveling of the same noise model for
  devices beyond the 8-qubit density cap.

Repeated layers (ubiquitous in QAOA/QV/Ising schedules) reuse their drive
lists and — on the density path — their full layer unitaries through a
:class:`~repro.runtime.backends.LayerPropagatorCache`; reuse is bit-exact,
so cached and uncached runs report identical fidelities.

Kernel notes.  Nearly all of a run's time is the Trotter walk inside
``backend.evolve_layer``.  Statevector and trajectory layers walk one
column; a density layer walks the identity (``2^n`` columns) once to get
the layer unitary, then costs two ``2^n x 2^n`` GEMMs for ``U rho U^dag``
and one GEMM per qubit for the T1/T_phi channels.  Those channels, and
``rho``'s virtual gates, act as ``4x4`` superoperators on the vectorized
density matrix (:mod:`repro.sim.density`).  The walk fuses each layer's
small drives into kron groups of at most 3 qubits, permutes the qubits
once per layer and then does one small GEMM per active group per step,
with no per-step copies (cost model in :mod:`repro.sim.trotter`).  These
GEMMs are too small to gain from BLAS threads, so pool workers cap
OpenBLAS at ``cores // workers`` threads (:mod:`repro.campaigns.blas`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.device import Device
from repro.pulses.library import PulseLibrary
from repro.runtime.backends import (
    DEFAULT_TRAJECTORY_SEED,
    LayerPropagatorCache,
    LayerStep,
    SimBackend,
    resolve_backend,
)
from repro.runtime.binding import drives_for_layer, virtual_matrix
from repro.runtime.ideal import ideal_schedule_state
from repro.scheduling.analysis import execution_time, layer_duration
from repro.scheduling.layer import Schedule
from repro.sim import DEFAULT_DT
from repro.sim.density import DecoherenceModel
from repro.sim.noise import DriveNoise
from repro.sim.trotter import TrotterEngine
from repro.telemetry import span


@dataclass
class ExecutionResult:
    """Outcome of one simulated execution."""

    fidelity: float
    execution_time_ns: float
    num_layers: int
    state: np.ndarray | None = None
    density: np.ndarray | None = None
    #: Monte Carlo statistics (trajectory backend only).
    stderr: float | None = None
    num_trajectories: int | None = None


def _plan_layers(
    schedule: Schedule,
    library: PulseLibrary,
    dt: float,
    noise: DriveNoise | None,
    cache: LayerPropagatorCache | None,
) -> list[LayerStep]:
    """Resolve every layer to its drives/virtuals once, before the walk."""
    steps: list[LayerStep] = []
    for layer in schedule.layers:
        virtuals = tuple(
            (virtual_matrix(gate), tuple(gate.qubits)) for gate in layer.virtual
        )
        duration = layer_duration(layer, library)
        if cache is not None:
            key = LayerPropagatorCache.layer_key(layer, duration, dt)
            drives = cache.drives(
                key, lambda: drives_for_layer(layer, library, dt, noise)
            )
        else:
            key = None
            drives = tuple(drives_for_layer(layer, library, dt, noise))
        steps.append(LayerStep(virtuals, duration, drives, key))
    return steps


def execute(
    schedule: Schedule,
    device: Device,
    library: PulseLibrary,
    backend: str | SimBackend = "statevector",
    *,
    decoherence: DecoherenceModel | None = None,
    trajectories: int | None = None,
    seed: int = DEFAULT_TRAJECTORY_SEED,
    dt: float = DEFAULT_DT,
    noise: DriveNoise | None = None,
    keep_state: bool = False,
    cache: bool | LayerPropagatorCache = True,
) -> ExecutionResult:
    """Run ``schedule`` on ``device`` through the named (or given) backend.

    ``cache=True`` means *the backend's default policy*: a fresh
    :class:`~repro.runtime.backends.LayerPropagatorCache` for backends that
    profit from one (density — its full layer unitaries dominate), nothing
    for the rest (the statevector walk pays more in key building than the
    drive-list reuse returns).  ``cache=False`` disables caching outright;
    passing a cache instance always uses it and shares it across executions
    (caller must keep library/device/noise fixed).
    """
    n = schedule.num_qubits
    if n != device.num_qubits:
        raise ValueError("schedule and device disagree on qubit count")
    backend = resolve_backend(
        backend, decoherence=decoherence, num_trajectories=trajectories, seed=seed
    )
    backend.validate(n)
    if cache is True:
        cache = (
            LayerPropagatorCache() if backend.uses_propagator_cache else None
        )
    elif cache is False:
        cache = None

    engine = TrotterEngine(n, device.couplings(), dt)
    with span("exec.plan_layers"):
        steps = _plan_layers(schedule, library, dt, noise, cache)
    trailing = tuple(
        (virtual_matrix(gate), tuple(gate.qubits))
        for gate in schedule.trailing_virtual
    )
    ideal = ideal_schedule_state(schedule)

    def walk() -> np.ndarray:
        state = backend.initial_state(n)
        for step in steps:
            for op, qubits in step.virtuals:
                state = backend.apply_virtual(state, op, qubits, n)
            if step.duration > 0:
                with span("layer"):
                    state = backend.evolve_layer(state, engine, step, cache)
        for op, qubits in trailing:
            state = backend.apply_virtual(state, op, qubits, n)
        return state

    with span("exec.run", group=backend.name):
        out = backend.outcome(walk, ideal)
    return ExecutionResult(
        fidelity=out.fidelity,
        execution_time_ns=execution_time(schedule, library),
        num_layers=schedule.num_layers,
        state=out.state if keep_state else None,
        density=out.density if keep_state else None,
        stderr=out.stderr,
        num_trajectories=out.num_trajectories,
    )


def execute_statevector(
    schedule: Schedule,
    device: Device,
    library: PulseLibrary,
    dt: float = DEFAULT_DT,
    noise: DriveNoise | None = None,
    keep_state: bool = False,
    cache: bool | LayerPropagatorCache = True,
) -> ExecutionResult:
    """Coherent Hamiltonian-level execution; returns output-state fidelity."""
    return execute(
        schedule,
        device,
        library,
        "statevector",
        dt=dt,
        noise=noise,
        keep_state=keep_state,
        cache=cache,
    )


def execute_density(
    schedule: Schedule,
    device: Device,
    library: PulseLibrary,
    decoherence: DecoherenceModel,
    dt: float = DEFAULT_DT,
    keep_state: bool = False,
    cache: bool | LayerPropagatorCache = True,
) -> ExecutionResult:
    """Execution with ZZ crosstalk *and* T1/T2 decoherence (Fig. 23)."""
    return execute(
        schedule,
        device,
        library,
        "density",
        decoherence=decoherence,
        dt=dt,
        keep_state=keep_state,
        cache=cache,
    )
