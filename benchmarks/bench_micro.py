"""Microbenchmarks of the performance-critical substrate pieces."""

import numpy as np

from repro.circuits import compile_circuit
from repro.circuits.library import qaoa
from repro.device import grid, make_device
from repro.graphs import alpha_optimal_suppression
from repro.pulses import build_library
from repro.pulses.optimizers.engine import (
    FidelityScenario,
    fidelity_sum_loss_and_grad,
    pert_loss_and_grad,
)
from repro.qmath.paulis import ID2, SX, SY, SZ
from repro.qmath.states import zero_state
from repro.qmath.tensor import kron_all
from repro.qmath.unitaries import rzx
from repro.runtime import execute_statevector
from repro.scheduling import zzx_schedule
from repro.sim.propagate import propagate_piecewise
from repro.sim.trotter import LayerDrive, TrotterEngine

_GENS_2Q = (
    np.kron(SX, ID2),
    np.kron(SY, ID2),
    np.kron(ID2, SX),
    np.kron(ID2, SY),
    np.kron(SZ, SX),
)
_XTALK_2Q = (np.kron(SZ, ID2), np.kron(ID2, SZ))


def test_pert_loss_grad_2q(benchmark):
    """One Pert objective+gradient evaluation on the 2-qubit 80-step grid.

    This is the optimizer's innermost call; the vectorized engine must be
    >= 3x the per-step loop implementation here (measured ~15x).
    """
    rng = np.random.default_rng(3)
    amps = 0.1 * rng.standard_normal((5, 80))
    target = rzx(np.pi / 2)

    benchmark(
        lambda: pert_loss_and_grad(amps, _GENS_2Q, _XTALK_2Q, target, 3.0, 0.25)
    )


def test_optctrl_scenario_loss_16dim(benchmark):
    """The OptCtrl 2q joint loss: three 16-dim training scenarios + gate term."""
    rng = np.random.default_rng(5)
    gen_joint = (
        kron_all([ID2, SX, ID2, ID2]),
        kron_all([ID2, SY, ID2, ID2]),
        kron_all([ID2, ID2, SX, ID2]),
        kron_all([ID2, ID2, SY, ID2]),
        kron_all([ID2, SZ, SX, ID2]),
    )
    xtalk_static = kron_all([SZ, SZ, ID2, ID2]) + kron_all([ID2, ID2, SZ, SZ])
    eye2 = np.eye(2, dtype=complex)
    target = rzx(np.pi / 2)
    joint_target = kron_all([eye2, target, eye2])
    scenarios = [
        FidelityScenario(gen_joint, lam * xtalk_static, joint_target, 1.0 / 3.0)
        for lam in (0.0016, 0.0047, 0.0094)
    ]
    scenarios.append(
        FidelityScenario(_GENS_2Q, np.zeros((4, 4), dtype=complex), target, 2.0)
    )
    amps = 0.1 * rng.standard_normal((5, 80))

    benchmark(lambda: fidelity_sum_loss_and_grad(scenarios, amps, 0.25))


def test_propagate_piecewise_16dim(benchmark):
    """Stacked-eigh propagation of 80 16-dim segments with intermediates."""
    rng = np.random.default_rng(7)
    hams = rng.normal(size=(80, 16, 16)) + 1j * rng.normal(size=(80, 16, 16))
    hams = hams + np.conj(np.transpose(hams, (0, 2, 1)))

    benchmark(
        lambda: propagate_piecewise(hams, 0.25, return_intermediates=True)
    )


def test_trotter_layer_12q(benchmark):
    """One 20 ns layer on the full 3x4 grid (the executor's hot path)."""
    device = make_device(grid(3, 4), seed=7)
    lib = build_library("pert")
    engine = TrotterEngine(12, device.couplings(), dt=0.25)
    ops = lib["rx90"].step_unitaries()
    drives = [LayerDrive((q,), ops) for q in (0, 2, 5, 7, 8, 10)]
    psi = zero_state(12)

    benchmark(lambda: engine.evolve_layer(psi.copy(), 20.0, drives))


def test_trotter_layer_zzx_12q(benchmark):
    """A ZZXSched-shaped layer: one rzx90 plus six identity pulses."""
    device = make_device(grid(3, 4), seed=7)
    lib = build_library("pert")
    engine = TrotterEngine(12, device.couplings(), dt=0.25)
    identity = lib["id"].step_unitaries()
    drives = [LayerDrive((q,), identity) for q in (0, 2, 4, 7, 9, 11)]
    drives.append(LayerDrive((5, 6), lib["rzx90"].step_unitaries()))
    psi = zero_state(12)

    benchmark(lambda: engine.evolve_layer(psi.copy(), 20.0, drives))


def test_alpha_optimal_suppression_grid34(benchmark):
    """Algorithm 1 on the paper's device with a gate constraint."""
    topo = grid(3, 4)
    benchmark(lambda: alpha_optimal_suppression(topo, gate_qubits=(5, 6)))


def test_zzx_scheduling_qaoa6(benchmark):
    """Algorithm 2 end to end on QAOA-6 (compile excluded)."""
    topo = grid(3, 4)
    circuit = compile_circuit(qaoa(6, seed=1), topo).circuit
    benchmark(lambda: zzx_schedule(circuit, topo))


def test_full_simulation_ising4(benchmark):
    """Complete execute_statevector run of a small benchmark."""
    device = make_device(grid(2, 3), seed=7)
    lib = build_library("pert")
    circuit = compile_circuit(qaoa(4, seed=1), device.topology).circuit
    schedule = zzx_schedule(circuit, device.topology)

    result = benchmark(lambda: execute_statevector(schedule, device, lib))
    assert result.fidelity > 0.9
