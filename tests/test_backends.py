"""Backend-equivalence suite for the pluggable execution architecture.

Pins the contracts the refactor relies on: every backend dispatches through
the one shared layer-walk driver, the three backends agree with each other
where physics says they must, the layer-propagator cache is bit-exact, and
the ``backend`` axis round-trips through campaign cells and stores.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.campaigns import (
    Cell,
    DeviceSpec,
    ResultStore,
    SweepSpec,
    evaluate_cell,
    run_campaign,
)
from repro.circuits import compile_circuit
from repro.circuits.library import BENCHMARKS
from repro.device import grid, make_device
from repro.pulses import build_library
from repro.runtime import (
    LayerPropagatorCache,
    StatevectorBackend,
    execute,
    execute_density,
    execute_statevector,
    resolve_backend,
)
from repro.runtime.backends import (
    DensityBackend,
    TrajectoryBackend,
)
from repro.scheduling import zzx_schedule
from repro.sim.density import DecoherenceModel
from repro.sim.trajectories import execute_trajectories
from repro.units import US


@pytest.fixture(scope="module")
def stack():
    """4-qubit Ising schedule on a 2x2 device (repeated cost layers)."""
    device = make_device(grid(2, 2), seed=5)
    lib = build_library("pert")
    compiled = compile_circuit(BENCHMARKS["Ising"](4), device.topology)
    schedule = zzx_schedule(compiled.circuit, device.topology)
    return device, lib, schedule


DECO = DecoherenceModel(t1_ns=50.0 * US, t2_ns=50.0 * US)


class TestBackendEquivalence:
    def test_density_matches_statevector_when_coherent(self, stack):
        """With decoherence off the two exact backends must agree to 1e-10."""
        device, lib, schedule = stack
        sv = execute(schedule, device, lib, "statevector")
        dm = execute(schedule, device, lib, "density")  # no DecoherenceModel
        assert abs(sv.fidelity - dm.fidelity) < 1e-10

    def test_trajectories_converge_to_density(self, stack):
        """Monte Carlo estimate within 3*stderr of the exact channel result."""
        device, lib, schedule = stack
        dm = execute_density(schedule, device, lib, DECO)
        tj = execute(
            schedule,
            device,
            lib,
            "trajectories",
            decoherence=DECO,
            trajectories=300,
            seed=2,
        )
        assert tj.stderr > 0
        assert abs(tj.fidelity - dm.fidelity) < 3.0 * tj.stderr

    def test_trajectories_coherent_limit(self, stack):
        """With negligible decoherence every trajectory equals statevector."""
        device, lib, schedule = stack
        huge = DecoherenceModel(t1_ns=1e15, t2_ns=1e15)
        sv = execute_statevector(schedule, device, lib)
        tj = execute(
            schedule, device, lib, "trajectories",
            decoherence=huge, trajectories=3,
        )
        assert tj.stderr < 1e-9
        assert abs(tj.fidelity - sv.fidelity) < 1e-6

    def test_wrapper_is_dispatch(self, stack):
        """The legacy entry points are exactly the generic driver."""
        device, lib, schedule = stack
        assert (
            execute_statevector(schedule, device, lib).fidelity
            == execute(schedule, device, lib, "statevector").fidelity
        )
        assert (
            execute_density(schedule, device, lib, DECO).fidelity
            == execute(
                schedule, device, lib, "density", decoherence=DECO
            ).fidelity
        )
        tj = execute_trajectories(
            schedule, device, lib, DECO, num_trajectories=10, seed=3
        )
        via_driver = execute(
            schedule, device, lib, "trajectories",
            decoherence=DECO, trajectories=10, seed=3,
        )
        assert tj.fidelity == via_driver.fidelity
        assert tj.stderr == via_driver.stderr

    def test_trajectory_stderr_uses_sample_deviation(self):
        """stderr is std(ddof=1)/sqrt(T); a single trajectory has none."""
        ideal = np.array([1.0, 0.0], dtype=complex)
        finals = [
            np.array([1.0, 0.0], dtype=complex),
            np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
            np.array([0.0, 1.0], dtype=complex),
        ]
        walks = iter(finals)
        backend = TrajectoryBackend(DECO, num_trajectories=3)
        out = backend.outcome(lambda: next(walks), ideal)
        assert out.fidelity == pytest.approx(0.5)
        assert out.stderr == pytest.approx(0.5 / np.sqrt(3.0), abs=1e-15)
        single = TrajectoryBackend(DECO, num_trajectories=1)
        out = single.outcome(lambda: finals[1], ideal)
        assert out.stderr is None and out.num_trajectories == 1


class TestLayerPropagatorCache:
    @pytest.mark.parametrize("backend_kwargs", [
        {"backend": "statevector"},
        {"backend": "density", "decoherence": DECO},
        {"backend": "trajectories", "decoherence": DECO, "trajectories": 20},
    ])
    def test_cache_on_off_bit_identical(self, stack, backend_kwargs):
        device, lib, schedule = stack
        on = execute(schedule, device, lib, cache=True, **backend_kwargs)
        off = execute(schedule, device, lib, cache=False, **backend_kwargs)
        assert on.fidelity == off.fidelity  # bit-identical, not approximate

    def test_repeated_layers_hit(self, stack):
        """The Ising schedule repeats layers, so a run must produce hits."""
        device, lib, schedule = stack
        cache = LayerPropagatorCache()
        execute(schedule, device, lib, "density", decoherence=DECO, cache=cache)
        assert cache.hits > 0
        assert 0.0 < cache.hit_rate < 1.0

    def test_shared_cache_across_executions(self, stack):
        """A caller-owned cache turns the second run into all hits."""
        device, lib, schedule = stack
        cache = LayerPropagatorCache()
        first = execute(
            schedule, device, lib, "density", decoherence=DECO, cache=cache
        )
        misses = cache.misses
        second = execute(
            schedule, device, lib, "density", decoherence=DECO, cache=cache
        )
        assert cache.misses == misses  # nothing rebuilt
        assert second.fidelity == first.fidelity

    def test_keyed_by_layer_content(self):
        cache = LayerPropagatorCache()
        calls = []
        cache.unitary(("a", 10.0, 0.25), lambda: calls.append(1) or "UA")
        assert cache.unitary(("a", 10.0, 0.25), lambda: calls.append(2)) == "UA"
        cache.unitary(("a", 20.0, 0.25), lambda: calls.append(3) or "UB")
        assert calls == [1, 3]


class TestDispatch:
    def test_unknown_backend_rejected(self, stack):
        device, lib, schedule = stack
        with pytest.raises(ValueError, match="unknown backend"):
            execute(schedule, device, lib, "qutip")

    def test_statevector_rejects_decoherence(self, stack):
        device, lib, schedule = stack
        with pytest.raises(ValueError, match="coherent-only"):
            execute(schedule, device, lib, "statevector", decoherence=DECO)

    def test_trajectories_require_decoherence(self, stack):
        device, lib, schedule = stack
        with pytest.raises(ValueError, match="DecoherenceModel"):
            execute(schedule, device, lib, "trajectories")

    def test_density_cap_still_enforced(self):
        from repro.circuits import Circuit, transpile
        from repro.scheduling import par_schedule

        device = make_device(grid(3, 4), seed=7)
        lib = build_library("gaussian")
        schedule = par_schedule(transpile(Circuit(12)))
        with pytest.raises(ValueError, match="limited to 8 qubits"):
            execute(schedule, device, lib, "density", decoherence=DECO)

    def test_backend_instances_pass_through(self, stack):
        """Pre-built backends plug straight into the driver."""
        device, lib, schedule = stack
        by_name = execute(schedule, device, lib, "statevector")
        by_instance = execute(schedule, device, lib, StatevectorBackend())
        assert by_name.fidelity == by_instance.fidelity

    def test_instance_with_dispatch_kwargs_rejected(self, stack):
        """Instance dispatch refuses kwargs it would otherwise drop."""
        device, lib, schedule = stack
        with pytest.raises(ValueError, match="constructor"):
            execute(
                schedule, device, lib, StatevectorBackend(), decoherence=DECO
            )
        with pytest.raises(ValueError, match="constructor"):
            execute(
                schedule, device, lib,
                TrajectoryBackend(DECO, 10), trajectories=500,
            )

    def test_resolve_backend(self):
        assert isinstance(resolve_backend("statevector"), StatevectorBackend)
        assert isinstance(
            resolve_backend("density", decoherence=DECO), DensityBackend
        )
        tj = resolve_backend(
            "trajectories", decoherence=DECO, num_trajectories=7
        )
        assert isinstance(tj, TrajectoryBackend)
        assert tj.num_trajectories == 7
        with pytest.raises(ValueError):
            resolve_backend("trajectories", decoherence=DECO, num_trajectories=0)
        # A sample count on an exact backend is a misconfiguration, not a
        # silently dropped option (mirrors Cell validation).
        with pytest.raises(ValueError, match="only applies"):
            resolve_backend("density", decoherence=DECO, num_trajectories=500)

    def test_spec_constants_mirror_runtime(self):
        """spec.py keeps literal mirrors (leaf module); pin them in sync."""
        from repro.campaigns import spec
        from repro.runtime import backends

        assert spec.BACKENDS == backends.BACKEND_NAMES
        assert spec.DEFAULT_TRAJECTORIES == backends.DEFAULT_TRAJECTORIES


class TestCellBackendAxis:
    def test_trajectories_cell_normalizes(self):
        cell = Cell(
            "Ising", 4, "pert+zzx",
            backend="trajectories", t1_us=100.0, t2_us=100.0,
        )
        assert cell.kind == "density"  # canonical decoherent spelling
        assert cell.backend == "trajectories"
        assert cell.trajectories == 100  # default sample count

    def test_legacy_density_cell_resolves_to_density_backend(self):
        cell = Cell(
            "QAOA", 4, "gau+par", kind="density",
            device=DeviceSpec(rows=2, cols=3), t1_us=100.0, t2_us=100.0,
        )
        assert cell.backend == "density"
        # Pre-backend-axis payloads stay byte-identical (stable store keys).
        assert "backend" not in cell.payload()
        assert Cell.from_payload(cell.payload()) == cell

    def test_trajectories_cell_payload_round_trip(self):
        cell = Cell(
            "Ising", 4, "pert+zzx",
            backend="trajectories", trajectories=25,
            t1_us=100.0, t2_us=100.0,
        )
        payload = cell.payload()
        assert payload["backend"] == "trajectories"
        assert payload["trajectories"] == 25
        assert Cell.from_payload(payload) == cell

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ValueError, match="density or trajectories"):
            Cell("QAOA", 4, "gau+par", kind="density", backend="statevector",
                 t1_us=100.0, t2_us=100.0)
        with pytest.raises(ValueError, match="pure analysis"):
            Cell("QAOA", 4, "gau+par", kind="exec_time", backend="density",
                 t1_us=100.0, t2_us=100.0)
        with pytest.raises(ValueError, match="t1_us"):
            Cell("QAOA", 4, "gau+par", backend="trajectories")
        with pytest.raises(ValueError, match="only applies"):
            Cell("QAOA", 4, "gau+par", trajectories=50)
        with pytest.raises(ValueError, match="unknown backend"):
            Cell("QAOA", 4, "gau+par", backend="qutip")
        # t1 on a coherent cell fails at construction, not mid-campaign.
        with pytest.raises(ValueError, match="only apply"):
            Cell("QAOA", 4, "gau+par", t1_us=100.0, t2_us=100.0)

    def test_evaluate_cell_trajectories(self):
        device = DeviceSpec(rows=2, cols=2, seed=5)
        traj_cell = Cell(
            "Ising", 4, "pert+zzx",
            backend="trajectories", trajectories=50,
            device=device, t1_us=50.0, t2_us=50.0,
        )
        dens_cell = Cell(
            "Ising", 4, "pert+zzx",
            kind="density", device=device,
            t1_us=50.0, t2_us=50.0,
        )
        traj = evaluate_cell(traj_cell)
        dens = evaluate_cell(dens_cell)
        assert traj["num_trajectories"] == 50
        assert traj["stderr"] > 0
        assert "stderr" not in dens
        assert abs(traj["fidelity"] - dens["fidelity"]) < 4.0 * traj["stderr"]
        single = evaluate_cell(replace(traj_cell, trajectories=1))
        assert single["num_trajectories"] == 1
        assert "stderr" not in single

    def test_sweep_spec_backend_axis(self):
        spec = SweepSpec(
            benchmarks=("Ising",),
            sizes=(4,),
            configs=("pert+zzx",),
            backend="trajectories",
            trajectories=10,
            t1_values_us=(100.0,),
        )
        assert spec.kind == "density"
        (cell,) = spec.cells()
        assert cell.backend == "trajectories"
        assert cell.trajectories == 10
        with pytest.raises(ValueError, match="--t1"):
            SweepSpec(benchmarks=("Ising",), backend="trajectories")

    def test_campaign_store_round_trip(self, tmp_path):
        spec = SweepSpec(
            name="traj",
            benchmarks=("Ising",),
            sizes=(4,),
            configs=("gau+par", "pert+zzx"),
            device=DeviceSpec(2, 2, seed=5),
            backend="trajectories",
            trajectories=10,
            t1_values_us=(100.0,),
        )
        store = ResultStore(tmp_path / "traj.jsonl")
        first = run_campaign(spec, store)
        assert first.computed == 2
        resumed = run_campaign(spec, ResultStore(tmp_path / "traj.jsonl"))
        assert resumed.computed == 0 and resumed.cached == 2
        for cell in spec.cells():
            assert resumed[cell] == first[cell]
            assert resumed[cell]["num_trajectories"] == 10


class TestCLIBackend:
    def test_sweep_backend_requires_t1(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--backend", "trajectories"]) == 2
        assert "--t1" in capsys.readouterr().err

    def test_run_rejects_bad_backend_options_with_exit_2(self, capsys):
        from repro.cli import main

        # --trajectories without --backend trajectories: exit 2, no traceback.
        assert main(["run", "fig23", "--trajectories", "5"]) == 2
        assert "invalid run" in capsys.readouterr().err
        assert main(["run", "fig23", "--backend", "statevector"]) == 2
        assert "coherent default" in capsys.readouterr().err

    def test_t1_alone_implies_density_sweep(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "sweep", "--benchmarks", "Ising", "--sizes", "4",
            "--configs", "pert+zzx", "--grid", "2x2", "--t1", "100",
        ]
        assert main(argv) == 0
        assert "sweep density" in capsys.readouterr().out

    def test_sweep_trajectories_smoke(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "s.jsonl")
        argv = [
            "sweep", "--benchmarks", "Ising", "--sizes", "4",
            "--configs", "pert+zzx", "--grid", "2x2",
            "--backend", "trajectories", "--trajectories", "5",
            "--t1", "100", "--store", store,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "backend=trajectories" in out
        assert "1 computed" in out
