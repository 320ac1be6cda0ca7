"""Property-based tests: Algorithm 1 cuts and scheduling invariants."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, transpile
from repro.device import Topology, grid
from repro.graphs import alpha_optimal_suppression, cut_metrics
from repro.runtime.ideal import ideal_schedule_state
from repro.scheduling import par_schedule, zzx_schedule

GRIDS = [grid(2, 2), grid(2, 3), grid(3, 3), grid(3, 4)]


@st.composite
def random_gate_qubits(draw):
    topo = draw(st.sampled_from(GRIDS))
    # Pick a random coupled pair or a random pair of single qubits.
    edges = list(topo.edges)
    edge = draw(st.sampled_from(edges))
    extra = draw(
        st.lists(st.integers(0, topo.num_qubits - 1), max_size=2, unique=True)
    )
    return topo, frozenset(edge) | frozenset(extra)


@given(random_gate_qubits())
@settings(max_examples=40, deadline=None)
def test_constrained_plan_invariants(data):
    topo, qubits = data
    plan = alpha_optimal_suppression(topo, qubits)
    # The gate qubits always land in one partition.
    assert plan.is_monochromatic(qubits)
    # Metrics are self-consistent with the coloring.
    recomputed = cut_metrics(topo.graph, plan.coloring)
    assert recomputed.nc == plan.nc
    assert recomputed.nq == plan.nq
    # NQ bounded by device size; NC by coupling count.
    assert 1 <= plan.nq <= topo.num_qubits
    assert 0 <= plan.nc <= topo.num_couplings


@given(
    st.integers(2, 5),
    st.integers(0, 10_000),
)
@settings(max_examples=25, deadline=None)
def test_random_tree_complete_suppression(n, seed):
    tree = nx.random_labeled_tree(n, seed=seed)
    topo = Topology(tree)
    plan = alpha_optimal_suppression(topo)
    assert plan.nc == 0  # trees are bipartite


@st.composite
def random_native_circuit(draw):
    topo = grid(2, 3)
    n = topo.num_qubits
    c = Circuit(n)
    num_gates = draw(st.integers(1, 12))
    for _ in range(num_gates):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            c.rx90(draw(st.integers(0, n - 1)))
        elif kind == 1:
            c.rz(draw(st.integers(0, n - 1)), draw(st.floats(-3.0, 3.0)))
        else:
            edge = draw(st.sampled_from(list(topo.edges)))
            c.rzx90(*edge)
    return topo, c


@given(random_native_circuit())
@settings(max_examples=30, deadline=None)
def test_zzx_schedule_invariants(data):
    topo, circuit = data
    schedule = zzx_schedule(circuit, topo)
    schedule.validate()
    # Every physical gate scheduled exactly once; per-qubit order preserved.
    scheduled = schedule.all_gates()
    assert len(scheduled) == len(circuit.gates)
    for q in range(circuit.num_qubits):
        orig = [g for g in circuit.gates if q in g.qubits]
        got = [g for g in scheduled if q in g.qubits]
        assert orig == got


@given(random_native_circuit())
@settings(max_examples=20, deadline=None)
def test_schedulers_agree_semantically(data):
    topo, circuit = data
    par_state = ideal_schedule_state(par_schedule(circuit))
    zzx_state = ideal_schedule_state(zzx_schedule(circuit, topo))
    direct = circuit.output_state()
    assert abs(np.vdot(par_state, direct)) ** 2 > 1.0 - 1e-9
    assert abs(np.vdot(zzx_state, direct)) ** 2 > 1.0 - 1e-9


def _gate_tuples(schedule):
    out = []
    for layer in schedule.layers:
        out.append(
            tuple(
                (g.name, g.qubits, g.params)
                for kind in ("virtual", "gates", "identities")
                for g in getattr(layer, kind)
            )
        )
    out.append(tuple((g.name, g.qubits, g.params) for g in schedule.trailing_virtual))
    return out


@pytest.mark.tier2
@given(st.integers(0, 2_000))
@settings(max_examples=25, deadline=None)
def test_plan_cache_bit_identical_on_random_scenarios(seed):
    """Cache-on == cache-off schedules, layer by layer, bit for bit.

    Scenarios come from the verification generators (random grid /
    heavy-hex / random-regular devices, random + benchmark circuits), the
    same distribution ``repro verify`` sweeps.
    """
    from repro.scheduling.plan_cache import NullPlanCache, SuppressionPlanCache
    from repro.verify.generators import make_scenario

    scenario = make_scenario(seed)
    topo = scenario.device.topology
    cache = SuppressionPlanCache()
    cached = zzx_schedule(scenario.circuit, topo, plan_cache=cache)
    recached = zzx_schedule(scenario.circuit, topo, plan_cache=cache)
    uncached = zzx_schedule(scenario.circuit, topo, plan_cache=NullPlanCache())
    assert _gate_tuples(cached) == _gate_tuples(uncached)
    assert _gate_tuples(recached) == _gate_tuples(uncached)
    for a, b in zip(cached.layers, uncached.layers):
        assert a.plan.coloring == b.plan.coloring
        assert a.plan.metrics == b.plan.metrics


@pytest.mark.tier2
@given(st.integers(0, 2_000))
@settings(max_examples=25, deadline=None)
def test_gate_distance_matrix_matches_pairwise_on_random_devices(seed):
    """Vectorized Definition 6.1 == per-pair gate_distance, exactly."""
    from repro.scheduling.distance import gate_distance, gate_distance_matrix
    from repro.verify.generators import make_scenario

    scenario = make_scenario(seed)
    topo = scenario.device.topology
    gates = scenario.circuit.two_qubit_gates()
    if not gates:
        gates = list(scenario.circuit.gates)[:8]
    matrix = gate_distance_matrix(topo, gates)
    assert matrix.shape == (len(gates), len(gates))
    for i, a in enumerate(gates):
        for j, b in enumerate(gates):
            assert int(matrix[i, j]) == gate_distance(topo, a, b)


@pytest.mark.tier2
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_parity_search_matches_exact_evaluator_on_random_devices(data):
    """Algorithm 1's face-parity verdict == contract + 2-color + check.

    Topologies come from the verification generators (grids, heavy-hex
    rings with pendant bridges, planar 3-regular graphs); contract sets are
    a random coloring's monochromatic edges with random edges toggled, so
    both valid and invalid candidates occur.
    """
    from repro.graphs.suppression import _evaluate, _search_objective
    from repro.verify.generators import TOPOLOGY_FAMILIES, random_topology

    topo = random_topology(
        data.draw(st.integers(0, 2_000)),
        data.draw(st.sampled_from(TOPOLOGY_FAMILIES)),
        max_qubits=data.draw(st.integers(4, 12)),
    )
    n = topo.num_qubits
    coloring = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    toggled = data.draw(st.sets(st.sampled_from(topo.edges), max_size=2))
    contract = frozenset(
        (u, v)
        for u, v in topo.edges
        if (coloring[u] == coloring[v]) != ((u, v) in toggled)
    )
    gates = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=4)))
    plan = _evaluate(topo, contract, frozenset(), gates)
    expected = None if plan is None else plan.objective(0.5)
    assert _search_objective(topo, contract, gates, 0.5) == expected


@given(st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_transpile_preserves_unitary(seed):
    rng = np.random.default_rng(seed)
    c = Circuit(3)
    for _ in range(6):
        kind = rng.integers(0, 4)
        q = int(rng.integers(0, 3))
        q2 = (q + 1) % 3
        if kind == 0:
            c.u3(q, *rng.uniform(-3, 3, 3))
        elif kind == 1:
            c.cx(q, q2)
        elif kind == 2:
            c.cz(q, q2)
        else:
            c.rzz(q, q2, float(rng.uniform(-2, 2)))
    native = transpile(c)
    from repro.qmath.decompose import global_phase_aligned

    assert global_phase_aligned(native.unitary(), c.unitary())
