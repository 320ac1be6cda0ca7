"""Strang-split Trotter engine for full-device evolution.

During a scheduled layer the device Hamiltonian is

    H(t) = SUM_g H_ctrl^(g)(t)  +  SUM_(i,j) lambda_ij Z_i Z_j

where the first sum runs over the gates (pulses) of the layer and the second
over *all* couplings of the device — the always-on ZZ crosstalk.  The ZZ part
is diagonal, so a symmetric (Strang) splitting

    U(dt) ~= D(dt/2) . U_drive(dt) . D(dt/2)

costs one elementwise multiply plus one small GEMM per active fused drive
group per step.  Consecutive half-phases merge into full phases, so a layer
of N steps performs exactly N+1 diagonal multiplies.

Cost model of one layer on ``C`` columns of ``2^n`` amplitudes (``C = 1``
for a statevector, ``C = 2^n`` for :meth:`TrotterEngine.layer_unitary`):

- at layer start, the drives, ordered longest first, are packed into
  consecutive groups of at most :data:`MAX_FUSED_QUBITS` qubits.  A group's
  step op is the Kronecker product of its members' step ops (one einsum
  per group), a member shorter than the group padded with identity steps;
  a drive wider than the cap is its own group.  Group lengths stay
  non-increasing;
- one transpose permutes the qubits so every group's qubits are
  contiguous — groups in that order, idle qubits last — fused with the
  first half-phase multiply (the phase vectors are permuted the same way).
  The permutation is memoized per tuple of group qubits and shares its
  overlap check with :func:`repro.sim.statevector.apply_local_ops`;
- per step, one GEMM ``psi.reshape(d, -1).T @ op_k.T`` per active group
  (``d = 2^k`` for a k-qubit group).  Each applies the step propagator and
  moves that group's axes from the front to the back, so the active groups
  (a prefix, thanks to the ordering) rotate through the front with no
  copies; then one pass moves the tail of idle qubits, finished groups and
  columns back behind them, fused with the phase multiply (a plain
  in-place multiply when there is no such tail);
- at layer end, one inverse transpose.

So a step touches the state ``active + 1`` times, and the Python overhead
per step is a handful of numpy calls.  Drives on disjoint qubits commute,
which is what makes the reordering and the fusion exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.qmath.tensor import zz_diagonal
from repro.sim import DEFAULT_DT
from repro.sim.statevector import _layout as _group_layout


@dataclass(frozen=True)
class LayerDrive:
    """A pulse acting on ``qubits`` during a layer.

    ``step_ops`` has shape ``(n_steps, d, d)`` with ``d = 2**len(qubits)``;
    ``step_ops[k]`` is the exact propagator of the drive Hamiltonian over the
    k-th time step.  After its steps are exhausted the qubits idle (ZZ only).
    """

    qubits: tuple[int, ...]
    step_ops: np.ndarray


#: Widest fused drive group.  On 4096 amplitudes with one BLAS thread a step
#: GEMM takes ~18 us at ``d = 2`` (``M = 2``, OpenBLAS's slow shape), ~12 us
#: at ``d = 4``, ~13 us at ``d = 8`` and ~21 us at ``d = 16``.  Up to
#: ``d = 8`` a group costs no more per step than any one member alone, so
#: fusing wins even on the identity-padded steps; wider, it can lose.
MAX_FUSED_QUBITS = 3


def _fuse(drives: Sequence[LayerDrive]) -> list[LayerDrive]:
    """Pack ``drives``, already longest first, into consecutive small groups.

    A group holds at most :data:`MAX_FUSED_QUBITS` qubits.  Each group of two
    or more becomes one drive on its members' qubits, in order, whose step
    op is the Kronecker product of theirs; members shorter than the first
    are padded with identity steps.  The callers' ``step_ops`` are shared
    with the propagator cache and are never written to.
    """
    groups: list[list[LayerDrive]] = []
    width = 0
    for drive in drives:
        if not groups or width + len(drive.qubits) > MAX_FUSED_QUBITS:
            groups.append([])
            width = 0
        groups[-1].append(drive)
        width += len(drive.qubits)
    fused = []
    for group in groups:
        if len(group) == 1:
            fused.append(group[0])
            continue
        n_steps = len(group[0].step_ops)
        ops = []
        for drive in group:
            op = drive.step_ops
            if len(op) < n_steps:
                pad = np.broadcast_to(
                    np.eye(op.shape[1], dtype=op.dtype),
                    (n_steps - len(op),) + op.shape[1:],
                )
                op = np.concatenate([op, pad])
            ops.append(op)
        rows, cols = "abc"[: len(ops)], "xyz"[: len(ops)]
        spec = ",".join(f"k{r}{c}" for r, c in zip(rows, cols))
        kron = np.einsum(f"{spec}->k{rows}{cols}", *ops)
        qubits = tuple(q for drive in group for q in drive.qubits)
        d = 2 ** len(qubits)
        fused.append(LayerDrive(qubits, kron.reshape(n_steps, d, d)))
    return fused


@dataclass(frozen=True)
class _Layout:
    """How one layer's drives sit in the permuted state (see module doc)."""

    #: axis permutation into the layout (qubits, then the column axis n)
    into: tuple[int, ...]
    #: its inverse
    back: tuple[int, ...]
    #: ``heads[a]`` = dimension of the first ``a`` drives' qubits
    heads: tuple[int, ...]
    #: register basis index at each position of the layout
    index: np.ndarray


@lru_cache(maxsize=4096)
def _walk_layout(groups: tuple[tuple[int, ...], ...], num_qubits: int) -> _Layout:
    """The walk's layout for drives on ``groups``, already longest first."""
    into, _ = _group_layout(groups, num_qubits)
    heads = [1]
    for group in groups:
        heads.append(heads[-1] * 2 ** len(group))
    index = (
        np.arange(2**num_qubits)
        .reshape((2,) * num_qubits)
        .transpose(into[:-1])
        .reshape(-1)
    )
    index.setflags(write=False)
    return _Layout(
        into=into,
        back=tuple(int(axis) for axis in np.argsort(into)),
        heads=tuple(heads),
        index=index,
    )


class TrotterEngine:
    """Evolves statevectors (or unitary columns) through scheduled layers."""

    def __init__(
        self,
        num_qubits: int,
        couplings: Sequence[tuple[int, int, float]],
        dt: float = DEFAULT_DT,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.num_qubits = num_qubits
        self.dt = dt
        self.couplings = list(couplings)
        self._zz_diag = zz_diagonal(self.couplings, num_qubits)
        self._phase_full = np.exp(-1.0j * self._zz_diag * dt)
        self._phase_half = np.exp(-1.0j * self._zz_diag * dt / 2.0)

    def num_steps(self, duration: float) -> int:
        """Number of Trotter steps for a layer of ``duration`` ns."""
        return max(1, int(round(duration / self.dt)))

    def evolve_layer(
        self, state: np.ndarray, duration: float, drives: Sequence[LayerDrive]
    ) -> np.ndarray:
        """Evolve ``state`` (``(2^n,)`` or ``(2^n, C)``) through one layer."""
        n_steps = self.num_steps(duration)
        for drive in drives:
            if len(drive.step_ops) > n_steps:
                raise ValueError(
                    f"drive on {drive.qubits} has {len(drive.step_ops)} steps "
                    f"but the layer only has {n_steps}"
                )
        drives = _fuse(sorted(drives, key=lambda drive: -len(drive.step_ops)))
        n = self.num_qubits
        layout = _walk_layout(tuple(drive.qubits for drive in drives), n)
        dim = 2**n
        columns = state.shape[1] if state.ndim == 2 else 1
        tensor_shape = (2,) * n + (columns,)
        ops = [drive.step_ops for drive in drives]
        dims = [op.shape[1] for op in ops]
        lengths = [len(op) for op in ops]
        active = len(ops)

        half = self._phase_half[layout.index]
        full = self._phase_full[layout.index]
        psi = np.multiply(
            state.reshape(tensor_shape).transpose(layout.into),
            half.reshape((2,) * n + (1,)),
            order="C",
        )
        for k in range(n_steps):
            while active and lengths[active - 1] <= k:
                active -= 1
            phase = full if k < n_steps - 1 else half
            for j in range(active):
                psi = psi.reshape(dims[j], -1).T @ ops[j][k].T
            head = layout.heads[active]
            tail = dim // head
            if active and tail * columns > 1:
                # Layout is now (tail qubits, columns, head qubits): move the
                # tail back behind the head while applying the phases.
                psi = np.multiply(
                    psi.reshape(tail, columns, head).transpose(2, 0, 1),
                    phase.reshape(head, tail, 1),
                    order="C",
                )
            else:
                psi = psi.reshape(dim, columns)
                psi *= phase[:, None]
        return psi.reshape(tensor_shape).transpose(layout.back).reshape(state.shape)

    def evolve_idle(self, state: np.ndarray, duration: float) -> np.ndarray:
        """Pure ZZ evolution (no drives) — exact, single diagonal multiply."""
        return state * np.exp(-1.0j * self._zz_diag * duration)

    def layer_unitary(
        self, duration: float, drives: Sequence[LayerDrive]
    ) -> np.ndarray:
        """Full ``2^n x 2^n`` propagator of a layer: the walk of the identity.

        Only sensible for small devices (n <= ~8; density-matrix use).
        """
        return self.evolve_layer(
            np.eye(2**self.num_qubits, dtype=complex), duration, drives
        )
