"""Local-operator application on statevectors (and batched columns).

Qubit 0 is the most significant bit of the basis index (big-endian), matching
:mod:`repro.qmath`.  A state is a column ``(2^n,)`` or a block of columns
``(2^n, B)``; operators act on the row index and every column alike.

The kernels avoid building full ``2^n x 2^n`` matrices: one transpose
brings the target qubits to the front (the permutation is memoized per
``(qubits, n)``), and a GEMM ``psi.reshape(d, -1).T @ op.T`` applies the
operator *and* rotates its axes to the back in the same pass, so a group
of disjoint operators costs one GEMM each plus one transpose in and one
out.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4096)
def _layout(
    groups: tuple[tuple[int, ...], ...], num_qubits: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis permutations around applying ops on disjoint ``groups``.

    Axes are the ``n`` qubits plus the column axis ``n``.  ``into`` puts the
    groups' qubits first (in group order) and the rest after; ``back``
    restores register order from the layout the GEMMs leave behind, which
    is ``rest..., columns, group qubits...``.
    """
    front = [q for group in groups for q in group]
    if len(set(front)) != len(front):
        raise ValueError(f"qubit groups overlap: {groups}")
    if any(q < 0 or q >= num_qubits for q in front):
        raise ValueError(f"qubits {front} out of range for n={num_qubits}")
    taken = set(front)
    rest = [q for q in range(num_qubits) if q not in taken]
    into = tuple(front + rest + [num_qubits])
    after = rest + [num_qubits] + front
    back = tuple(int(axis) for axis in np.argsort(after))
    return into, back


def apply_local_ops(
    state: np.ndarray,
    ops: Sequence[np.ndarray],
    groups: Sequence[Sequence[int]],
    num_qubits: int,
) -> np.ndarray:
    """Apply ``ops[i]`` on qubits ``groups[i]``; the groups must be disjoint.

    ``state`` is ``(2^n,)`` or ``(2^n, B)``.  Returns a new array of the
    same shape; ``state`` is not modified.
    """
    groups = tuple(tuple(int(q) for q in group) for group in groups)
    for op, group in zip(ops, groups, strict=True):
        d = 2 ** len(group)
        if op.shape != (d, d):
            raise ValueError(
                f"operator shape {op.shape} does not match {len(group)} qubits"
            )
    into, back = _layout(groups, num_qubits)
    columns = state.shape[1] if state.ndim == 2 else 1
    rest = num_qubits - sum(len(group) for group in groups)
    psi = state.reshape((2,) * num_qubits + (columns,)).transpose(into)
    for op, group in zip(ops, groups):
        # (d, rest).T @ op.T == (op @ psi).T: applies op, moves its axes last.
        psi = psi.reshape(2 ** len(group), -1).T @ op.T
    psi = psi.reshape((2,) * rest + (columns,) + (2,) * (num_qubits - rest))
    return psi.transpose(back).reshape(state.shape)


def apply_gate(
    state: np.ndarray, op: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` operator on ``qubits`` to ``state``.

    ``state`` is ``(2^n,)`` or ``(2^n, B)`` (every column evolves).
    Returns a new array; does not modify ``state`` in place.
    """
    return apply_local_ops(state, (op,), (qubits,), num_qubits)
