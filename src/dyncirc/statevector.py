"""Small dense statevector engine: the exact oracle for everything else.

Capacity is capped at 14 qubits.  Basis convention: qubit 0 is the most
significant bit of the amplitude index, matching ``PauliString.to_matrix``.

The circuit executor enumerates measurement branches exactly (no sampling):
``run_branches`` returns every outcome branch with its probability, classical
record bits, and final state.  Noise is handled by exact enumeration over
Bernoulli insertion configurations (``enumerate_noise``), which keeps
acceptance checks free of statistical error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .circuits import Circuit
from .pauli import PauliString

MAX_QUBITS = 14

_SQ2 = 1.0 / np.sqrt(2.0)

GATES: dict[str, np.ndarray] = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "ccz": np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex),
}


# a measurement or reset outcome at most this likely is dropped as impossible
MIN_OUTCOME_PROB = 1e-14


def n_of(state: np.ndarray) -> int:
    size = state.size
    if size < 1 or size & (size - 1):
        raise ValueError(f"a state has 2^n amplitudes, got {size}")
    return size.bit_length() - 1


def zero_state(n: int) -> np.ndarray:
    if n > MAX_QUBITS:
        raise ValueError(f"dense engine capped at {MAX_QUBITS} qubits, asked for {n}")
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def basis_state(n: int, bits: int) -> np.ndarray:
    """Computational basis state; bit of qubit 0 is the MSB of ``bits``."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[bits] = 1.0
    return psi


# ---------------------------------------------------------------------------
# kernels: a gate or collapse reads the state through a reshaped view in which
# each touched qubit has its own axis of length 2 and the qubits between them
# are merged, so it is a few whole-slice operations (the amplitude-pair
# updates of QuEST, arXiv:1802.08032)
# ---------------------------------------------------------------------------


def _view(state: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """``state`` as (2^a, 2, 2^b, 2, ..., 2^z): axis 2i+1 is the i-th of the
    sorted ``qubits``, the others merge the qubits around them."""
    n = n_of(state)
    shape = []
    prev = -1
    for q in sorted(qubits):
        if q <= prev or q >= n:
            raise ValueError(f"qubits {qubits} are not distinct qubits of a {n}-qubit state")
        shape += [1 << (q - prev - 1), 2]
        prev = q
    shape.append(1 << (n - prev - 1))
    return state.reshape(shape)


def _slot(qubits: tuple[int, ...], bits: tuple[int, ...]) -> tuple:
    """Index into a :func:`_view` of the block where ``qubits[i]`` has bit ``bits[i]``."""
    order = sorted(qubits)
    idx: list = [slice(None)] * (2 * len(qubits) + 1)
    for q, b in zip(qubits, bits):
        idx[2 * order.index(q) + 1] = b
    return tuple(idx)


def _apply_1q(state: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Each output half of the qubit is written once from the two input
    halves; matrix entries equal to 0 are skipped."""
    src = _view(state, qubits)
    out = np.empty(src.shape, dtype=complex)
    for r in (0, 1):
        dst = out[:, r]
        m0, m1 = mat[r, 0], mat[r, 1]
        if m1 == 0:
            np.multiply(src[:, 0], m0, out=dst)
        elif m0 == 0:
            np.multiply(src[:, 1], m1, out=dst)
        else:
            np.multiply(src[:, 0], m0, out=dst)
            dst += m1 * src[:, 1]
    return out.reshape(-1)


def _apply_cx(state: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """One copy, then the control-1 quarters swap their target halves."""
    out = state.flatten()
    src, dst = _view(state, qubits), _view(out, qubits)
    dst[_slot(qubits, (1, 0))] = src[_slot(qubits, (1, 1))]
    dst[_slot(qubits, (1, 1))] = src[_slot(qubits, (1, 0))]
    return out


def _apply_ccz(state: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """One copy, then the sign of the |111> block flips."""
    out = state.flatten()
    _view(out, qubits)[_slot(qubits, (1, 1, 1))] *= -1
    return out


def apply_unitary(state: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], check: bool = True) -> np.ndarray:
    """Apply a 2^k x 2^k unitary to the given qubits of the state."""
    k = len(qubits)
    if mat.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {mat.shape} does not fit {k} qubits")
    if check:
        err = np.abs(mat @ mat.conj().T - np.eye(1 << k)).max()
        if err > 1e-10:
            raise ValueError(f"matrix is not unitary (deviation {err:.2e})")
    if k == 1:
        return _apply_1q(state, mat, qubits)
    n = n_of(state)
    psi = state.reshape([2] * n)
    op = mat.reshape([2] * (2 * k))
    psi = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), list(qubits)))
    psi = np.moveaxis(psi, list(range(k)), list(qubits))
    return np.ascontiguousarray(psi).reshape(-1)


def apply_gate(state: np.ndarray, name: str, *qubits: int) -> np.ndarray:
    mat = GATES[name]
    if len(mat) != 1 << len(qubits):
        raise ValueError(f"{name} is a {len(mat).bit_length() - 1}-qubit gate, given qubits {qubits}")
    if name == "cx":
        out = _apply_cx(state, qubits)
    elif name == "ccz":
        out = _apply_ccz(state, qubits)
    else:
        out = _apply_1q(state, mat, qubits)
    norm = float(np.sqrt(np.vdot(out, out).real))
    if abs(norm - 1.0) >= 1e-12:
        raise ValueError(f"norm drifted to {norm} after {name}")
    return out


def apply_pauli(state: np.ndarray, p: PauliString) -> np.ndarray:
    n = n_of(state)
    if p.n != n:
        raise ValueError(f"operator on {p.n} qubits vs state on {n}")
    out = state
    for q in range(n):
        letter = p.letter(q)
        if letter != "I":
            out = _apply_1q(out, GATES[letter.lower()], (q,))
    return out * p.phase


def _project(state: np.ndarray, q: int, outcome: int, to: int) -> tuple[float, np.ndarray | None]:
    """Project qubit q onto ``outcome``, renormalised, with the kept half
    written to the ``to`` half of a fresh state (``to`` = 0 is a reset).

    The kept half's probability is read on a view first, so an impossible
    outcome returns (0.0, None) without allocating a state."""
    kept = _view(state, (q,))[:, outcome]
    p = float(np.vdot(kept, kept).real)
    if p <= MIN_OUTCOME_PROB:
        return 0.0, None
    out = np.zeros(state.size, dtype=complex)
    np.multiply(kept, 1.0 / np.sqrt(p), out=_view(out, (q,))[:, to])
    return p, out


def collapse(state: np.ndarray, q: int, outcome: int) -> tuple[float, np.ndarray | None]:
    """Project qubit q onto ``outcome`` and renormalize; returns (prob, state),
    or (0.0, None) for an outcome of probability at most ``MIN_OUTCOME_PROB``."""
    return _project(state, q, outcome, outcome)


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    if a.size != b.size:
        raise ValueError("dimension mismatch")
    return float(abs(np.vdot(a, b)) ** 2)


def overlap_through_ancillas(target: np.ndarray, state: np.ndarray, keep: tuple[int, ...]) -> float:
    """<target| Tr_not-keep(|state><state|) |target> computed exactly.

    ``target`` lives on the ``keep`` qubits (in the listed order); the rest of
    the state's qubits are traced out.
    """
    n = n_of(state)
    k = len(keep)
    if target.size != 1 << k:
        raise ValueError("target size does not match keep list")
    psi = state.reshape([2] * n)
    tgt = target.conj().reshape([2] * k)
    amp = np.tensordot(tgt, psi, axes=(list(range(k)), list(keep)))
    return float(np.sum(np.abs(amp) ** 2))


# ---------------------------------------------------------------------------
# branch-enumerating circuit executor
# ---------------------------------------------------------------------------


@dataclass
class Branch:
    prob: float
    bits: dict[int, int]
    state: np.ndarray
    pending: PauliString | None  # composed, unapplied corrections (post mode)

    def corrected_state(self) -> np.ndarray:
        if self.pending is None or self.pending.is_identity():
            return self.state
        return apply_pauli(self.state, self.pending.mod_phase())


def run_branches(
    circuit: Circuit,
    mode: str = "feed_forward",
    insertions: dict[int, list[PauliString]] | None = None,
    initial: np.ndarray | None = None,
) -> list[Branch]:
    """Execute a circuit, splitting on every measurement outcome with
    probability above ``MIN_OUTCOME_PROB``.  ``insertions[k]`` lists Paulis
    applied just before instruction index k (k = len(instructions) means end
    of circuit).  ``initial``, if given, must have 2^n amplitudes for the
    circuit's n qubits.

    In post_process mode, conditional Paulis are composed into a pending frame
    instead of being applied; recorded bits are frame-corrected so classical
    statistics match feed-forward mode exactly.
    """
    if mode not in ("feed_forward", "post_process"):
        raise ValueError(f"unknown mode {mode!r}")
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"dense engine capped at {MAX_QUBITS} qubits, circuit has {n}")
    if initial is None:
        state0 = zero_state(n)
    else:
        state0 = np.array(initial, dtype=complex).reshape(-1)
        if state0.size != 1 << n:
            raise ValueError(
                f"initial state has {state0.size} amplitudes, a {n}-qubit circuit needs {1 << n}"
            )
    insertions = insertions or {}
    post = mode == "post_process"
    ident = PauliString.identity(n)
    branches = [Branch(1.0, {}, state0, ident if post else None)]

    def inject(branches: list[Branch], paulis: list[PauliString]) -> list[Branch]:
        for p in paulis:
            branches = [replace(b, state=apply_pauli(b.state, p.mod_phase())) for b in branches]
        return branches

    for k, ins in enumerate(circuit.instructions):
        if k in insertions:
            branches = inject(branches, insertions[k])
        op = ins.op
        if op in ("input", "barrier"):
            continue
        if op in GATES and op != "cx" and op != "ccz":
            for b in branches:
                b.state = apply_gate(b.state, op, ins.qubits[0])
                if b.pending is not None and not b.pending.is_identity():
                    if op in ("h", "s", "sdg", "x", "y", "z"):
                        b.pending = b.pending.conjugated(op, ins.qubits[0])
                    elif b.pending.letter(ins.qubits[0]) != "I":
                        raise ValueError(
                            f"cannot track a correction frame through non-Clifford {op}"
                        )
            continue
        if op == "cx" or op == "ccz":
            for b in branches:
                b.state = apply_gate(b.state, op, *ins.qubits)
                if b.pending is not None and not b.pending.is_identity():
                    if op == "cx":
                        b.pending = b.pending.conjugated("cx", *ins.qubits)
                    elif any(b.pending.letter(q) != "I" for q in ins.qubits):
                        raise ValueError("cannot track a correction frame through ccz")
            continue
        if op == "measure":
            q = ins.qubits[0]
            new: list[Branch] = []
            for b in branches:
                for outcome in (0, 1):
                    p, st = collapse(b.state, q, outcome)
                    if st is None:
                        continue
                    recorded = outcome
                    if b.pending is not None:
                        recorded ^= b.pending.x_bit(q)
                    bits = dict(b.bits)
                    bits[ins.record] = recorded
                    new.append(Branch(b.prob * p, bits, st, b.pending))
            branches = new
            continue
        if op == "reset":
            q = ins.qubits[0]
            new = []
            for b in branches:
                for outcome in (0, 1):
                    p, st = _project(b.state, q, outcome, 0)
                    if st is None:
                        continue
                    new.append(Branch(b.prob * p, dict(b.bits), st, b.pending))
            branches = new
            continue
        if op == "cpauli":
            for b in branches:
                par = 0
                for r in ins.parity:
                    par ^= b.bits[r]
                if par:
                    corr = PauliString.single(n, ins.qubits[0], ins.pauli)
                    if b.pending is not None:
                        b.pending = b.pending.times_mod_phase(corr)
                    else:
                        b.state = apply_pauli(b.state, corr)
            continue
        raise ValueError(f"unhandled op {op!r}")

    if len(circuit.instructions) in insertions:
        branches = inject(branches, insertions[len(circuit.instructions)])
    return branches


def outcome_distribution(branches: list[Branch]) -> dict[tuple[int, ...], float]:
    """Probability of each classical record tuple, summed over branches."""
    dist: dict[tuple[int, ...], float] = {}
    for b in branches:
        key = tuple(v for _, v in sorted(b.bits.items()))
        dist[key] = dist.get(key, 0.0) + b.prob
    return dist


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a measurement-free circuit (small n only)."""
    n = circuit.n_qubits
    cols = []
    for i in range(1 << n):
        branches = run_branches(circuit, initial=basis_state(n, i))
        if len(branches) != 1:
            raise ValueError("circuit_unitary needs a measurement-free circuit")
        cols.append(branches[0].state)
    return np.array(cols).T


# ---------------------------------------------------------------------------
# exact noise averaging and channel fidelities
# ---------------------------------------------------------------------------

MAX_ENUM_SITES = 20


def enumerate_noise(sites) -> list[tuple[float, dict[int, list[PauliString]]]]:
    """All Bernoulli configurations of noise sites with probabilities.

    Each site needs attributes ``before_index``, ``pauli`` (PauliString) and
    ``omega``.  Sites with omega = 0 are skipped.
    """
    live = [s for s in sites if s.omega > 0.0]
    if len(live) > MAX_ENUM_SITES:
        raise ValueError(f"{len(live)} noise sites exceed the exact-enumeration cap {MAX_ENUM_SITES}")
    configs: list[tuple[float, dict[int, list[PauliString]]]] = []
    for fire in product((0, 1), repeat=len(live)):
        p = 1.0
        ins: dict[int, list[PauliString]] = {}
        for site, f in zip(live, fire):
            p *= site.omega if f else 1.0 - site.omega
            if f:
                ins.setdefault(site.before_index, []).append(site.pauli)
        if p > 0.0:
            configs.append((p, ins))
    return configs


def average_state_fidelity(
    circuit: Circuit,
    target: np.ndarray,
    keep: tuple[int, ...] | None = None,
    sites=(),
    mode: str = "feed_forward",
    initial: np.ndarray | None = None,
) -> float:
    """Exact <target| rho_out |target> with rho_out averaged over measurement
    outcomes and noise configurations; ancillas outside ``keep`` traced out."""
    if keep is None:
        keep = tuple(range(circuit.n_qubits))
    total = 0.0
    for p_cfg, ins in enumerate_noise(sites):
        for b in run_branches(circuit, mode=mode, insertions=ins, initial=initial):
            total += p_cfg * b.prob * overlap_through_ancillas(target, b.corrected_state(), keep)
    return total


def choi_input(n_circ: int, data: tuple[int, ...]) -> np.ndarray:
    """|0...0> on the circuit register extended by |data| reference qubits,
    with each (reference, data) pair maximally entangled."""
    k = len(data)
    if n_circ + k > MAX_QUBITS:
        raise ValueError("Choi construction exceeds the dense-engine cap")
    psi = zero_state(n_circ + k)
    for j, dq in enumerate(data):
        ref = n_circ + j
        psi = apply_gate(psi, "h", ref)
        psi = apply_gate(psi, "cx", ref, dq)
    return psi


def process_fidelity(
    circuit: Circuit,
    ideal: np.ndarray,
    data: tuple[int, ...],
    sites=(),
    mode: str = "feed_forward",
    data_out: tuple[int, ...] | None = None,
) -> float:
    """Exact process fidelity of the circuit (as a channel on ``data``)
    against the ideal unitary ``ideal`` acting on those qubits.

    Both channels are applied to halves of maximally entangled pairs; the
    result is the overlap of the two Choi states, with circuit ancillas traced
    out.  ``data_out`` gives the chain positions where the data ends up if the
    circuit permutes qubits.
    """
    k = len(data)
    d = 1 << k
    if ideal.shape != (d, d):
        raise ValueError("ideal unitary does not match the data-qubit count")
    n_c = circuit.n_qubits
    # reference-extended circuit: same instruction stream, wider register
    wide = Circuit(n_c + k, name=circuit.name + "+ref")
    wide.instructions = list(circuit.instructions)
    wide.n_records = circuit.n_records
    psi0 = choi_input(n_c, data)

    # ideal Choi state on (data..., ref...) only
    tgt = zero_state(2 * k)
    for j in range(k):
        tgt = apply_gate(tgt, "h", k + j)
        tgt = apply_gate(tgt, "cx", k + j, j)
    tgt = apply_unitary(tgt, ideal, tuple(range(k)))

    out_positions = tuple(data if data_out is None else data_out)
    keep = out_positions + tuple(range(n_c, n_c + k))
    total = 0.0
    for p_cfg, ins in enumerate_noise(sites):
        # pad the inserted Paulis onto the reference-extended register
        ins_wide = {
            idx: [PauliString(n_c + k, p.x_bits, p.z_bits) for p in ps]
            for idx, ps in ins.items()
        }
        for b in run_branches(wide, mode=mode, insertions=ins_wide, initial=psi0):
            total += p_cfg * b.prob * overlap_through_ancillas(tgt, b.corrected_state(), keep)
    return total


def cnot_matrix() -> np.ndarray:
    return GATES["cx"].copy()


def ccz_matrix() -> np.ndarray:
    return GATES["ccz"].copy()


def ghz_state(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = _SQ2
    psi[-1] = _SQ2
    return psi
