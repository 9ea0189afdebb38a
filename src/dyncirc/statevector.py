"""Small dense statevector engine: the exact oracle for everything else.

Capacity is capped at 14 qubits.  Basis convention: qubit 0 is the most
significant bit of the amplitude index, matching ``PauliString.to_matrix``.

The circuit executor enumerates measurement branches exactly (no sampling).
It runs all branches at once on a branch stack, one row of amplitudes per
branch over the qubits still in the dense register: a measured or reset
qubit leaves the register as one classical bit per row, so a collapse
halves the rows instead of copying them.  ``run_branches`` returns every
outcome branch with its probability, classical record bits, and final
state; the fidelity functions sum over the stack directly.  Noise is handled
by exact enumeration over Bernoulli insertion configurations
(``enumerate_noise``), which keeps acceptance checks free of statistical
error.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuits import Circuit
from .noise import NoiseSite
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
# kernels on a branch stack: B rows of 2^m amplitudes, one row per branch.  A
# gate or collapse reads the stack through a reshaped view in which each
# touched qubit has its own axis of length 2 and the qubits between them are
# merged (the row axis merges into the first), so it is a few whole-slice
# operations over every branch at once (the amplitude-pair updates of QuEST,
# arXiv:1802.08032).  The one-state functions run them on a one-row stack.
# ---------------------------------------------------------------------------


def _view(stack: np.ndarray, m: int, qubits: tuple[int, ...]) -> np.ndarray:
    """``stack`` as (B*2^a, 2, 2^b, 2, ..., 2^z): axis 2i+1 is the i-th of the
    sorted ``qubits``, the others merge the qubits around them."""
    shape = []
    prev = -1
    for q in sorted(qubits):
        if q <= prev or q >= m:
            raise ValueError(f"qubits {qubits} are not distinct qubits of a {m}-qubit state")
        shape += [1 << (q - prev - 1), 2]
        prev = q
    shape.append(1 << (m - prev - 1))
    shape[0] *= stack.size >> m
    return stack.reshape(shape)


def _slot(qubits: tuple[int, ...], bits: tuple[int, ...]) -> tuple:
    """Index into a :func:`_view` of the block where ``qubits[i]`` has bit ``bits[i]``."""
    order = sorted(qubits)
    idx: list = [slice(None)] * (2 * len(qubits) + 1)
    for q, b in zip(qubits, bits):
        idx[2 * order.index(q) + 1] = b
    return tuple(idx)


def _apply_1q(stack: np.ndarray, m: int, mat: np.ndarray, q: int) -> np.ndarray:
    """Each output half of the qubit is written once from the two input
    halves; matrix entries equal to 0 are skipped."""
    src = _view(stack, m, (q,))
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
    return out.reshape(stack.shape)


def _apply_cx(stack: np.ndarray, m: int, qubits: tuple[int, ...]) -> np.ndarray:
    """One copy, then the control-1 quarters swap their target halves."""
    out = stack.copy()
    src, dst = _view(stack, m, qubits), _view(out, m, qubits)
    a, b = _slot(qubits, (1, 0)), _slot(qubits, (1, 1))
    dst[a] = src[b]
    dst[b] = src[a]
    return out


def _apply_ccz(stack: np.ndarray, m: int, qubits: tuple[int, ...]) -> np.ndarray:
    """One copy, then the sign of the |111> block flips."""
    out = stack.copy()
    _view(out, m, qubits)[_slot(qubits, (1, 1, 1))] *= -1
    return out


def _gate(stack: np.ndarray, m: int, name: str, qubits: tuple[int, ...]) -> np.ndarray:
    """A named gate on every row, each row's norm checked afterwards."""
    mat = GATES[name]
    if len(mat) != 1 << len(qubits):
        raise ValueError(f"{name} is a {len(mat).bit_length() - 1}-qubit gate, given qubits {qubits}")
    if name == "cx":
        out = _apply_cx(stack, m, qubits)
    elif name == "ccz":
        out = _apply_ccz(stack, m, qubits)
    else:
        out = _apply_1q(stack, m, mat, qubits[0])
    f = out.view(np.float64).reshape(len(out), -1)
    norms = np.sqrt(np.einsum("ij,ij->i", f, f))
    dev = np.abs(norms - 1.0)
    if dev.max() >= 1e-12:
        raise ValueError(f"norm drifted to {norms[dev.argmax()]} after {name}")
    return out


def _outcome_probs(stack: np.ndarray, q: int) -> np.ndarray:
    """(B, 2): each row's probability of reading 0 and 1 on qubit q, summed
    on the float view."""
    f = stack.view(np.float64).reshape(len(stack), 1 << q, 2, -1)
    return np.einsum("iajb,iajb->ij", f, f)


def _take(stack: np.ndarray, q: int, rows, outs, probs) -> np.ndarray:
    """Row ``rows[i]`` projected onto ``outs[i]`` on qubit q and renormalised,
    with q dropped: a stack one qubit narrower."""
    kept = stack.reshape(len(stack), 1 << q, 2, -1)[rows, :, outs]
    kept *= (1.0 / np.sqrt(probs))[:, None, None]
    return kept.reshape(len(kept), -1)


def _inflate(stack: np.ndarray, m: int, q: int, bits) -> np.ndarray:
    """A qubit inserted at position q holding ``bits[i]`` in row i: one write
    into a zeroed stack of twice the width."""
    out = np.zeros((len(stack), 1 << q, 2, (1 << m) >> q), dtype=complex)
    out[np.arange(len(stack)), :, bits] = stack.reshape(len(stack), 1 << q, -1)
    return out.reshape(len(stack), -1)


def _overlaps(stack: np.ndarray, m: int, target: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Each row's <target| Tr_not-keep(|row><row|) |target>."""
    k = len(keep)
    if target.size != 1 << k:
        raise ValueError("target size does not match keep list")
    psi = stack.reshape((len(stack),) + (2,) * m)
    tgt = target.conj().reshape([2] * k)
    amp = np.tensordot(psi, tgt, axes=([q + 1 for q in keep], list(range(k))))
    return (np.abs(amp) ** 2).reshape(len(stack), -1).sum(axis=1)


def _row(state: np.ndarray) -> tuple[np.ndarray, int]:
    state = np.ascontiguousarray(state, dtype=complex)
    return state.reshape(1, -1), n_of(state)


def apply_unitary(state: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply a 2^k x 2^k unitary to the given qubits of the state."""
    k = len(qubits)
    if mat.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {mat.shape} does not fit {k} qubits")
    err = np.abs(mat @ mat.conj().T - np.eye(1 << k)).max()
    if err > 1e-10:
        raise ValueError(f"matrix is not unitary (deviation {err:.2e})")
    stack, n = _row(state)
    if k == 1:
        return _apply_1q(stack, n, mat, qubits[0]).reshape(-1)
    psi = stack.reshape([2] * n)
    op = mat.reshape([2] * (2 * k))
    psi = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), list(qubits)))
    psi = np.moveaxis(psi, list(range(k)), list(qubits))
    return np.ascontiguousarray(psi).reshape(-1)


def apply_gate(state: np.ndarray, name: str, *qubits: int) -> np.ndarray:
    stack, n = _row(state)
    return _gate(stack, n, name, qubits).reshape(-1)


def apply_pauli(state: np.ndarray, p: PauliString) -> np.ndarray:
    stack, n = _row(state)
    if p.n != n:
        raise ValueError(f"operator on {p.n} qubits vs state on {n}")
    for q in p.support:
        stack = _apply_1q(stack, n, GATES[p.letter(q).lower()], q)
    return stack.reshape(-1) * p.phase


def collapse(state: np.ndarray, q: int, outcome: int) -> tuple[float, np.ndarray | None]:
    """Project qubit q onto ``outcome`` and renormalize; returns (prob, state),
    or (0.0, None) for an outcome of probability at most ``MIN_OUTCOME_PROB``."""
    if outcome not in (0, 1):
        raise ValueError(f"a measurement outcome is 0 or 1, got {outcome!r}")
    stack, n = _row(state)
    if not 0 <= q < n:
        raise ValueError(f"qubit {q} is not a qubit of a {n}-qubit state")
    p = float(_outcome_probs(stack, q)[0, outcome])
    if p <= MIN_OUTCOME_PROB:
        return 0.0, None
    kept = _take(stack, q, [0], [outcome], np.array([p]))
    return p, _inflate(kept, n - 1, q, [outcome]).reshape(-1)


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    if a.size != b.size:
        raise ValueError("dimension mismatch")
    return float(abs(np.vdot(a, b)) ** 2)


def overlap_through_ancillas(target: np.ndarray, state: np.ndarray, keep: tuple[int, ...]) -> float:
    """<target| Tr_not-keep(|state><state|) |target> computed exactly.

    ``target`` lives on the ``keep`` qubits (in the listed order); the rest of
    the state's qubits are traced out.
    """
    stack, n = _row(state)
    return float(_overlaps(stack, n, target, tuple(keep))[0])


# ---------------------------------------------------------------------------
# branch-enumerating circuit executor
# ---------------------------------------------------------------------------


@dataclass
class Branch:
    prob: float
    bits: dict[int, int]
    state: np.ndarray


class _Stack:
    """Every branch of one circuit run at once.

    ``amps`` holds one row of 2^m amplitudes per branch over the qubits of
    the dense register ``reg`` (sorted, so ``reg[0]`` is the most
    significant bit).  A measured or reset qubit leaves the register: it is
    then in a definite state in every row, held in the row's ``val`` column,
    and a gate on it brings it back.  Row i also has its probability
    ``prob[i]`` and its record bits ``rec[i]``.
    """

    def __init__(self, n: int, n_records: int, state0: np.ndarray):
        self.n = n
        self.reg = list(range(n))
        self.amps = state0.reshape(1, -1)
        self.prob = np.ones(1)
        self.val = np.zeros((1, n), dtype=np.uint8)
        self.rec = np.zeros((1, n_records), dtype=np.uint8)
        self.written: dict[int, None] = {}  # records written so far, in order

    def enter(self, qubits) -> list[int]:
        """Bring the qubits into the register; returns their positions."""
        reg = self.reg
        for q in qubits:
            if q not in reg:
                i = bisect_left(reg, q)
                self.amps = _inflate(self.amps, len(reg), i, self.val[:, q])
                reg.insert(i, q)
        return tuple(reg.index(q) for q in qubits)

    def gate(self, name: str, qubits: tuple[int, ...]) -> None:
        pos = self.enter(qubits)
        self.amps = _gate(self.amps, len(self.reg), name, pos)

    def pauli(self, q: int, letter: str, rows=slice(None)) -> None:
        """The letter on qubit q of the given rows.  Outside the register it
        flips the qubit's bit by its X part and multiplies each row by the
        matching entry of the letter's matrix: no pass over the state."""
        mat = GATES[letter.lower()]
        if q in self.reg:
            i, m = self.reg.index(q), len(self.reg)
            self.amps[rows] = _apply_1q(self.amps[rows], m, mat, i)
            return
        old = self.val[rows, q]
        new = old ^ (letter != "Z")
        factor = mat[new, old]
        if (factor != 1).any():
            self.amps[rows] *= factor[:, None]
        self.val[rows, q] = new

    def collapse(self, q: int, record: int | None) -> None:
        """Measure qubit q into ``record``, or reset it when ``record`` is None.
        A register qubit splits each row into its outcomes above
        ``MIN_OUTCOME_PROB``, branch-major, and leaves the register."""
        if q in self.reg:
            i = self.reg.index(q)
            probs = _outcome_probs(self.amps, i)
            rows, outs = np.nonzero(probs > MIN_OUTCOME_PROB)
            p = probs[rows, outs]
            self.amps = _take(self.amps, i, rows, outs, p)
            self.prob = self.prob[rows] * p
            self.val, self.rec = self.val[rows], self.rec[rows]
            self.val[:, q] = outs
            del self.reg[i]
        if record is None:
            self.val[:, q] = 0
            return
        self.rec[:, record] = self.val[:, q]
        self.written[record] = None

    def cpauli(self, q: int, letter: str, parity: tuple[int, ...]) -> None:
        letter = letter.upper()
        for r in parity:
            if r not in self.written:
                raise ValueError(f"cpauli reads record {r} before it is written")
        fire = np.flatnonzero(np.bitwise_xor.reduce(self.rec[:, list(parity)], axis=1))
        if fire.size:
            self.pauli(q, letter, fire)

    def inject(self, paulis: list[PauliString]) -> None:
        for p in paulis:
            if p.n != self.n:
                raise ValueError(f"operator on {p.n} qubits vs state on {self.n}")
            for q in p.support:
                self.pauli(q, p.letter(q))

    def fidelity(self, target: np.ndarray, keep: tuple[int, ...]) -> float:
        """sum_i prob_i <target| Tr_not-keep(row i) |target>.  Traced-out
        qubits outside the register are product factors and are never
        brought back."""
        pos = self.enter(keep)
        return float(self.prob @ _overlaps(self.amps, len(self.reg), target, pos))


def _execute(
    circuit: Circuit,
    insertions: dict[int, list[PauliString]] | None,
    initial: np.ndarray | None,
) -> _Stack:
    """Run the circuit on a branch stack: the one executor behind
    :func:`run_branches` and the fidelity functions."""
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
        norm = float(np.sqrt(np.vdot(state0, state0).real))
        if abs(norm - 1.0) >= 1e-12:
            raise ValueError(f"initial state has norm {norm}, not 1")
    insertions = insertions or {}
    st = _Stack(n, circuit.n_records, state0)
    for k, ins in enumerate(circuit.instructions):
        if k in insertions:
            st.inject(insertions[k])
        op = ins.op
        if op in ("input", "barrier"):
            continue
        if op in GATES:
            st.gate(op, ins.qubits)
        elif op == "measure":
            st.collapse(ins.qubits[0], ins.record)
        elif op == "reset":
            st.collapse(ins.qubits[0], None)
        elif op == "cpauli":
            st.cpauli(ins.qubits[0], ins.pauli, ins.parity)
        else:
            raise ValueError(f"unhandled op {op!r}")
    if len(circuit.instructions) in insertions:
        st.inject(insertions[len(circuit.instructions)])
    return st


def run_branches(
    circuit: Circuit,
    insertions: dict[int, list[PauliString]] | None = None,
    initial: np.ndarray | None = None,
) -> list[Branch]:
    """Execute a circuit, splitting on every measurement outcome with
    probability above ``MIN_OUTCOME_PROB``.  ``insertions[k]`` lists Paulis
    applied just before instruction index k (k = len(instructions) means end
    of circuit).  ``initial``, if given, must be a normalised state with 2^n
    amplitudes for the circuit's n qubits.

    A ``cpauli`` applies as soon as it runs, also in a circuit whose
    builder deferred its corrections to post-processing: the deferral
    changes only the schedule, since a Pauli correction carried through
    the Clifford gates after it, and dropped at a reset, gives what
    applying it on time gives.
    """
    st = _execute(circuit, insertions, initial)
    st.enter(range(circuit.n_qubits))
    cols = list(st.written)
    bits = st.rec[:, cols].tolist()
    return [Branch(p, dict(zip(cols, b)), row) for p, b, row in zip(st.prob.tolist(), bits, st.amps)]


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
    initial: np.ndarray | None = None,
) -> float:
    """Exact <target| rho_out |target> with rho_out averaged over measurement
    outcomes and noise configurations; ancillas outside ``keep`` traced out."""
    if keep is None:
        keep = tuple(range(circuit.n_qubits))
    return _noise_average(circuit, target, tuple(keep), sites, initial)


def _noise_average(circuit: Circuit, target: np.ndarray, keep: tuple[int, ...], sites, initial) -> float:
    """The fidelity with ``target`` on ``keep`` of each noise configuration
    of ``sites`` (:func:`enumerate_noise`), run from ``initial``, weighted
    by its probability and summed."""
    total = 0.0
    for p_cfg, ins in enumerate_noise(sites):
        total += p_cfg * _execute(circuit, ins, initial).fidelity(target, keep)
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
    wide.meta = dict(circuit.meta)
    psi0 = choi_input(n_c, data)

    # ideal Choi state on (data..., ref...) only
    tgt = zero_state(2 * k)
    for j in range(k):
        tgt = apply_gate(tgt, "h", k + j)
        tgt = apply_gate(tgt, "cx", k + j, j)
    tgt = apply_unitary(tgt, ideal, tuple(range(k)))

    out_positions = tuple(data if data_out is None else data_out)
    keep = out_positions + tuple(range(n_c, n_c + k))
    # the noise sites, padded onto the reference-extended register
    wide_sites = [
        NoiseSite(s.before_index, PauliString(n_c + k, s.pauli.x_bits, s.pauli.z_bits), s.omega) for s in sites
    ]
    return _noise_average(wide, tgt, keep, wide_sites, psi0)


def cnot_matrix() -> np.ndarray:
    return GATES["cx"].copy()


def ccz_matrix() -> np.ndarray:
    return GATES["ccz"].copy()


def ghz_state(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = _SQ2
    psi[-1] = _SQ2
    return psi
