"""Monte-Carlo certification of prepared states and teleported gates.

Two estimators built on the stabilizer engine:

- GHZ state fidelity by uniform stabilizer sampling: F = 2^-n sum_S <S> over
  the full stabilizer group, so averaging measured expectations of uniformly
  drawn group elements is unbiased, with a 1/sqrt(m) error bar.
- CNOT gate fidelity by Pauli-transfer sampling: only 16 input/output Pauli
  pairs carry nonzero ideal weight; drawing them uniformly, preparing random
  eigenstates of the input pair, and measuring the output pair averages to the
  process fidelity, converted to average gate fidelity at d = 4.

Sample evaluations are independent jobs keyed by (seed, sample_index); results
do not depend on evaluation order.  Estimates are returned raw — sampling
noise may push them outside [0, 1] and they are never clipped.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import tableau as tb
from .circuits import Circuit
from .pauli import PauliString

__all__ = [
    "CHOI_DIMENSION",
    "DEFAULT_SHOTS_PER_SAMPLE",
    "StabilizerSample",
    "ProcessSample",
    "ghz_stabilizer_group",
    "cnot_process_support",
    "estimate_ghz_fidelity",
    "estimate_cnot_gate_fidelity",
    "CircuitStateSource",
    "CircuitChannelSource",
    "eigenstate_prepared_circuit",
    "pauli_readout_circuit",
]

# Choi-state dimension of a two-qubit gate certifier (d^2 with d = 4).
CHOI_DIMENSION = 16

# Per-sample shot count giving single-operator precision ~0.1 at unit weight.
DEFAULT_SHOTS_PER_SAMPLE = 100


@dataclass(frozen=True)
class StabilizerSample:
    """One state-certification draw: a signed group element and its measured
    expectation value."""

    stabilizer: PauliString
    measured_expectation: float
    shots_used: int


@dataclass(frozen=True)
class ProcessSample:
    """One process-certification draw: input/output Pauli letter pairs, the
    ideal transfer value (+-1), and the sign-folded measured value."""

    input_pair: tuple[str, str]
    output_pair: tuple[str, str]
    ideal_value: int
    measured_value: float
    shots_used: int


# ---------------------------------------------------------------------------
# GHZ stabilizer group
# ---------------------------------------------------------------------------


class GhzStabilizerGroup:
    """The 2^n signed stabilizers of the n-qubit GHZ state, lazily generated.

    Element ``mask`` is the product of the selected generators (bit 0: X on
    every qubit; bit i >= 1: Z on qubits i-1 and i), with the sign tracked
    exactly through the group multiplication — e.g. for n = 2, mask 0b11
    gives XX * ZZ = -YY.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        self.n = n

    def __len__(self) -> int:
        return 1 << self.n

    def generator(self, i: int) -> PauliString:
        n = self.n
        if i == 0:
            return PauliString(n, (1 << n) - 1, 0)
        if not 1 <= i < n:
            raise ValueError(f"generator index {i} out of range for n={n}")
        return PauliString(n, 0, 0b11 << (i - 1))

    def __getitem__(self, mask: int) -> PauliString:
        if not 0 <= mask < (1 << self.n):
            raise IndexError(f"mask {mask} out of range for n={self.n}")
        p = PauliString.identity(self.n)
        for i in range(self.n):
            if (mask >> i) & 1:
                p = p * self.generator(i)
        return p

    def __iter__(self):
        return (self[m] for m in range(len(self)))


def ghz_stabilizer_group(n: int) -> GhzStabilizerGroup:
    """Lazy view of the 2^n signed GHZ_n stabilizers, indexable by an n-bit
    generator-selection mask."""
    return GhzStabilizerGroup(n)


# ---------------------------------------------------------------------------
# CNOT Pauli-transfer support
# ---------------------------------------------------------------------------


def cnot_process_support() -> list[tuple[str, str, str, str, int]]:
    """The 16 (in_control, in_target, out_control, out_target, value) tuples
    with nonzero ideal Pauli-transfer weight for CNOT; value is -1 exactly for
    YY -> XZ and XZ -> YY."""
    out = []
    for li in "IXYZ":
        for lj in "IXYZ":
            p = PauliString.from_text(li + lj)
            q = p.conjugated("cx", 0, 1)
            out.append((li, lj, q.letter(0), q.letter(1), q.sign))
    return out


# ---------------------------------------------------------------------------
# circuit composition helpers
# ---------------------------------------------------------------------------

# Gates (applied left to right to |0>) preparing the +-1 eigenstate of a
# single-qubit Pauli letter.
_EIGENSTATE_GATES = {
    ("Z", 1): (),
    ("Z", -1): ("x",),
    ("X", 1): ("h",),
    ("X", -1): ("x", "h"),
    ("Y", 1): ("h", "s"),
    ("Y", -1): ("h", "sdg"),
}


def eigenstate_prepared_circuit(
    circuit: Circuit, prep: dict[int, tuple[str, int]]
) -> tuple[Circuit, int]:
    """A copy of ``circuit`` with each qubit q in ``prep`` initialised to the
    ``sign`` eigenstate of Pauli ``letter`` (prep[q] = (letter, sign)), via
    gates scheduled before time 0.  Returns (circuit, number of instructions
    prepended)."""
    gates: list[tuple[str, int]] = []
    for q in sorted(prep):
        letter, sign = prep[q]
        try:
            seq = _EIGENSTATE_GATES[(letter, sign)]
        except KeyError:
            raise ValueError(f"no eigenstate for letter {letter!r} with sign {sign}") from None
        gates += [(g, q) for g in seq]
    new = Circuit(circuit.n_qubits, name=circuit.name)
    t = -float(len(gates)) - 1.0
    for g, q in gates:
        new.add(g, q, start=t)
        t += 1.0
    new.instructions.extend(circuit.instructions)
    new.n_records = circuit.n_records
    return new, len(gates)


def pauli_readout_circuit(circuit: Circuit, basis: dict[int, str]) -> tuple[Circuit, dict[int, int]]:
    """A copy of ``circuit`` with basis-rotated Z measurements appended for
    each qubit in ``basis`` (letter X, Y or Z).  Returns the new circuit and
    {qubit: record index}."""
    new = copy.deepcopy(circuit)
    t0 = new.makespan
    for q in sorted(basis):
        letter = basis[q]
        if letter == "X":
            new.add("h", q, start=t0)
        elif letter == "Y":
            new.add("sdg", q, start=t0)
            new.add("h", q, start=t0)
        elif letter != "Z":
            raise ValueError(f"cannot read out letter {letter!r}")
    recs = {q: new.measure(q, start=t0 + 1.0) for q in sorted(basis)}
    return new, recs


def _shifted_sites(noise, offset: int):
    if offset == 0:
        return list(noise)
    out = []
    for s in noise:
        shifted = SimpleNamespace(before_index=s.before_index + offset, pauli=s.pauli)
        if hasattr(s, "omega"):
            shifted.omega = s.omega
        else:
            shifted.rate = s.rate
        out.append(shifted)
    return out


def _parities(records: np.ndarray, cols: list[int]) -> np.ndarray:
    if not cols:
        return np.ones(records.shape[0])
    return 1.0 - 2.0 * (records[:, cols].astype(int).sum(axis=1) % 2)


# ---------------------------------------------------------------------------
# shot providers
# ---------------------------------------------------------------------------


# Bounds on one ``run_batch`` call: rows, and bytes of the per-row state it
# holds (records, the record-major diff and up to four packed frame arrays,
# 2 * n_records + 32 * words bytes a row).  A sweep point's samples are split
# into calls of whole samples within both, so memory stays bounded in m*shots.
_MAX_BATCH_ROWS = 1 << 16
_MAX_BATCH_BYTES = 1 << 24


class CircuitStateSource:
    """Measures Pauli expectation parities on the output state of a circuit.

    ``source.parities(paulis, shots, seeds)`` samples ``shots`` shots of
    each (sign-free) Pauli in ``paulis`` — given on the ``data_qubits``
    register — under its own seed, with the attached noise sites.  All
    samples go through one :func:`tableau.run_batch` call on the circuit
    itself (split into calls of bounded rows and bytes), and each
    shot's parity is read from its end frame: the shot ends in ``F * ref``,
    so a Pauli S with expectation e = +-1 on the reference state reads
    ``e * (-1)^<F, S>``.  In post-processing mode the records are corrected
    through the outstanding operator, so F is multiplied by the reference
    correction and the replayed correction delta.  An operator with e = 0
    on the reference has a random outcome per shot; it falls back to a
    readout circuit (:func:`pauli_readout_circuit`) run on its own.  The
    shot-for-shot values equal those of that readout circuit.

    ``parities`` and ``n_data`` are the state-source protocol that
    :func:`estimate_ghz_fidelity` uses; ``source(pauli, shots, seed)`` is
    the one-sample form.
    """

    def __init__(self, circuit: Circuit, data_qubits=None, noise=(), mode: str = "feed_forward"):
        self.circuit = circuit
        self.data = tuple(data_qubits) if data_qubits is not None else tuple(range(circuit.n_qubits))
        self.noise = list(noise)
        self.mode = mode
        # per operator key: (operator on the circuit register, reference expectation)
        self._ops: dict[tuple[int, int], tuple[PauliString, int]] = {}

    @property
    def n_data(self) -> int:
        return len(self.data)

    def __call__(self, pauli: PauliString, shots: int, seed: int) -> np.ndarray:
        return self.parities([pauli], shots, [seed])[0]

    def parities(self, paulis, shots: int, seeds) -> np.ndarray:
        """(len(paulis), shots) array of +-1 parities; row k measures
        ``paulis[k]`` with randomness drawn from ``seeds[k]``."""
        if len(paulis) != len(seeds):
            raise ValueError(f"{len(paulis)} operators but {len(seeds)} seeds")
        for p in paulis:
            if p.n != self.n_data:
                raise ValueError(f"operator on {p.n} qubits, source exposes {self.n_data}")
        words = (self.circuit.n_qubits + 63) // 64
        row_bytes = 2 * self.circuit.n_records + 32 * words
        max_rows = max(1, min(_MAX_BATCH_ROWS, _MAX_BATCH_BYTES // row_bytes))
        out = np.empty((len(paulis), shots))
        for rows, cols in _blocks(len(paulis), shots, max_rows):
            seeds_k = [int(s) for s in seeds[rows]]
            res = tb.run_batch(
                self.circuit,
                len(seeds_k) * (cols.stop - cols.start),
                master_seed=seeds_k,
                noise=self.noise,
                mode=self.mode,
                shot_offset=cols.start,
            )
            out[rows, cols] = self._read(res, paulis[rows], seeds_k, cols)
        return out

    def _on_circuit(self, pauli: PauliString) -> PauliString:
        """``pauli`` moved from the data register onto the circuit's qubits."""
        x = z = 0
        for q in pauli.support:
            x |= pauli.x_bit(q) << self.data[q]
            z |= pauli.z_bit(q) << self.data[q]
        return PauliString(self.circuit.n_qubits, x, z)

    def _read(self, res: tb.BatchResult, paulis, seeds, cols: slice) -> np.ndarray:
        # the reference state is the same in every batch of this circuit
        new = {p.key(): self._on_circuit(p) for p in paulis if p.key() not in self._ops}
        for (key, full), e in zip(new.items(), res.reference.expectations(list(new.values()))):
            self._ops[key] = (full, int(e))
        full, e = zip(*(self._ops[p.key()] for p in paulis))
        e = np.array(e, dtype=float)
        par = e[:, None] * np.where(res.readout_flips(list(full)), -1.0, 1.0)
        for k in np.nonzero(e == 0)[0]:
            par[k] = self._read_out(paulis[k], cols.stop - cols.start, seeds[k], cols.start)
        return par

    def _read_out(self, pauli: PauliString, shots: int, seed: int, shot_offset: int) -> np.ndarray:
        """Parities of an operator the reference state does not fix, from its
        own readout circuit."""
        basis = {self.data[q]: pauli.letter(q) for q in pauli.support}
        circ, recs = pauli_readout_circuit(self.circuit, basis)
        res = tb.run_batch(
            circ, shots, master_seed=seed, noise=self.noise, mode=self.mode, shot_offset=shot_offset
        )
        return _parities(res.records, [recs[q] for q in sorted(basis)])


def _blocks(m: int, shots: int, max_rows: int):
    """(sample slice, shot range) blocks covering an m x shots draw, each at
    most ``max_rows`` rows: whole samples together, or one sample's shots in
    pieces when a single sample is larger than that."""
    if shots <= max_rows:
        step = max_rows // max(shots, 1)
        for lo in range(0, m, step):
            yield slice(lo, min(lo + step, m)), slice(0, shots)
        return
    for k in range(m):
        for lo in range(0, shots, max_rows):
            yield slice(k, k + 1), slice(lo, min(lo + max_rows, shots))


class CircuitChannelSource:
    """Drives a circuit as a channel on its data qubits: prepares product
    eigenstates on ``data_in``, runs the batch with the attached noise, and
    reads out a Pauli on ``data_out`` (defaults to ``data_in``; pass the
    permuted positions for relabeling constructions)."""

    def __init__(self, circuit: Circuit, data_in, data_out=None, noise=(), mode: str = "feed_forward"):
        self.circuit = circuit
        self.data_in = tuple(data_in)
        self.data_out = tuple(data_out) if data_out is not None else self.data_in
        if len(self.data_out) != len(self.data_in):
            raise ValueError("data_in and data_out must have the same length")
        self.noise = list(noise)
        self.mode = mode
        self._cache: dict = {}

    @property
    def n_data(self) -> int:
        return len(self.data_in)

    def __call__(
        self, prep: tuple[tuple[str, int], ...], meas: PauliString, shots: int, seed: int
    ) -> np.ndarray:
        if len(prep) != self.n_data or meas.n != self.n_data:
            raise ValueError(f"source exposes {self.n_data} data qubits")
        key = (prep, meas.key())
        if key not in self._cache:
            prep_map = {self.data_in[i]: spec for i, spec in enumerate(prep)}
            circ, n_prep = eigenstate_prepared_circuit(self.circuit, prep_map)
            sites = _shifted_sites(self.noise, n_prep)
            basis = {self.data_out[q]: meas.letter(q) for q in meas.support}
            circ, recs = pauli_readout_circuit(circ, basis)
            self._cache[key] = (circ, sites, [recs[q] for q in sorted(basis)])
        circ, sites, cols = self._cache[key]
        res = tb.run_batch(circ, shots, master_seed=seed, noise=sites, mode=self.mode)
        return _parities(res.records, cols)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _emit(sink, record: dict) -> None:
    if sink is None:
        return
    if hasattr(sink, "write"):
        sink.write(json.dumps(record) + "\n")
    else:
        sink(record)


_STATE_DOMAIN = 0x6768_7A00
_PROCESS_DOMAIN = 0x636E_6F74


def _sample_params(seed: int, domain: int, m: int, columns: int) -> np.ndarray:
    """Per-sample randomness for ``m`` independent jobs: row k is the k-th
    sample's parameter draw (``columns`` uint64 words), a pure function of
    (seed, k) so evaluation order and worker split never matter."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, domain)))
    return rng.integers(0, 2**63, size=(m, columns), dtype=np.uint64)


def estimate_ghz_fidelity(
    state_source,
    n: int,
    m_samples: int,
    shots_per_sample: int = DEFAULT_SHOTS_PER_SAMPLE,
    seed: int = 0,
    sink=None,
) -> tuple[float, float]:
    """Unbiased GHZ_n fidelity estimate from ``m_samples`` uniformly drawn
    stabilizers, each measured with ``shots_per_sample`` shots.

    ``state_source`` exposes ``n_data`` and ``parities(paulis, shots,
    seeds)``, a (len(paulis), shots) array of +-1 values, as
    :class:`CircuitStateSource` does.  All m (stabilizer, seed) pairs are
    drawn first and measured in that one call; sample k's values depend
    only on (seed, k).

    Returns (estimate, standard error).  The error bar is the across-sample
    standard deviation over sqrt(m) (the widest noise source; for a single
    sample it falls back to the within-sample binomial error).  The estimate
    is reported raw — it may leave [0, 1] by sampling noise and is never
    clipped.
    """
    if m_samples < 1:
        raise ValueError(f"need m_samples >= 1, got {m_samples}")
    if shots_per_sample < 1:
        raise ValueError(f"need shots_per_sample >= 1, got {shots_per_sample}")
    if state_source.n_data != n:
        raise ValueError(f"state source exposes {state_source.n_data} qubits, estimator asked for {n}")
    group = ghz_stabilizer_group(n)
    words = (n + 62) // 63
    params = _sample_params(seed, _STATE_DOMAIN, m_samples, words + 1)
    stabs, seeds = [], []
    for k in range(m_samples):
        mask = 0
        for j in range(words):
            mask |= int(params[k, j]) << (63 * j)
        stabs.append(group[mask & ((1 << n) - 1)])
        seeds.append(int(params[k, words]))
    pars = state_source.parities([stab.mod_phase() for stab in stabs], shots_per_sample, seeds)
    vals = np.empty(m_samples)
    for k, (stab, par) in enumerate(zip(stabs, pars)):
        vals[k] = stab.sign * par.mean()
        _emit(
            sink,
            {
                "sample_index": k,
                "operator": str(stab),
                "ideal_value": 1,
                "measured_value": float(vals[k]),
                "shots": shots_per_sample,
            },
        )
    estimate = float(vals.mean())
    if m_samples > 1:
        std_err = float(vals.std(ddof=1) / math.sqrt(m_samples))
    elif shots_per_sample > 1:
        std_err = float(pars[0].std(ddof=1) / math.sqrt(shots_per_sample))
    else:
        std_err = 0.0
    return estimate, std_err


def estimate_cnot_gate_fidelity(
    channel_source,
    m_samples: int,
    shots_per_sample: int = DEFAULT_SHOTS_PER_SAMPLE,
    seed: int = 0,
    sink=None,
) -> tuple[float, float]:
    """Average gate fidelity of a circuit-as-channel against CNOT.

    Each sample draws one of the 16 nonzero transfer tuples uniformly,
    prepares an independent random product of input-Pauli eigenstates (an
    identity input letter becomes a random computational-basis state whose
    sign is *not* folded), measures the output pair, and folds the ideal
    value and eigenvalue signs in.  The mean estimates process fidelity;
    conversion to gate fidelity uses (d F + 1)/(d + 1) at d = 4.  Raw values
    are never clipped.
    """
    if m_samples < 1:
        raise ValueError(f"need m_samples >= 1, got {m_samples}")
    if shots_per_sample < 1:
        raise ValueError(f"need shots_per_sample >= 1, got {shots_per_sample}")
    if getattr(channel_source, "n_data", 2) != 2:
        raise ValueError("channel source must expose exactly 2 data qubits")
    support = cnot_process_support()
    params = _sample_params(seed, _PROCESS_DOMAIN, m_samples, 2)
    vals = np.empty(m_samples)
    for k in range(m_samples):
        draw = int(params[k, 0])
        li, lj, lk, ll, rho = support[draw % 16]
        folded = float(rho)
        prep = []
        for bit, letter in enumerate((li, lj)):
            sign = 1 - 2 * ((draw >> (4 + bit)) & 1)
            if letter == "I":
                prep.append(("Z", sign))  # basis-state average; sign not folded
            else:
                prep.append((letter, sign))
                folded *= sign
        meas = PauliString.from_text(lk + ll)
        shot_seed = int(params[k, 1])
        par = np.asarray(
            channel_source(tuple(prep), meas, shots_per_sample, shot_seed), dtype=float
        )
        vals[k] = folded * par.mean()
        _emit(
            sink,
            {
                "sample_index": k,
                "operator": {"input": li + lj, "output": lk + ll},
                "ideal_value": rho,
                "measured_value": float(vals[k]),
                "shots": shots_per_sample,
            },
        )
    f_proc = float(vals.mean())
    f_gate = (4.0 * f_proc + 1.0) / 5.0
    if m_samples > 1:
        std_err = float(0.8 * vals.std(ddof=1) / math.sqrt(m_samples))
    else:
        std_err = float("nan")
    return f_gate, std_err
