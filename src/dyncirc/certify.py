"""Monte-Carlo certification of prepared states and teleported gates.

Two estimators built on the stabilizer engine, both direct fidelity
estimation (DFE) of a stabilizer state:

- GHZ state fidelity by uniform stabilizer sampling: F = 2^-n sum_S <S> over
  the full stabilizer group, so averaging measured expectations of uniformly
  drawn group elements is unbiased, with a 1/sqrt(m) error bar.
- CNOT gate fidelity on the circuit's Choi state: two reference qubits are
  Bell-paired with the inputs (:func:`choi_state_source`), and the ideal
  Choi state of CNOT has 16 stabilizers, one per nonzero Pauli-transfer
  tuple.  Averaging uniformly drawn ones gives the process fidelity,
  converted to average gate fidelity at d = 4.

Every sample of an estimate is drawn from one compiled program of the
circuit, through its error map (:class:`CircuitStateSource`).  Sample k
depends only on (seed, k); results do not depend on evaluation order.  Estimates are
returned raw — sampling noise may push them outside [0, 1] and they are
never clipped.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import tableau as tb
from .circuits import Circuit
from .noise import NoiseSite
from .pauli import PauliString
from .stabilizer import pauli_bits

__all__ = [
    "DEFAULT_SHOTS_PER_SAMPLE",
    "ghz_stabilizer_group",
    "cnot_process_support",
    "cnot_choi_stabilizers",
    "estimate_ghz_fidelity",
    "estimate_cnot_gate_fidelity",
    "CircuitStateSource",
    "choi_state_source",
    "pauli_readout_circuit",
]

# Per-sample shot count giving single-operator precision ~0.1 at unit weight.
DEFAULT_SHOTS_PER_SAMPLE = 100


# ---------------------------------------------------------------------------
# GHZ stabilizer group
# ---------------------------------------------------------------------------


_bit_count = np.frompyfunc(int.bit_count, 1, 1)


class GhzStabilizerGroup:
    """The 2^n signed stabilizers of the n-qubit GHZ state, lazily generated.

    Element ``mask`` is the product, in generator order, of the selected
    generators (bit 0: X on every qubit; bit i >= 1: Z on qubits i-1 and
    i), with its exact sign — e.g. for n = 2, mask 0b11 gives XX * ZZ = -YY.
    It has a closed form (:meth:`element_bits`).
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
        mask = int(mask)
        if not 0 <= mask < (1 << self.n):
            raise IndexError(f"mask {mask} out of range for n={self.n}")
        x, z, sign = self.element_bits(np.array([mask], dtype=object))
        return PauliString(self.n, x[0], z[0], int(sign[0]))

    def element_bits(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """X bits and Z bits (object arrays of ints) and signs (int array) of
        the elements for an object array of masks, all at once.  With
        m' = mask >> 1, each generator i >= 1 puts Z on qubits i-1 and i,
        so the Z bits are m' ^ (m' << 1); the X bits are all ones iff bit 0
        is set.  X^n Z^z holds one XZ = -iY per Z, so its sign is
        (-1)^(popcount(z)/2) when the X bits are set, and +1 otherwise."""
        half = masks >> 1
        z = half ^ (half << 1)
        with_x = masks & 1
        odd = (_bit_count(z) >> 1) & 1
        return with_x * ((1 << self.n) - 1), z, 1 - 2 * (with_x & odd).astype(np.int64)

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


# A Bell pair is fixed by P (x) P*, so transfer tuple (P -> value * Q) gives
# value * (-1)^{#Y in P} * (Q (x) P): the reference half carries the
# transpose, which flips the sign once per Y letter
_CNOT_CHOI_STABILIZERS = tuple(
    PauliString.from_text(lk + ll + li + lj).with_sign(rho * (-1) ** (li + lj).count("Y"))
    for li, lj, lk, ll, rho in cnot_process_support()
)


def cnot_choi_stabilizers() -> list[PauliString]:
    """The 16 signed stabilizers of CNOT's Choi state on (out_control,
    out_target, ref_control, ref_target), in :func:`cnot_process_support`
    order.  They are built once, at import; each call returns a new list
    of the shared (immutable) operators."""
    return list(_CNOT_CHOI_STABILIZERS)


# ---------------------------------------------------------------------------
# circuit composition helpers
# ---------------------------------------------------------------------------

def pauli_readout_circuit(circuit: Circuit, basis: dict[int, str]) -> tuple[Circuit, dict[int, int]]:
    """A copy of ``circuit`` with basis-rotated Z measurements appended for
    each qubit in ``basis`` (letter X, Y or Z).  Returns the new circuit and
    {qubit: record index}.  The copy shares the (immutable) instructions."""
    new = Circuit(circuit.n_qubits, name=circuit.name)
    new.instructions = list(circuit.instructions)
    new.n_records = circuit.n_records
    new.data_qubits = circuit.data_qubits
    new.output_map = None if circuit.output_map is None else dict(circuit.output_map)
    new.meta = dict(circuit.meta)
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


def _parities(records: np.ndarray, cols: list[int]) -> np.ndarray:
    if not cols:
        return np.ones(records.shape[0])
    return 1.0 - 2.0 * (records[:, cols].astype(int).sum(axis=1) % 2)


# ---------------------------------------------------------------------------
# shot providers
# ---------------------------------------------------------------------------


# Bounds on one ``run_batch`` call: rows, and bytes of the per-row state it
# holds.  A sweep point's samples are split into calls of whole samples
# within both, so memory stays bounded in m*shots.
_MAX_BATCH_ROWS = 1 << 16
_MAX_BATCH_BYTES = 1 << 24


def _max_rows(row_bytes: int) -> int:
    return max(1, min(_MAX_BATCH_ROWS, _MAX_BATCH_BYTES // row_bytes))


def _draws(circuit: Circuit, noise) -> int:
    """An upper bound on the draws of the compiled circuit: one per noise
    site and per measurement or reset (a random collapse draws a coin)."""
    return len(noise) + sum(ins.op in ("measure", "reset") for ins in circuit.instructions)


def _map_row_bytes(circuit: Circuit, noise, shots: int) -> int:
    """Bytes a row (shot) of a ``read`` call holds, with ``shots`` rows a
    sample.  Per (operator, draw) it holds a byte of the anticommutation
    table and, when that pair is drawn, 64 bytes of its indices, stream
    id, threshold and key and its packed row of the sample's shots; per
    row, the flip as a byte and a boolean and the parity as two floats.
    The hashing itself runs in chunks of ``tableau._DRAW_VALUES`` values,
    and the error map is one replay of one shot per draw, which does not
    grow with the rows."""
    per_sample = _draws(circuit, noise) * (65 + 8 * ((shots + 63) // 64))
    return 18 + -(-per_sample // max(shots, 1))


def _sample_row_bytes(circuit: Circuit, noise) -> int:
    """Bytes a row (shot) of a sampling call holds: a byte per record, and
    one bit per record (the packed diff), per draw (the fired mask) and
    per qubit in each of four frame rows (two replayed, two read out)."""
    c = circuit
    return c.n_records + (c.n_records + _draws(c, noise) + 4 * c.n_qubits + 7) // 8


class CircuitStateSource:
    """Measures Pauli expectation parities on the output state of a circuit.

    ``source.parities(paulis, shots, seeds)`` samples ``shots`` shots of
    each (sign-free) Pauli in ``paulis`` — given on the ``data_qubits``
    register — under its own seed, with the attached noise sites.  All
    samples go through one :func:`tableau.run_batch` call on the circuit
    itself (split into calls of bounded rows and bytes).  A shot ends in
    ``F * ref``, so a Pauli S with expectation e = +-1 on the reference
    state reads ``e * (-1)^<F, S>``; the call reads that flip through the
    compiled program's error map (``run_batch(..., read=...)``,
    :meth:`tableau.Program.read`): F is the product of the end Paulis of
    the noise sites and collapse coins the shot fires, so only the draws
    whose end Pauli anticommutes with S are drawn, and no frame is
    replayed.  A circuit whose corrections are deferred to
    post-processing is read the same way: F then carries each shot's
    correction, as feed-forward would have applied it.  An operator with e = 0
    on the reference has a random outcome per shot; it falls back to a
    readout circuit (:func:`pauli_readout_circuit`) sampled on its own.  The
    shot-for-shot values equal those of that readout circuit.

    ``parities`` and ``n_data`` are the state-source protocol that
    :func:`estimate_ghz_fidelity` and :func:`estimate_cnot_gate_fidelity`
    use.
    """

    def __init__(self, circuit: Circuit, data_qubits=None, noise=()):
        self.circuit = circuit
        self.data = tuple(data_qubits) if data_qubits is not None else tuple(range(circuit.n_qubits))
        self.noise = list(noise)

    @property
    def n_data(self) -> int:
        return len(self.data)

    def parities(self, paulis, shots: int, seeds) -> np.ndarray:
        """(len(paulis), shots) array of +-1 parities; row k measures
        ``paulis[k]`` with randomness drawn from ``seeds[k]`` (a sequence or
        integer array of seeds)."""
        if len(paulis) != len(seeds):
            raise ValueError(f"{len(paulis)} operators but {len(seeds)} seeds")
        for p in paulis:
            if p.n != self.n_data:
                raise ValueError(f"operator on {p.n} qubits, source exposes {self.n_data}")
        c = self.circuit
        # every operator on the circuit register, as qubit columns, once
        x, z = pauli_bits(paulis, c.n_qubits, qubits=self.data)
        out = np.empty((len(paulis), shots))
        e = None
        for rows, cols in _blocks(len(paulis), shots, _max_rows(_map_row_bytes(c, self.noise, shots))):
            seeds_k = seeds[rows]
            res = tb.run_batch(
                c,
                len(seeds_k) * (cols.stop - cols.start),
                master_seed=seeds_k,
                noise=self.noise,
                shot_offset=cols.start,
                read=(x[rows], z[rows]),
            )
            if e is None:  # the reference state is the same in every batch of this circuit
                e = res.reference.bit_expectations(x, z)
            par = e[rows, None] * np.where(res.flips, -1.0, 1.0)
            for k in np.nonzero(e[rows] == 0)[0]:
                par[k] = self._read_out(paulis[rows][k], cols.stop - cols.start, seeds_k[k], cols.start)
            out[rows, cols] = par
        return out

    def _read_out(self, pauli: PauliString, shots: int, seed: int, shot_offset: int) -> np.ndarray:
        """Parities of an operator the reference state does not fix, from its
        own readout circuit."""
        basis = {self.data[q]: pauli.letter(q) for q in pauli.support}
        circ, recs = pauli_readout_circuit(self.circuit, basis)
        cols = [recs[q] for q in sorted(basis)]
        out = np.empty(shots)
        step = _max_rows(_sample_row_bytes(circ, self.noise))
        for lo in range(0, shots, step):
            hi = min(lo + step, shots)
            res = tb.run_batch(circ, hi - lo, master_seed=seed, noise=self.noise, shot_offset=shot_offset + lo)
            out[lo:hi] = _parities(res.records, cols)
        return out


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


def choi_state_source(circuit: Circuit, data_in, data_out=None, noise=()) -> CircuitStateSource:
    """The Choi state of ``circuit`` as a channel on ``data_in``, as a
    :class:`CircuitStateSource`.

    The circuit is widened by one reference qubit per ``data_in`` qubit.
    Before time 0 each reference is Bell-paired with its data qubit (``h``
    on the reference, then ``cx`` reference -> data, as
    :func:`statevector.choi_input` does).  Each noise site moves onto the
    wider register at the same instruction, so the noise streams and the
    shots they draw are those of the circuit itself.  The source exposes
    ``data_out + references``; ``data_out`` defaults to ``data_in`` (pass
    the permuted positions for relabeling constructions).
    """
    data_in = tuple(data_in)
    data_out = data_in if data_out is None else tuple(data_out)
    if len(data_out) != len(data_in):
        raise ValueError("data_in and data_out must have the same length")
    n = circuit.n_qubits
    refs = tuple(range(n, n + len(data_in)))
    wide = Circuit(n + len(refs), name=circuit.name + "+ref")
    for r in refs:
        wide.add("h", r, start=-2.0)
    for r, q in zip(refs, data_in):
        wide.add("cx", r, q, start=-1.0)
    shift = len(wide.instructions)
    wide.instructions.extend(circuit.instructions)
    wide.n_records = circuit.n_records
    wide.meta = dict(circuit.meta)
    width = wide.n_qubits
    sites = [
        NoiseSite(s.before_index + shift, PauliString(width, s.pauli.x_bits, s.pauli.z_bits), s.omega)
        for s in noise
    ]
    return CircuitStateSource(wide, data_out + refs, noise=sites)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _emit(sink, record: dict) -> None:
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
    # sample k's mask: its first ``words`` parameter words, 63 bits each
    shifts = np.array([63 * j for j in range(words)], dtype=object)
    masks = np.bitwise_or.reduce(params[:, :words].astype(object) << shifts, axis=1) & ((1 << n) - 1)
    xs, zs, signs = group.element_bits(masks)
    ops = [PauliString(n, x, z) for x, z in zip(xs, zs)]
    pars = state_source.parities(ops, shots_per_sample, params[:, words])
    vals = signs * pars.mean(axis=1)
    if sink is not None:
        for k in range(m_samples):
            _emit(
                sink,
                {
                    "sample_index": k,
                    "operator": str(ops[k].with_sign(int(signs[k]))),
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
    choi_source,
    m_samples: int,
    shots_per_sample: int = DEFAULT_SHOTS_PER_SAMPLE,
    seed: int = 0,
    sink=None,
) -> tuple[float, float]:
    """Average gate fidelity of a channel against CNOT, by stabilizer DFE on
    its Choi state.

    ``choi_source`` exposes the channel's Choi state on (out_control,
    out_target, ref_control, ref_target) through ``n_data`` (4) and
    ``parities(paulis, shots, seeds)``, as :func:`choi_state_source` builds
    it.  Each sample draws one of the 16 nonzero transfer tuples uniformly,
    reads the matching Choi stabilizer (:func:`cnot_choi_stabilizers`) and
    folds its sign into the mean parity; all m (stabilizer, seed) pairs are
    measured in one ``parities`` call.  The mean estimates process fidelity;
    conversion to gate fidelity uses (d F + 1)/(d + 1) at d = 4.  Raw values
    are never clipped.
    """
    if m_samples < 1:
        raise ValueError(f"need m_samples >= 1, got {m_samples}")
    if shots_per_sample < 1:
        raise ValueError(f"need shots_per_sample >= 1, got {shots_per_sample}")
    if choi_source.n_data != 4:
        raise ValueError(f"Choi source exposes {choi_source.n_data} qubits, need 2 outputs and 2 refs")
    stabs = cnot_choi_stabilizers()
    ops = [stab.mod_phase() for stab in stabs]
    signs = np.array([stab.sign for stab in stabs])
    params = _sample_params(seed, _PROCESS_DOMAIN, m_samples, 2)
    draws = (params[:, 0] % 16).astype(np.intp)
    pars = choi_source.parities([ops[i] for i in draws], shots_per_sample, params[:, 1])
    vals = signs[draws] * pars.mean(axis=1)
    if sink is not None:
        support = cnot_process_support()
        for k, i in enumerate(draws):
            li, lj, lk, ll, rho = support[i]
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
