"""Bit-packed stabilizer engine for dynamic Clifford circuits.

Two execution styles share one tableau core:

* :class:`StabilizerState` — a destabilizer/stabilizer tableau with the gate
  set {H, S, S†, X, Y, Z, CNOT}, mid-circuit measurement (deterministic and
  random outcomes), reset, a classical bit store, and parity-conditioned
  Pauli corrections.  Generator rows are packed 64 qubits per machine word so
  a column update touches every row at once.

* :func:`run_shots` — a two-pass sampler for many shots of one circuit: a
  single reference execution (random outcomes pinned to 0, with a flip
  operator captured at every random collapse) followed by a vectorised
  Pauli-frame pass that replays all shots against that reference.  Per-shot
  cost is O(instructions) word operations, independent of the tableau.

Randomness is counter-based: every random event in the compiled program owns
a stream id, and the value drawn for (stream, shot) is a hash of the pair.
Shot ``i`` therefore sees identical randomness no matter how a batch is
sharded across workers or runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .circuits import Circuit
from .pauli import PauliString

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U1 = np.uint64(1)
_U0 = np.uint64(0)

# Collapse coins and noise draws use disjoint stream-id ranges so that a
# noiseless run and a noisy run with the same seed share their collapse
# randomness; a shot's noisy/noiseless difference is then purely the
# propagated injected errors.
_NOISE_STREAM_BASE = 1 << 32

_ONE_QUBIT_CLIFFORDS = ("h", "s", "sdg", "x", "y", "z")

# Most (operators x rows x words) words one expectation chunk holds
_EXPECTATION_WORDS = 1 << 18


# ---------------------------------------------------------------------------
# counter-based randomness
# ---------------------------------------------------------------------------


def _mix_int(x: int) -> int:
    """SplitMix64 finalizer on a plain Python integer."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _mix_u64(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class CounterRandom:
    """Stateless uniform numbers addressed by (stream id, shot id).

    The draw for a given address never depends on how many draws came before
    it, which is what makes sharded runs reproduce a single-process run
    bit for bit.  ``master_seed`` is one seed or a sequence of m seeds; with
    m seeds, :meth:`uniform` draws row k of its (m, r) result under seed k.
    """

    def __init__(self, master_seed):
        if isinstance(master_seed, (int, np.integer)):
            self._key = _seed_key(master_seed)
            self._keys = None
        else:
            keys = [_seed_key(s) for s in master_seed]
            self._keys = np.array(keys, dtype=np.uint64).reshape(-1, 1)

    @property
    def n_seeds(self) -> int:
        return 1 if self._keys is None else self._keys.shape[0]

    def uniform(self, stream_id: int, shot_ids: np.ndarray) -> np.ndarray:
        """Floats in [0, 1), one per entry of ``shot_ids`` (uint64 array),
        or an (m, len(shot_ids)) array under m seeds."""
        c = _mix_int((stream_id + 1) * _GOLDEN)
        if self._keys is None:
            h = np.uint64(_mix_int(self._key ^ c))
        else:
            h = _mix_u64(self._keys ^ np.uint64(c))
        x = (shot_ids + _U1) * np.uint64(_GOLDEN) + h
        return (_mix_u64(x) >> np.uint64(11)) * 2.0**-53


def _seed_key(master_seed: int) -> int:
    k = np.random.SeedSequence(master_seed).generate_state(2, dtype=np.uint64)
    return int(k[0]) ^ _mix_int(int(k[1]))


def _pack_bits(bits: int, n_words: int) -> np.ndarray:
    return np.array([(bits >> (64 * w)) & _MASK64 for w in range(n_words)], dtype=np.uint64)


def _unpack_bits(words: np.ndarray) -> int:
    out = 0
    for w, v in enumerate(words):
        out |= int(v) << (64 * w)
    return out


_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _bit_counts(words: np.ndarray) -> np.ndarray:
    """Set bits of a (m, rows, words) uint64 array, summed per m."""
    return _BYTE_BITS[words.view(np.uint8)].sum(axis=(1, 2), dtype=np.int64)


def _odd_parity(words: np.ndarray) -> np.ndarray:
    """Whether each uint64 word has an odd number of set bits."""
    v = words.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(shift)
    return (v & _U1).astype(bool)


# ---------------------------------------------------------------------------
# tableau
# ---------------------------------------------------------------------------


class StabilizerState:
    """Destabilizer/stabilizer tableau over ``n`` qubits, initially |0...0>.

    Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers; row i of one set
    anticommutes exactly with row i of the other.  ``classical_bits`` stores
    measurement records by index.  With ``post_process=True`` the state also
    carries ``pending``, a correction operator accumulated by
    :meth:`conditional_pauli` instead of being applied to the tableau;
    recorded bits are corrected through its X component so classical
    statistics match feed-forward execution exactly.
    """

    __slots__ = ("n", "_w", "_X", "_Z", "_r", "classical_bits", "pending")

    def __init__(self, n: int, post_process: bool = False):
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        self.n = n
        self._w = (n + 63) // 64
        self._X = np.zeros((2 * n, self._w), dtype=np.uint64)
        self._Z = np.zeros((2 * n, self._w), dtype=np.uint64)
        self._r = np.zeros(2 * n, dtype=np.uint8)
        for i in range(n):
            w, b = divmod(i, 64)
            self._X[i, w] = _U1 << np.uint64(b)
            self._Z[n + i, w] = _U1 << np.uint64(b)
        self.classical_bits: dict[int, int] = {}
        self.pending: PauliString | None = PauliString.identity(n) if post_process else None

    # -- bookkeeping helpers ---------------------------------------------

    def _wm(self, q: int) -> tuple[int, np.uint64]:
        if not 0 <= q < self.n:
            raise ValueError(f"qubit {q} out of range for n={self.n}")
        w, b = divmod(q, 64)
        return w, _U1 << np.uint64(b)

    def copy(self) -> "StabilizerState":
        new = StabilizerState.__new__(StabilizerState)
        new.n = self.n
        new._w = self._w
        new._X = self._X.copy()
        new._Z = self._Z.copy()
        new._r = self._r.copy()
        new.classical_bits = dict(self.classical_bits)
        new.pending = self.pending
        return new

    def row(self, i: int) -> PauliString:
        """Generator row ``i`` (0..2n-1) as a signed operator."""
        x = _unpack_bits(self._X[i])
        z = _unpack_bits(self._Z[i])
        return PauliString(self.n, x, z, -1 if self._r[i] else 1)

    @property
    def tableau(self) -> list[PauliString]:
        return [self.row(i) for i in range(2 * self.n)]

    def destabilizers(self) -> list[PauliString]:
        return [self.row(i) for i in range(self.n)]

    def stabilizers(self) -> list[PauliString]:
        return [self.row(self.n + i) for i in range(self.n)]

    # -- gates -------------------------------------------------------------

    def apply_clifford(self, gate: str, *qubits: int) -> None:
        X, Z, r = self._X, self._Z, self._r
        if gate == "cx":
            c, t = qubits
            if c == t:
                raise ValueError("cx needs two distinct qubits")
            wc, mc = self._wm(c)
            wt, mt = self._wm(t)
            xc = (X[:, wc] & mc) != 0
            zc = (Z[:, wc] & mc) != 0
            xt = (X[:, wt] & mt) != 0
            zt = (Z[:, wt] & mt) != 0
            r ^= xc & zt & ~(xt ^ zc)
            X[:, wt] ^= np.where(xc, mt, _U0)
            Z[:, wc] ^= np.where(zt, mc, _U0)
        elif gate in _ONE_QUBIT_CLIFFORDS:
            (q,) = qubits
            w, m = self._wm(q)
            if gate == "h":
                r ^= (X[:, w] & Z[:, w] & m) != 0
                d = (X[:, w] ^ Z[:, w]) & m
                X[:, w] ^= d
                Z[:, w] ^= d
            elif gate == "s":
                r ^= (X[:, w] & Z[:, w] & m) != 0
                Z[:, w] ^= X[:, w] & m
            elif gate == "sdg":
                r ^= (X[:, w] & ~Z[:, w] & m) != 0
                Z[:, w] ^= X[:, w] & m
            elif gate == "x":
                r ^= (Z[:, w] & m) != 0
            elif gate == "z":
                r ^= (X[:, w] & m) != 0
            else:  # y
                r ^= ((X[:, w] ^ Z[:, w]) & m) != 0
        else:
            raise ValueError(f"not a supported Clifford gate: {gate!r}")
        if self.pending is not None and not self.pending.is_identity():
            self.pending = self.pending.conjugated(gate, *qubits)

    def apply_pauli(self, p: PauliString) -> None:
        """Multiply the state by ``p`` (global phase dropped): each generator
        row flips sign iff it anticommutes with ``p``."""
        if p.n != self.n:
            raise ValueError(f"operator on {p.n} qubits, state on {self.n}")
        px = _pack_bits(p.x_bits, self._w)
        pz = _pack_bits(p.z_bits, self._w)
        anti = (
            np.bitwise_count(self._X & pz).sum(axis=1)
            + np.bitwise_count(self._Z & px).sum(axis=1)
        ) & 1
        self._r ^= anti.astype(np.uint8)

    # -- row products --------------------------------------------------------

    def _rows_times_row(self, targets: np.ndarray, src: int) -> None:
        """Row product ``row[t] <- row[src] * row[t]`` for each target, with
        exact sign tracking via the cyclic-letter popcount rule."""
        xs, zs = self._X[src].copy(), self._Z[src].copy()
        Xt, Zt = self._X[targets], self._Z[targets]
        ax, ay, az = xs & ~zs, xs & zs, zs & ~xs
        bx, by, bz = Xt & ~Zt, Xt & Zt, Zt & ~Xt
        plus = (ax & by) | (ay & bz) | (az & bx)
        minus = (ay & bx) | (az & by) | (ax & bz)
        e = (
            np.bitwise_count(plus).sum(axis=1).astype(np.int64)
            - np.bitwise_count(minus).sum(axis=1).astype(np.int64)
            + 2 * self._r[targets].astype(np.int64)
            + 2 * int(self._r[src])
        ) % 4
        if (e & 1).any():
            raise AssertionError("row product produced an imaginary phase")
        self._r[targets] = (e // 2).astype(np.uint8)
        self._X[targets] = Xt ^ xs
        self._Z[targets] = Zt ^ zs

    def _stabilizer_products(
        self, rows: np.ndarray, take: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each line k of ``take`` (m x len(rows) booleans), the product in
        row order of the stabilizers ``n + rows[j]`` with ``take[k, j]``: packed
        x and z bits (m x words) and the phase exponent of i (mod 4).  Step j
        multiplies the running product by row j, so all steps are taken at
        once from the prefix products; a row not taken is the identity,
        which changes neither the running product nor its phase."""
        n = self.n
        xr = np.where(take[:, :, None], self._X[n + rows], _U0)
        zr = np.where(take[:, :, None], self._Z[n + rows], _U0)
        # step j >= 1: (product of rows before j) * row j
        xs = np.bitwise_xor.accumulate(xr, axis=1)[:, :-1]
        zs = np.bitwise_xor.accumulate(zr, axis=1)[:, :-1]
        xb, zb = xr[:, 1:], zr[:, 1:]
        ax, ay, az = xs & ~zs, xs & zs, zs & ~xs
        bx, by, bz = xb & ~zb, xb & zb, zb & ~xb
        plus = (ax & by) | (ay & bz) | (az & bx)
        minus = (ay & bx) | (az & by) | (ax & bz)
        e = (
            _bit_counts(plus)
            - _bit_counts(minus)
            + 2 * (take & (self._r[n + rows] != 0)).sum(axis=1)
        ) % 4
        return np.bitwise_xor.reduce(xr, axis=1), np.bitwise_xor.reduce(zr, axis=1), e

    # -- measurement -----------------------------------------------------------

    def outcome_is_random(self, q: int) -> bool:
        w, m = self._wm(q)
        return bool(((self._X[self.n :, w] & m) != 0).any())

    def measure_flip(
        self,
        q: int,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, bool, PauliString | None]:
        """Measure Z on qubit ``q``; return (raw outcome, was_random, flip).

        ``flip`` (random outcomes only) is an operator that toggles the
        outcome when applied just before the measurement: the stabilizer row
        that anticommuted with Z_q, i.e. a group element mapping the
        outcome-0 post-measurement branch onto the outcome-1 branch.
        ``forced`` pins a random outcome (deterministic ones ignore it).
        """
        n = self.n
        w, m = self._wm(q)
        xcol = (self._X[:, w] & m) != 0
        stab_hits = np.nonzero(xcol[n:])[0]
        if stab_hits.size:
            p = n + int(stab_hits[0])
            flip = self.row(p).mod_phase()
            others = np.nonzero(xcol)[0]
            # row p-n is replaced wholesale below, so it is excluded here;
            # multiplying it would also be ill-defined (it anticommutes with
            # row p, giving an imaginary product)
            others = others[(others != p) & (others != p - n)]
            if others.size:
                self._rows_times_row(others, p)
            self._X[p - n] = self._X[p]
            self._Z[p - n] = self._Z[p]
            self._r[p - n] = self._r[p]
            if forced is None:
                if rng is None:
                    rng = np.random.default_rng()
                outcome = int(rng.integers(2))
            else:
                outcome = int(forced) & 1
            self._X[p] = _U0
            self._Z[p] = _U0
            self._Z[p, w] = m
            self._r[p] = outcome
            return outcome, True, flip
        rows = np.nonzero(xcol[:n])[0]
        xs, zs, e = self._stabilizer_products(rows, np.ones((1, rows.size), dtype=bool))
        if xs.any():
            raise AssertionError("deterministic-outcome product is not Z-type")
        if _unpack_bits(zs[0]) != (1 << q):
            raise AssertionError("deterministic-outcome product is not Z_q")
        if e[0] not in (0, 2):
            raise AssertionError("deterministic outcome has imaginary phase")
        return int(e[0]) // 2, False, None

    def measure(
        self,
        qubit: int,
        record_index: int | None = None,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> int:
        """Measure Z; store the (frame-corrected) bit under ``record_index``."""
        outcome, _, _ = self.measure_flip(qubit, rng=rng, forced=forced)
        recorded = outcome
        if self.pending is not None:
            recorded ^= self.pending.x_bit(qubit)
        if record_index is not None:
            self.classical_bits[record_index] = recorded
        return recorded

    def reset(
        self,
        q: int,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, bool, PauliString | None]:
        """Measure-then-flip so the state is stabilized by +Z on ``q``."""
        outcome, was_random, flip = self.measure_flip(q, rng=rng, forced=forced)
        if outcome:
            self.apply_clifford("x", q)
        return outcome, was_random, flip

    def conditional_pauli(self, target: int, pauli: str, parity_of: Iterable[int]) -> None:
        """Apply a single-qubit Pauli iff the XOR of the referenced records is
        1.  In post-processing mode the operator is folded into ``pending``
        instead of touching the tableau."""
        par = 0
        for idx in parity_of:
            try:
                par ^= self.classical_bits[idx]
            except KeyError:
                raise ValueError(f"record {idx} referenced before being written") from None
        if not par:
            return
        p = PauliString.single(self.n, target, pauli)
        if self.pending is not None:
            self.pending = self.pending.times_mod_phase(p)
        else:
            self.apply_pauli(p)

    def inject_pauli_noise(self, channel, rng: np.random.Generator) -> bool:
        """Apply ``channel.pauli`` with the channel's error weight; returns
        whether it fired.  Accepts anything exposing ``pauli`` plus either a
        precomputed ``omega`` or a rate ``rate`` (weight (1-e^{-2 rate})/2)."""
        om = getattr(channel, "omega", None)
        if om is None:
            rate = channel.rate
            if rate < 0:
                raise ValueError(f"negative noise rate {rate}")
            om = 0.5 * (1.0 - math.exp(-2.0 * rate))
        if not 0.0 <= om <= 1.0:
            raise ValueError(f"error weight {om} outside [0, 1]")
        if rng.random() < om:
            self.apply_pauli(channel.pauli)
            return True
        return False

    def apply_pending(self) -> None:
        """Materialize the post-processing correction onto the tableau."""
        if self.pending is not None and not self.pending.is_identity():
            self.apply_pauli(self.pending.mod_phase())
            self.pending = PauliString.identity(self.n)

    # -- read-out ---------------------------------------------------------------

    def expectation(self, p: PauliString) -> int:
        """Exact <P> for a signed Pauli: 0 when any stabilizer anticommutes
        with it, otherwise +/-1 read off the matching stabilizer product."""
        return int(self.expectations([p])[0])

    def expectations(self, paulis: list[PauliString]) -> np.ndarray:
        """:meth:`expectation` of each operator, as an int array.  Operators
        are taken together, in chunks of bounded (operators x rows x words)
        size."""
        n, W = self.n, self._w
        for p in paulis:
            if p.n != n:
                raise ValueError(f"operator on {p.n} qubits, state on {n}")
        out = np.empty(len(paulis), dtype=np.int64)
        step = max(1, _EXPECTATION_WORDS // (2 * n * W))
        for lo in range(0, len(paulis), step):
            out[lo : lo + step] = self._expectations(paulis[lo : lo + step])
        return out

    def _expectations(self, paulis: list[PauliString]) -> np.ndarray:
        n, W, m = self.n, self._w, len(paulis)
        signs = np.array([p.sign for p in paulis], dtype=np.int64)  # raises on imaginary phase
        px = np.array([_pack_bits(p.x_bits, W) for p in paulis]).reshape(m, 1, W)
        pz = np.array([_pack_bits(p.z_bits, W) for p in paulis]).reshape(m, 1, W)
        anti = _odd_parity(np.bitwise_xor.reduce((self._X & pz) ^ (self._Z & px), axis=2))
        fixed = ~anti[:, n:].any(axis=1)
        # the stabilizers whose destabilizer anticommutes with the operator
        rows = np.nonzero(anti[:, :n].any(axis=0))[0]
        xs, zs, e = self._stabilizer_products(rows, anti[:, rows])
        generated = (xs == px[:, 0]).all(axis=1) & (zs == pz[:, 0]).all(axis=1)
        if (fixed & ~generated).any():
            raise AssertionError("commuting operator not generated by the stabilizers")
        if (fixed & (e % 2 == 1)).any():
            raise AssertionError("stabilizer product has imaginary phase")
        return np.where(fixed, np.where(e == 0, signs, -signs), 0)

    def canonical_stabilizers(self) -> list[PauliString]:
        """Unique generator set under Gaussian elimination (X-part pivots
        first, then Z-part); two states are equal iff these lists match."""
        n, W = self.n, self._w
        xs = self._X[n:].copy()
        zs = self._Z[n:].copy()
        es = (2 * self._r[n:].astype(np.int64)) % 4

        def mult(dst: int, src: int) -> None:
            ax, ay, az = xs[src] & ~zs[src], xs[src] & zs[src], zs[src] & ~xs[src]
            bx, by, bz = xs[dst] & ~zs[dst], xs[dst] & zs[dst], zs[dst] & ~xs[dst]
            plus = (ax & by) | (ay & bz) | (az & bx)
            minus = (ay & bx) | (az & by) | (ax & bz)
            es[dst] = (
                es[dst]
                + es[src]
                + int(np.bitwise_count(plus).sum())
                - int(np.bitwise_count(minus).sum())
            ) % 4
            xs[dst] ^= xs[src]
            zs[dst] ^= zs[src]

        def swap(i: int, j: int) -> None:
            if i != j:
                xs[[i, j]] = xs[[j, i]]
                zs[[i, j]] = zs[[j, i]]
                es[[i, j]] = es[[j, i]]

        k = 0
        for q in range(n):
            w, b = divmod(q, 64)
            m = _U1 << np.uint64(b)
            hits = [i for i in range(k, n) if xs[i, w] & m]
            if hits:
                swap(k, hits[0])
                for i in range(n):
                    if i != k and xs[i, w] & m:
                        mult(i, k)
                k += 1
        for q in range(n):
            w, b = divmod(q, 64)
            m = _U1 << np.uint64(b)
            hits = [i for i in range(k, n) if zs[i, w] & m]
            if hits:
                swap(k, hits[0])
                for i in range(n):
                    if i != k and zs[i, w] & m:
                        mult(i, k)
                k += 1
        out = []
        for i in range(n):
            if (es[i] & 1) or es[i] not in (0, 2):
                raise AssertionError("canonical stabilizer with imaginary phase")
            out.append(
                PauliString(self.n, _unpack_bits(xs[i]), _unpack_bits(zs[i]), 1 if es[i] == 0 else -1)
            )
        return out

    def state_equal(self, other: "StabilizerState") -> bool:
        if self.n != other.n:
            return False
        mine = [p.key() + (p.sign,) for p in self.canonical_stabilizers()]
        theirs = [p.key() + (p.sign,) for p in other.canonical_stabilizers()]
        return mine == theirs

    def check_invariants(self) -> None:
        """Symplectic pairing: destabilizer i anticommutes with stabilizer i
        and commutes with everything else; rows pairwise commute otherwise.
        Full rank follows from the nondegenerate pairing."""
        n = self.n
        gram = (
            np.bitwise_count(self._X[:, None, :] & self._Z[None, :, :]).sum(axis=2)
            + np.bitwise_count(self._Z[:, None, :] & self._X[None, :, :]).sum(axis=2)
        ) & 1
        want = np.zeros((2 * n, 2 * n), dtype=gram.dtype)
        for i in range(n):
            want[i, n + i] = 1
            want[n + i, i] = 1
        if not np.array_equal(gram, want):
            raise AssertionError("tableau lost its symplectic pairing")


# ---------------------------------------------------------------------------
# direct (single-shot) execution
# ---------------------------------------------------------------------------


def _sites_by_index(circuit: Circuit, noise) -> dict[int, list]:
    by_index: dict[int, list] = {}
    n_ins = len(circuit.instructions)
    for s in noise or ():
        k = s.before_index
        if not 0 <= k <= n_ins:
            raise ValueError(f"noise site index {k} outside 0..{n_ins}")
        if s.pauli.n != circuit.n_qubits:
            raise ValueError("noise operator size does not match the circuit")
        by_index.setdefault(k, []).append(s)
    return by_index


def execute(
    circuit: Circuit,
    rng: np.random.Generator | int | None = None,
    mode: str = "feed_forward",
    noise=None,
) -> StabilizerState:
    """One shot, straight on the tableau; returns the final state with its
    classical record.  Slower than :func:`run_shots` but has no compiled
    program between the circuit and the tableau, which makes it a useful
    cross-check."""
    if mode not in ("feed_forward", "post_process"):
        raise ValueError(f"unknown mode {mode!r}")
    circuit.validate()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    st = StabilizerState(circuit.n_qubits, post_process=(mode == "post_process"))
    by_index = _sites_by_index(circuit, noise)
    for k, ins in enumerate(circuit.instructions):
        for s in by_index.get(k, ()):
            st.inject_pauli_noise(s, rng)
        op = ins.op
        if op in ("input", "barrier"):
            continue
        if op == "cx" or op in _ONE_QUBIT_CLIFFORDS:
            st.apply_clifford(op, *ins.qubits)
        elif op == "measure":
            st.measure(ins.qubits[0], record_index=ins.record, rng=rng)
        elif op == "reset":
            st.reset(ins.qubits[0], rng=rng)
        elif op == "cpauli":
            st.conditional_pauli(ins.qubits[0], ins.pauli, ins.parity)
        else:
            raise ValueError(f"op {op!r} is not stabilizer-simulable")
    for s in by_index.get(len(circuit.instructions), ()):
        st.inject_pauli_noise(s, rng)
    return st


def enumerate_outcomes(circuit: Circuit, mode: str = "feed_forward") -> dict[tuple[int, ...], float]:
    """Exact distribution over the classical record, by branching on every
    random collapse (probability 1/2 each); deterministic collapses do not
    branch.  Keys are bit tuples ordered by record index."""
    if mode not in ("feed_forward", "post_process"):
        raise ValueError(f"unknown mode {mode!r}")
    circuit.validate()
    branches: list[tuple[float, StabilizerState]] = [
        (1.0, StabilizerState(circuit.n_qubits, post_process=(mode == "post_process")))
    ]
    for ins in circuit.instructions:
        op = ins.op
        if op in ("input", "barrier"):
            continue
        if op == "cx" or op in _ONE_QUBIT_CLIFFORDS:
            for _, st in branches:
                st.apply_clifford(op, *ins.qubits)
        elif op in ("measure", "reset"):
            q = ins.qubits[0]
            new: list[tuple[float, StabilizerState]] = []
            for pr, st in branches:
                if st.outcome_is_random(q):
                    forks = [(0.5 * pr, st.copy(), 0), (0.5 * pr, st, 1)]
                else:
                    forks = [(pr, st, None)]
                for pr2, st2, forced in forks:
                    if op == "measure":
                        st2.measure(q, record_index=ins.record, forced=forced)
                    else:
                        st2.reset(q, forced=forced)
                    new.append((pr2, st2))
            branches = new
        elif op == "cpauli":
            for _, st in branches:
                st.conditional_pauli(ins.qubits[0], ins.pauli, ins.parity)
        else:
            raise ValueError(f"op {op!r} is not stabilizer-simulable")
    dist: dict[tuple[int, ...], float] = {}
    for pr, st in branches:
        key = tuple(st.classical_bits[i] for i in sorted(st.classical_bits))
        dist[key] = dist.get(key, 0.0) + pr
    return dist


# ---------------------------------------------------------------------------
# batched shot sampling (reference pass + Pauli-frame replay)
# ---------------------------------------------------------------------------


class InjectedError(NamedTuple):
    time: float
    pauli: PauliString
    before_index: int


@dataclass
class ShotResult:
    """One shot's classical record, its frame (:attr:`BatchResult.frames`),
    and the noise operators that actually fired."""

    classical_bits: list[int]
    pauli_frame: PauliString
    sampled_errors: list[InjectedError]

    def to_json(self) -> str:
        return json.dumps(
            {
                "bits": self.classical_bits,
                "frame": str(self.pauli_frame),
                "errors": [
                    {"time": e.time, "pauli": str(e.pauli), "before_index": e.before_index}
                    for e in self.sampled_errors
                ],
            },
            sort_keys=True,
        )


@dataclass
class BatchResult:
    """Vectorised shot batch: ``records[s, r]`` is record r of shot s.

    ``reference`` is the reference execution's end state (random outcomes
    pinned to 0; in post-processing mode its ``pending`` is the reference
    correction).  Shot s ends in ``frame_s * reference``, with the physical
    frame packed 64 qubits per word in ``frame_x[s]``/``frame_z[s]``.  In
    post-processing mode ``delta_x``/``delta_z`` hold the replayed change to
    the outstanding correction, which for shot s is ``reference.pending``
    times that delta.  :attr:`frames` unpacks these into per-shot operators
    only when read.
    """

    records: np.ndarray
    errors: list[list[InjectedError]]
    mode: str
    reference: StabilizerState
    frame_x: np.ndarray
    frame_z: np.ndarray
    delta_x: np.ndarray | None = None
    delta_z: np.ndarray | None = None

    @property
    def shots(self) -> int:
        return self.records.shape[0]

    @cached_property
    def frames(self) -> list[PauliString]:
        """Per shot: the outstanding correction operator (post-processing
        mode) or the physical end-of-circuit frame (feed-forward mode)."""
        n = self.reference.n
        if self.mode == "post_process":
            bx, bz = self.reference.pending.x_bits, self.reference.pending.z_bits
            return [
                PauliString(n, bx ^ _unpack_bits(dx), bz ^ _unpack_bits(dz))
                for dx, dz in zip(self.delta_x, self.delta_z)
            ]
        return [
            PauliString(n, _unpack_bits(fx), _unpack_bits(fz))
            for fx, fz in zip(self.frame_x, self.frame_z)
        ]

    def readout_flips(self, paulis: list[PauliString]) -> np.ndarray:
        """(m, shots/m) booleans for m operators on the circuit register,
        operator k read on its own block of shots/m consecutive rows: True
        where a noiseless readout of the operator on that shot records the
        opposite of its value on the reference state.  That is where it
        anticommutes with the shot's frame, times the outstanding correction
        in post-processing mode (records are corrected through it)."""
        m = len(paulis)
        W = self.frame_x.shape[1]
        fx = self.frame_x.reshape(m, self.shots // m, W)
        fz = self.frame_z.reshape(m, self.shots // m, W)
        if self.mode == "post_process":
            pending = self.reference.pending
            fx = fx ^ self.delta_x.reshape(fx.shape) ^ _pack_bits(pending.x_bits, W)
            fz = fz ^ self.delta_z.reshape(fz.shape) ^ _pack_bits(pending.z_bits, W)
        sx = np.array([_pack_bits(p.x_bits, W) for p in paulis]).reshape(m, 1, W)
        sz = np.array([_pack_bits(p.z_bits, W) for p in paulis]).reshape(m, 1, W)
        return _odd_parity(np.bitwise_xor.reduce((fx & sz) ^ (fz & sx), axis=2))

    def shot_results(self) -> list[ShotResult]:
        frames = self.frames
        return [
            ShotResult(
                classical_bits=self.records[i].tolist(),
                pauli_frame=frames[i],
                sampled_errors=self.errors[i],
            )
            for i in range(self.shots)
        ]


def _compile_reference(circuit: Circuit, noise, mode: str):
    """Run the circuit once with random outcomes pinned to 0, emitting the
    frame-replay program and the reference record."""
    st = StabilizerState(circuit.n_qubits, post_process=(mode == "post_process"))
    by_index = _sites_by_index(circuit, noise)
    W = st._w
    prog: list[tuple] = []
    n_ins = len(circuit.instructions)
    coin_streams = 0
    noise_streams = 0

    def emit_noise(k: int) -> None:
        nonlocal noise_streams
        for s in by_index.get(k, ()):
            om = float(s.omega)
            if not 0.0 <= om <= 1.0:
                raise ValueError(f"error weight {om} outside [0, 1]")
            t = circuit.instructions[k].start if k < n_ins else circuit.makespan
            prog.append(
                (
                    "noise",
                    _pack_bits(s.pauli.x_bits, W),
                    _pack_bits(s.pauli.z_bits, W),
                    om,
                    _NOISE_STREAM_BASE + noise_streams,
                    InjectedError(t, s.pauli.mod_phase(), k),
                )
            )
            noise_streams += 1

    for k, ins in enumerate(circuit.instructions):
        emit_noise(k)
        op = ins.op
        if op in ("input", "barrier"):
            continue
        if op == "cx":
            st.apply_clifford("cx", *ins.qubits)
            prog.append(("cx", *ins.qubits))
        elif op in _ONE_QUBIT_CLIFFORDS:
            st.apply_clifford(op, ins.qubits[0])
            if op in ("h", "s", "sdg"):  # x/y/z commute with frames mod phase
                prog.append((op, ins.qubits[0]))
        elif op in ("measure", "reset"):
            q = ins.qubits[0]
            outcome, was_random, flip = st.measure_flip(q, forced=0)
            if was_random:
                prog.append(
                    ("flip", _pack_bits(flip.x_bits, W), _pack_bits(flip.z_bits, W), coin_streams)
                )
                coin_streams += 1
            if op == "measure":
                recorded = outcome
                if st.pending is not None:
                    recorded ^= st.pending.x_bit(q)
                st.classical_bits[ins.record] = recorded
                prog.append(("meas", q, ins.record, recorded))
            else:
                if outcome:
                    st.apply_clifford("x", q)
                prog.append(("reset", q))
        elif op == "cpauli":
            st.conditional_pauli(ins.qubits[0], ins.pauli, ins.parity)
            p = PauliString.single(circuit.n_qubits, ins.qubits[0], ins.pauli)
            prog.append(
                ("cpauli", _pack_bits(p.x_bits, W), _pack_bits(p.z_bits, W), tuple(ins.parity))
            )
        else:
            raise ValueError(f"op {op!r} is not stabilizer-simulable")
    emit_noise(n_ins)

    ref_bits = np.zeros(circuit.n_records, dtype=np.uint8)
    for idx, bit in st.classical_bits.items():
        ref_bits[idx] = bit
    return prog, ref_bits, st


def run_batch(
    circuit: Circuit,
    shots: int,
    master_seed=0,
    noise=None,
    mode: str = "feed_forward",
    shot_offset: int = 0,
) -> BatchResult:
    """Sample ``shots`` executions; shot i's randomness depends only on
    (master_seed, shot_offset + i), so splitting a batch across workers
    reproduces the single-batch output exactly.

    ``master_seed`` may also be a sequence of m seeds, with ``shots`` a
    multiple of m: rows k*shots/m .. (k+1)*shots/m - 1 are then shots
    ``shot_offset + 0 .. shots/m - 1`` under seed k, identical to the rows
    of a call with ``master_seed=seeds[k]`` and ``shots/m`` shots.  All m
    samples share one validation and one reference pass.
    """
    if mode not in ("feed_forward", "post_process"):
        raise ValueError(f"unknown mode {mode!r}")
    if shots < 0:
        raise ValueError(f"negative shot count {shots}")
    stream = CounterRandom(master_seed)
    if stream.n_seeds == 0 or shots % stream.n_seeds:
        raise ValueError(f"{shots} shots do not split evenly over {stream.n_seeds} seeds")
    per_seed = shots // stream.n_seeds
    circuit.validate()
    prog, ref_bits, ref_state = _compile_reference(circuit, noise, mode)
    W = (circuit.n_qubits + 63) // 64
    post = mode == "post_process"
    ids = np.arange(per_seed, dtype=np.uint64) + np.uint64(shot_offset)

    FX = np.zeros((shots, W), dtype=np.uint64)
    FZ = np.zeros((shots, W), dtype=np.uint64)
    DX = np.zeros((shots, W), dtype=np.uint64) if post else None
    DZ = np.zeros((shots, W), dtype=np.uint64) if post else None
    frames = [(FX, FZ)] + ([(DX, DZ)] if post else [])

    records = np.tile(ref_bits, (shots, 1)) if circuit.n_records else np.zeros(
        (shots, 0), dtype=np.uint8
    )
    # record-major, so that a cpauli parity XOR-reduces whole rows
    diff = np.zeros((circuit.n_records, shots), dtype=np.uint8)
    errors: list[list[InjectedError]] = [[] for _ in range(shots)]

    for entry in prog:
        tag = entry[0]
        if tag == "cx":
            _, c, t = entry
            wc, bc = divmod(c, 64)
            wt, bt = divmod(t, 64)
            for A, B in frames:
                xc = (A[:, wc] >> np.uint64(bc)) & _U1
                A[:, wt] ^= xc << np.uint64(bt)
                zt = (B[:, wt] >> np.uint64(bt)) & _U1
                B[:, wc] ^= zt << np.uint64(bc)
        elif tag == "h":
            w, b = divmod(entry[1], 64)
            m = _U1 << np.uint64(b)
            for A, B in frames:
                d = (A[:, w] ^ B[:, w]) & m
                A[:, w] ^= d
                B[:, w] ^= d
        elif tag in ("s", "sdg"):
            w, b = divmod(entry[1], 64)
            m = _U1 << np.uint64(b)
            for A, B in frames:
                B[:, w] ^= A[:, w] & m
        elif tag == "meas":
            _, q, rec, refbit = entry
            w, b = divmod(q, 64)
            d = ((FX[:, w] >> np.uint64(b)) & _U1).astype(np.uint8)
            if post:
                d ^= ((DX[:, w] >> np.uint64(b)) & _U1).astype(np.uint8)
            diff[rec] = d
            records[:, rec] = refbit ^ d
        elif tag == "reset":
            w, b = divmod(entry[1], 64)
            m = _U1 << np.uint64(b)
            FX[:, w] &= ~m
            FZ[:, w] &= ~m
        elif tag == "flip":
            _, lx, lz, sid = entry
            hit = stream.uniform(sid, ids).reshape(shots) < 0.5
            FX ^= np.where(hit[:, None], lx[None, :], _U0)
            FZ ^= np.where(hit[:, None], lz[None, :], _U0)
        elif tag == "noise":
            _, px, pz, om, sid, err = entry
            hit = stream.uniform(sid, ids).reshape(shots) < om
            FX ^= np.where(hit[:, None], px[None, :], _U0)
            FZ ^= np.where(hit[:, None], pz[None, :], _U0)
            for i in np.nonzero(hit)[0]:
                errors[int(i)].append(err)
        elif tag == "cpauli":
            _, px, pz, recs = entry
            dpar = np.bitwise_xor.reduce(diff[list(recs)], axis=0).astype(bool)
            TX, TZ = frames[-1]  # the pending-difference frame in post mode
            TX ^= np.where(dpar[:, None], px[None, :], _U0)
            TZ ^= np.where(dpar[:, None], pz[None, :], _U0)
        else:  # pragma: no cover - compiler and replayer agree on tags
            raise AssertionError(f"unknown program entry {tag!r}")

    return BatchResult(
        records=records,
        errors=errors,
        mode=mode,
        reference=ref_state,
        frame_x=FX,
        frame_z=FZ,
        delta_x=DX,
        delta_z=DZ,
    )


def run_shots(
    circuit: Circuit,
    shots: int,
    master_seed: int = 0,
    noise=None,
    mode: str = "feed_forward",
    shot_offset: int = 0,
) -> list[ShotResult]:
    """Batched sampling of a dynamic Clifford circuit under Pauli noise.

    ``noise`` is a sequence of sites, each with a ``before_index`` into the
    instruction list, a ``pauli`` operator, and a firing weight ``omega``.
    Results are deterministic in (master_seed, shot_offset + i) per shot.
    """
    return run_batch(
        circuit,
        shots,
        master_seed,
        noise=noise,
        mode=mode,
        shot_offset=shot_offset,
    ).shot_results()
