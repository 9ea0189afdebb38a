"""Bit-packed stabilizer engine for dynamic Clifford circuits.

Two execution styles share one tableau core:

* :class:`StabilizerState` — a destabilizer/stabilizer tableau with the gate
  set {H, S, S†, X, Y, Z, CNOT}, mid-circuit measurement (deterministic and
  random outcomes), reset, a classical bit store, and parity-conditioned
  Pauli corrections.  Generator rows are packed 64 qubits per machine word so
  a column update touches every row at once.

* :func:`run_batch` — a two-pass sampler for many shots of one circuit: a
  single reference execution (random outcomes pinned to 0, with a flip
  operator captured at every random collapse) followed by a Pauli-frame
  replay of all shots against that reference.  Frames are stored
  qubit-major with 64 shots per word (the frame-simulator layout of Gidney,
  Quantum 5, 497 (2021)): a gate is a word operation on one or two frame
  rows, and a noise site or collapse XORs its packed fired row into the
  rows on its support, so replay cost is O(instructions x shots / 64)
  words, independent of the tableau.

Randomness is counter-based: every random event in the compiled program owns
a stream id, and the value drawn for (stream, shot) is a hash of the pair.
Shot ``i`` therefore sees identical randomness no matter how a batch is
sharded across workers or runs.
"""

from __future__ import annotations

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


def _mix_u64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 (arithmetic wraps)."""
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
    The keys of all seeds are derived together (:func:`_seed_keys`).
    """

    def __init__(self, master_seed):
        if isinstance(master_seed, (int, np.integer)):
            self._key = _seed_keys([master_seed])[0]
            self._keys = None
        else:
            self._keys = _seed_keys(master_seed).reshape(-1, 1)

    @property
    def n_seeds(self) -> int:
        return 1 if self._keys is None else self._keys.shape[0]

    def uniform(self, stream_id, shot_ids: np.ndarray) -> np.ndarray:
        """Floats in [0, 1), one per entry of ``shot_ids`` (uint64 array),
        or an (m, len(shot_ids)) array under m seeds.  ``stream_id`` may
        also be a 1-D array of k stream ids, which adds a leading axis of
        length k: one row of draws per stream."""
        sids = np.asarray(stream_id, dtype=np.uint64)
        c = _mix_u64((sids.reshape(-1, 1) + _U1) * np.uint64(_GOLDEN))
        if self._keys is None:
            h = _mix_u64(self._key ^ c)
        else:
            h = _mix_u64(self._keys ^ c[:, None])
        x = (shot_ids + _U1) * np.uint64(_GOLDEN) + h
        u = (_mix_u64(x) >> np.uint64(11)) * 2.0**-53
        return u.reshape(sids.shape + u.shape[1:])


# numpy's SeedSequence hash (pool of four 32-bit words; O'Neill's seed_seq
# mixer): the constants of its pool hash, its pool mixer and its output hash
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a hash multiplier, ``init * mult^k``
    mod 2^32, as a column."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32).reshape(-1, 1)


_SHIFT16 = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` for len(consts) - 1 successive calls, one
    per row of the result: call j uses multipliers j and j + 1."""
    v = v ^ consts[:-1]
    v *= consts[1:]
    v ^= v >> _SHIFT16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = _MIX_L * x
    v -= _MIX_R * y
    v ^= v >> _SHIFT16
    return v


# the multipliers of the output hash of two 64-bit words
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 5)


def _seed_words(seeds) -> np.ndarray:
    """The entropy words SeedSequence reads from each non-negative integer
    seed, 32 bits each, least significant first: an (m, L) uint32 array,
    zero-padded to L >= 4 words (a pool word with no entropy hashes a 0)."""
    arr = seeds if isinstance(seeds, np.ndarray) else np.array(seeds, dtype=object)
    if arr.ndim != 1:
        raise TypeError("seeds must be integers")
    if arr.dtype == object:
        if not all(isinstance(s, (int, np.integer)) for s in arr):
            raise TypeError(f"seeds must be integers, got {seeds!r}")
        if arr.size and min(arr) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(arr)}")
        if arr.size and max(arr) > _MASK64:
            width = 4 * max(4, (int(max(arr)).bit_length() + 31) // 32)
            raw = b"".join(int(s).to_bytes(width, "little") for s in arr)
            return np.frombuffer(raw, dtype="<u4").astype(np.uint32).reshape(arr.size, -1)
    elif arr.dtype.kind == "i":
        if (arr < 0).any():
            raise ValueError(f"seeds must be non-negative, got {arr.min()}")
    elif arr.dtype.kind != "u":
        raise TypeError(f"seeds must be integers, got dtype {arr.dtype}")
    u = arr.astype(np.uint64)
    words = np.zeros((u.size, 4), dtype=np.uint32)
    words[:, 0] = u & np.uint64(_MASK32)
    words[:, 1] = u >> np.uint64(32)
    return words


def _seed_keys(seeds) -> np.ndarray:
    """The 64-bit stream key of each seed, for all m seeds in one pass:
    ``k0 ^ mix(k1)`` where (k0, k1) is
    ``np.random.SeedSequence(seed).generate_state(2, np.uint64)``.  The
    SeedSequence pool hash runs on (4, m) word arrays, with a seed's
    words past the fourth mixed in only on the rows of seeds that wide.
    Raises TypeError for a non-integer seed and ValueError for a negative
    one, as SeedSequence does."""
    words = _seed_words(seeds)
    width = words.shape[1]
    consts = _hash_consts(_INIT_A, _MULT_A, 17 + 4 * (width - 4))
    pool = _hashmix(words[:, :4].T, consts[:5])
    k = 4
    # every pool word mixed into every other, in SeedSequence's order
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + 4]))
        k += 3
    if width > 4:
        live = words != 0
        n_words = np.where(live.any(axis=1), width - np.argmax(live[:, ::-1], axis=1), 1)
        for src in range(4, width):
            mixed = _mix(pool, _hashmix(words[:, src], consts[k : k + 5]))
            pool = np.where(n_words > src, mixed, pool)
            k += 4
    state = _hashmix(pool, _STATE_CONSTS).astype(np.uint64)
    k0 = state[0] | state[1] << np.uint64(32)
    k1 = state[2] | state[3] << np.uint64(32)
    return k0 ^ _mix_u64(k1)


def pauli_words(paulis, n_qubits: int, qubits=None) -> tuple[np.ndarray, np.ndarray]:
    """The X and Z bits of each operator (signs dropped) as (m, W) uint64
    arrays for a register of ``n_qubits`` qubits, 64 qubits a word: the
    layout of a tableau row.  With ``qubits``, qubit j of each operator
    lands on register qubit ``qubits[j]``."""
    width = len(qubits) if qubits is not None else n_qubits
    n_bytes = 8 * _n_words(width)

    def words(bits) -> np.ndarray:
        raw = b"".join(b.to_bytes(n_bytes, "little") for b in bits)
        packed = np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(-1, n_bytes // 8)
        if qubits is None:
            return packed
        placed = np.zeros((packed.shape[0], n_qubits), dtype=np.uint8)
        placed[:, list(qubits)] = _unpack_rows(packed, width)
        return _pack_rows(placed)

    return words(p.x_bits for p in paulis), words(p.z_bits for p in paulis)


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
        (px,), (pz,) = pauli_words([p], self.n)
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
        """:meth:`expectation` of each operator, as an int array."""
        for p in paulis:
            if p.n != self.n:
                raise ValueError(f"operator on {p.n} qubits, state on {self.n}")
        signs = np.array([p.sign for p in paulis], dtype=np.int64)  # raises on imaginary phase
        return signs * self.word_expectations(*pauli_words(paulis, self.n))

    def word_expectations(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Expectations of m sign-free operators given as (m, W) packed X
        and Z words (:func:`pauli_words`), as an int array of 0 and +-1.
        Operators are taken together, in chunks of bounded (operators x
        rows x words) size."""
        out = np.empty(x.shape[0], dtype=np.int64)
        step = max(1, _EXPECTATION_WORDS // (2 * self.n * self._w))
        for lo in range(0, x.shape[0], step):
            out[lo : lo + step] = self._expectations(x[lo : lo + step], z[lo : lo + step])
        return out

    def _expectations(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        n = self.n
        px, pz = x[:, None, :], z[:, None, :]
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
        return np.where(fixed, np.where(e == 0, 1, -1), 0)

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
    classical record.  Slower than :func:`run_batch` but has no compiled
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

# Most uniform values one draw chunk holds: the draws of a batch are taken
# in chunks of whole streams, so their temporaries stay small
_DRAW_VALUES = 1 << 14
# Shots transposed at a time when a shot-major view is derived (a multiple
# of 64, so that every block starts on a word)
_VIEW_SHOTS = 1 << 12


def _n_words(bits: int) -> int:
    return (bits + 63) // 64


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """(rows, k) booleans as (rows, ceil(k/64)) words: bit j of a row lands
    in bit j % 64 of word j // 64."""
    rows, k = bits.shape
    out = np.zeros((rows, 8 * _n_words(k)), dtype=np.uint8)
    out[:, : (k + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8").astype(np.uint64, copy=False)


def _unpack_rows(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of each row of :func:`_pack_rows` words, as uint8."""
    le = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(le, axis=1, count=count, bitorder="little")


def _support(bits: int, dtype):
    """The set bits of a non-negative integer as a frame-row index: None
    for none, an int for one (a cheap scalar index; most noise sites), and
    otherwise an ascending array of ``dtype``."""
    if not bits & (bits - 1):
        return bits.bit_length() - 1 if bits else None
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).astype(dtype)


def _shot_major(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Shots ``lo``..``hi``-1 (``lo`` a multiple of 64) of qubit-major frame
    rows (n, words) as (hi - lo, ceil(n/64)) words, 64 qubits a word."""
    return _pack_rows(_unpack_rows(rows[:, lo // 64 : _n_words(hi)], hi - lo).T)


def _shot_major_all(rows: np.ndarray, shots: int) -> np.ndarray:
    out = np.empty((shots, _n_words(rows.shape[0])), dtype=np.uint64)
    for lo in range(0, shots, _VIEW_SHOTS):
        hi = min(shots, lo + _VIEW_SHOTS)
        out[lo:hi] = _shot_major(rows, lo, hi)
    return out


class InjectedError(NamedTuple):
    time: float
    pauli: PauliString
    before_index: int


@dataclass
class BatchResult:
    """Vectorised shot batch: ``records[s, r]`` is record r of shot s.

    ``reference`` is the reference execution's end state (random outcomes
    pinned to 0; in post-processing mode its ``pending`` is the reference
    correction).  Shot s ends in ``frame_s * reference``.  Frames are
    stored qubit-major with 64 shots a word: bit s % 64 of word s // 64 in
    row q of ``fx``/``fz`` is the X/Z part of shot s's frame on qubit q.  In
    post-processing mode ``dx``/``dz`` hold, in the same layout, the
    replayed change to the outstanding correction, which for shot s is
    ``reference.pending`` times that delta.  Row j of ``fired`` marks, in
    the same layout, the shots on which noise site ``sites[j]`` fired.

    The shot-major views (:attr:`frame_x`, :attr:`frame_z`,
    :attr:`delta_x`, :attr:`delta_z`, :attr:`frames`, :attr:`errors`) are
    derived only when read.
    """

    records: np.ndarray
    mode: str
    reference: StabilizerState
    fx: np.ndarray
    fz: np.ndarray
    fired: np.ndarray
    sites: list[InjectedError]
    dx: np.ndarray | None = None
    dz: np.ndarray | None = None

    @property
    def shots(self) -> int:
        return self.records.shape[0]

    @property
    def frame_x(self) -> np.ndarray:
        """Row s: shot s's physical X frame, packed 64 qubits a word."""
        return _shot_major_all(self.fx, self.shots)

    @property
    def frame_z(self) -> np.ndarray:
        return _shot_major_all(self.fz, self.shots)

    @property
    def delta_x(self) -> np.ndarray | None:
        """Row s: shot s's X correction delta (post-processing mode only)."""
        return None if self.dx is None else _shot_major_all(self.dx, self.shots)

    @property
    def delta_z(self) -> np.ndarray | None:
        return None if self.dz is None else _shot_major_all(self.dz, self.shots)

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

    @cached_property
    def errors(self) -> list[list[InjectedError]]:
        """Per shot, the noise operators that fired on it, in program order."""
        out: list[list[InjectedError]] = [[] for _ in range(self.shots)]
        for j, s in zip(*np.nonzero(_unpack_rows(self.fired, self.shots))):
            out[s].append(self.sites[j])
        return out

    def readout_flips(self, sx: np.ndarray, sz: np.ndarray) -> np.ndarray:
        """(m, shots/m) booleans for m operators on the circuit register,
        given as (m, W) packed X and Z words (:func:`pauli_words`), operator
        k read on its own block of shots/m consecutive rows: True where a
        noiseless readout of the operator on that shot records the opposite
        of its value on the reference state.  That is where it anticommutes
        with the shot's frame, times the outstanding correction in
        post-processing mode (records are corrected through it)."""
        m = sx.shape[0]
        fx, fz = self.fx, self.fz
        if self.mode == "post_process":
            fx, fz = fx ^ self.dx, fz ^ self.dz
        op = np.arange(self.shots) // (self.shots // m)
        out = np.empty(self.shots, dtype=bool)
        for lo in range(0, self.shots, _VIEW_SHOTS):
            hi = min(self.shots, lo + _VIEW_SHOTS)
            k = op[lo:hi]
            anti = (_shot_major(fx, lo, hi) & sz[k]) ^ (_shot_major(fz, lo, hi) & sx[k])
            out[lo:hi] = _odd_parity(np.bitwise_xor.reduce(anti, axis=1))
        out = out.reshape(m, self.shots // m)
        if self.mode == "post_process":
            (px,), (pz,) = pauli_words([self.reference.pending], self.reference.n)
            out ^= _odd_parity(np.bitwise_xor.reduce((sx & pz) ^ (sz & px), axis=1))[:, None]
        return out


def _compile_reference(circuit: Circuit, noise, mode: str):
    """Run the circuit once with random outcomes pinned to 0, emitting the
    frame-replay program, its draws, its noise sites and the reference
    record.

    A draw is a (stream id, weight) pair: it fires on the shots whose
    uniform on that stream is below the weight.  A program entry
    ``("pauli", xq, zq, j)`` XORs the fired row of draw j into the X frame
    rows ``xq`` and the Z frame rows ``zq`` (each a :func:`_support`); it is
    a noise site, or the flip operator of a random collapse (weight 1/2)."""
    st = StabilizerState(circuit.n_qubits, post_process=(mode == "post_process"))
    by_index = _sites_by_index(circuit, noise)
    qdt = np.min_scalar_type(circuit.n_qubits)  # supports are held as qubit indices
    prog: list[tuple] = []
    draws: list[tuple[int, float]] = []
    sites: list[InjectedError] = []
    n_ins = len(circuit.instructions)
    coin_streams = 0

    def emit_pauli(p: PauliString, stream_id: int, weight: float) -> None:
        prog.append(("pauli", _support(p.x_bits, qdt), _support(p.z_bits, qdt), len(draws)))
        draws.append((stream_id, weight))

    def emit_noise(k: int) -> None:
        for s in by_index.get(k, ()):
            om = float(s.omega)
            if not 0.0 <= om <= 1.0:
                raise ValueError(f"error weight {om} outside [0, 1]")
            t = circuit.instructions[k].start if k < n_ins else circuit.makespan
            emit_pauli(s.pauli, _NOISE_STREAM_BASE + len(sites), om)
            sites.append(InjectedError(t, s.pauli.mod_phase(), k))

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
                emit_pauli(flip, coin_streams, 0.5)
                coin_streams += 1
            if op == "measure":
                recorded = outcome
                if st.pending is not None:
                    recorded ^= st.pending.x_bit(q)
                st.classical_bits[ins.record] = recorded
                prog.append(("meas", q, ins.record))
            else:
                if outcome:
                    st.apply_clifford("x", q)
                prog.append(("reset", q))
        elif op == "cpauli":
            st.conditional_pauli(ins.qubits[0], ins.pauli, ins.parity)
            prog.append(("cpauli", ins.qubits[0], ins.pauli, np.array(ins.parity, dtype=np.intp)))
        else:
            raise ValueError(f"op {op!r} is not stabilizer-simulable")
    emit_noise(n_ins)

    ref_bits = np.zeros(circuit.n_records, dtype=np.uint8)
    for idx, bit in st.classical_bits.items():
        ref_bits[idx] = bit
    return prog, draws, sites, ref_bits, st


def _draw(stream: CounterRandom, draws: list[tuple[int, float]], shot_ids: np.ndarray, shots: int) -> np.ndarray:
    """Packed fired mask, one row per (stream id, weight) draw: bit s of row
    j is set where shot s's uniform on stream j is below its weight."""
    sids = np.array([sid for sid, _ in draws], dtype=np.uint64)
    weights = np.array([w for _, w in draws], dtype=float)
    out = np.empty((len(draws), _n_words(shots)), dtype=np.uint64)
    step = max(1, _DRAW_VALUES // max(shots, 1))
    for lo in range(0, len(draws), step):
        hi = min(len(draws), lo + step)
        u = stream.uniform(sids[lo:hi], shot_ids).reshape(hi - lo, shots)
        out[lo:hi] = _pack_rows(u < weights[lo:hi, None])
    return out


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

    ``noise`` is a sequence of sites, each with a ``before_index`` into the
    instruction list, a ``pauli`` operator, and a firing weight ``omega``.
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
    prog, draws, sites, ref_bits, ref_state = _compile_reference(circuit, noise, mode)
    post = mode == "post_process"
    ids = np.arange(per_seed, dtype=np.uint64) + np.uint64(shot_offset)
    fired = _draw(stream, draws, ids, shots)

    # qubit-major: row q holds qubit q of every shot, 64 shots a word
    shape = (circuit.n_qubits, _n_words(shots))
    FX = np.zeros(shape, dtype=np.uint64)
    FZ = np.zeros(shape, dtype=np.uint64)
    DX = np.zeros(shape, dtype=np.uint64) if post else None
    DZ = np.zeros(shape, dtype=np.uint64) if post else None
    frames = [(FX, FZ)] + ([(DX, DZ)] if post else [])
    # record-major, so that a cpauli parity XOR-reduces whole rows
    diff = np.zeros((circuit.n_records, shape[1]), dtype=np.uint64)

    for entry in prog:
        tag = entry[0]
        if tag == "cx":
            _, c, t = entry
            for A, B in frames:
                A[t] ^= A[c]
                B[c] ^= B[t]
        elif tag == "h":
            q = entry[1]
            for A, B in frames:
                A[q], B[q] = B[q], A[q].copy()
        elif tag in ("s", "sdg"):
            q = entry[1]
            for A, B in frames:
                B[q] ^= A[q]
        elif tag == "meas":
            _, q, rec = entry
            diff[rec] = FX[q] ^ DX[q] if post else FX[q]
        elif tag == "reset":
            q = entry[1]
            FX[q] = _U0
            FZ[q] = _U0
        elif tag == "pauli":
            _, xq, zq, j = entry
            if xq is not None:
                FX[xq] ^= fired[j]
            if zq is not None:
                FZ[zq] ^= fired[j]
        elif tag == "cpauli":
            _, q, letter, recs = entry
            TX, TZ = frames[-1]  # the pending-difference frame in post mode
            (TX if letter == "X" else TZ)[q] ^= np.bitwise_xor.reduce(diff[recs], axis=0)
        else:  # pragma: no cover - compiler and replayer agree on tags
            raise AssertionError(f"unknown program entry {tag!r}")

    records = np.empty((shots, circuit.n_records), dtype=np.uint8)
    for lo in range(0, circuit.n_records, 64):
        records[:, lo : lo + 64] = (_unpack_rows(diff[lo : lo + 64], shots) ^ ref_bits[lo : lo + 64, None]).T
    noise_rows = np.array([sid >= _NOISE_STREAM_BASE for sid, _ in draws], dtype=bool)
    return BatchResult(
        records=records,
        mode=mode,
        reference=ref_state,
        fx=FX,
        fz=FZ,
        fired=fired[noise_rows],
        sites=sites,
        dx=DX,
        dz=DZ,
    )
