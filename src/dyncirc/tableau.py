"""Bit-packed stabilizer engine for dynamic Clifford circuits: one tableau
and one sampler.

* :class:`StabilizerState` — a destabilizer/stabilizer tableau with the gate
  set {H, S, S†, X, Y, Z, CNOT}, mid-circuit measurement (deterministic and
  random outcomes), reset, and single-qubit Pauli corrections.  The 2n
  generator rows are bit lanes, 64 rows per machine word, in arrays indexed
  [lane word, qubit] (Stim's tableau layout, Gidney, Quantum 5, 497
  (2021)): a gate is a few word operations on one or two qubit columns, and
  a random collapse touches only the lane words that hold the rows it
  rewrites.  It runs the reference pass of the frame program.

* :func:`compile` — a circuit and its noise sites compiled once into a
  frozen :class:`Program` by a single reference execution (random outcomes
  pinned to 0, with a flip operator captured at every random collapse).
  :meth:`Program.sample` draws every noise site and collapse coin of many
  shots into a packed fired mask, then replays the Pauli frames of those
  shots against that reference; :func:`run_batch`, the sampler, is compile
  then sample.  Frames are qubit-major, one bit per shot (Stim's
  frame-simulator layout, same reference): during the replay each frame
  row is a Python integer whose bit s is shot s, a gate is an integer XOR
  or swap of one or two rows, and a noise site XORs its fired row into the
  rows on its support.  A random collapse's coin is delta-coded: it XORs
  its fired row into one of a few running accumulators, and pays one XOR
  for each frame row that joins or leaves that accumulator's row set, so a
  chain of collapses whose flips grow by a qubit or two costs a few XORs a
  coin, not one per flip qubit.  A row still pending in an accumulator is
  settled by one XOR before a gate or measurement reads it.  Replay cost is
  then O(instructions x shots / 64) words, independent of the tableau and
  of flip widths.  Results leave the replay as uint64 words, 64 shots a
  word.
  :meth:`Program.outcomes` is the exact distribution of the classical
  record: a shot's record is the reference record XOR a flip fixed by which
  collapse coins fired, so the program replayed once over every assignment
  of the k coins gives each record's probability in units of 2^-k.

Randomness is counter-based: every random event in the compiled program owns
a stream id, and the value drawn for (stream, shot) is a hash of the pair.
Shot ``i`` therefore sees identical randomness no matter how a batch is
sharded across workers or runs.  A draw of firing weight w is held as the
integer threshold K = ceil(w * 2^53) and fires where the top 53 bits of
the hash are below K, exactly where the float draw is below w.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .pauli import PauliString

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U1 = np.uint64(1)
_U0 = np.uint64(0)
_ONES = np.uint64(_MASK64)

# Collapse coins and noise draws use disjoint stream-id ranges so that a
# noiseless run and a noisy run with the same seed share their collapse
# randomness; a shot's noisy/noiseless difference is then purely the
# propagated injected errors.
_NOISE_STREAM_BASE = 1 << 32

_ONE_QUBIT_CLIFFORDS = ("h", "s", "sdg", "x", "y", "z")

# Collapse-coin accumulators per frame part (X rows, Z rows): two follow a
# chain whose coins alternate between two families of flips
_ACCUMULATORS = 2

# Fewest letters a flip part needs to be delta-coded: a narrower one costs
# no more as direct XORs than as a delta entry plus the settles it implies
_DELTA_MIN_LETTERS = 8

# Most collapse coins Program.outcomes enumerates (2^k shots for k coins)
_OUTCOME_COINS = 20

# Most (operators x lane words x qubits) words one expectation chunk holds
_EXPECTATION_WORDS = 1 << 18


# ---------------------------------------------------------------------------
# counter-based randomness
# ---------------------------------------------------------------------------


_SHR30, _SHR27, _SHR31, _SHR11 = (np.uint64(b) for b in (30, 27, 31, 11))
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix_into(x: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer, in place on uint64 ``x`` (arithmetic wraps);
    ``tmp`` is scratch of the same shape."""
    np.right_shift(x, _SHR30, out=tmp)
    x ^= tmp
    x *= _MIX1
    np.right_shift(x, _SHR27, out=tmp)
    x ^= tmp
    x *= _MIX2
    np.right_shift(x, _SHR31, out=tmp)
    x ^= tmp


def _mix_u64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64, into a new array."""
    x = np.array(x, dtype=np.uint64)
    _mix_into(x, np.empty_like(x))
    return x


# Most hash values one draw chunk holds: the draws of a batch are taken in
# chunks of whole streams through one reused pair of buffers this size
_DRAW_VALUES = 1 << 14


class CounterRandom:
    """Stateless uniform numbers addressed by (stream id, shot id).

    The draw for a given address never depends on how many draws came before
    it, which is what makes sharded runs reproduce a single-process run
    bit for bit.  ``master_seed`` is one seed or a sequence of m seeds; with
    m seeds, :meth:`uniform` draws row k of its (m, r) result under seed k.
    The keys of all seeds are derived together (:func:`_seed_keys`).

    A draw is ``u = (h >> 11) * 2^-53`` for a 64-bit hash h of the address,
    so ``u < w`` exactly when ``h >> 11 < ceil(w * 2^53)``: :meth:`fired`
    takes that integer threshold and never forms a float.  :meth:`uniform`
    is the float definition it is tested against.
    """

    def __init__(self, master_seed):
        self._single = isinstance(master_seed, (int, np.integer))
        self._keys = _seed_keys([master_seed] if self._single else master_seed)

    @property
    def n_seeds(self) -> int:
        return self._keys.size

    def _pair_keys(self, stream_ids: np.ndarray) -> np.ndarray:
        """The hash of each (stream, seed) pair, as a (streams, m) array."""
        c = _mix_u64((stream_ids.reshape(-1, 1) + _U1) * np.uint64(_GOLDEN))
        return _mix_u64(self._keys ^ c)

    def uniform(self, stream_id, shot_ids: np.ndarray) -> np.ndarray:
        """Floats in [0, 1), one per entry of ``shot_ids`` (uint64 array),
        or an (m, len(shot_ids)) array under m seeds.  ``stream_id`` may
        also be a 1-D array of k stream ids, which adds a leading axis of
        length k: one row of draws per stream."""
        sids = np.asarray(stream_id, dtype=np.uint64)
        x = (shot_ids + _U1) * np.uint64(_GOLDEN) + self._pair_keys(sids)[:, :, None]
        u = (_mix_u64(x) >> _SHR11) * 2.0**-53
        return u.reshape(sids.shape + u.shape[1 + self._single :])

    def fired(self, stream_ids: np.ndarray, thresholds: np.ndarray, shot_ids: np.ndarray) -> np.ndarray:
        """Packed rows, one per stream of ``stream_ids``, 64 shots a word:
        bit ``k * r + i`` of row j is set where the draw of shot
        ``shot_ids[i]`` (r of them) under seed k is below
        ``thresholds[j] * 2^-53``, i.e. where :meth:`uniform` is.

        Each (stream, seed) pair's hash is derived once; the shot hashes
        are then mixed and compared as integers in one reused buffer pair,
        a chunk of whole streams at a time, and packed."""
        m, r, k = self._keys.size, shot_ids.size, stream_ids.size
        shots = m * r
        out = np.zeros((k, _n_words(shots)), dtype=np.uint64)
        if not k or not shots:
            return out
        keys = self._pair_keys(stream_ids).reshape(-1, 1)
        thresholds = np.repeat(thresholds, m).reshape(-1, 1)  # one per pair, like keys
        ids = (shot_ids + _U1) * np.uint64(_GOLDEN)
        rows = min(k, max(1, _DRAW_VALUES // shots))  # streams a chunk
        x, tmp = np.empty((2, rows * shots), dtype=np.uint64)
        hit = np.empty(rows * shots, dtype=bool)
        packed = out.view(np.uint8)[:, : (shots + 7) // 8]
        for lo in range(0, k, rows):
            hi = min(k, lo + rows)
            n = (hi - lo) * shots
            xs = x[:n].reshape(-1, r)  # [p, i]: shot i of (stream, seed) pair p
            xs[:] = ids
            xs += keys[lo * m : hi * m]
            _mix_into(x[:n], tmp[:n])
            x[:n] >>= _SHR11
            np.less(xs, thresholds[lo * m : hi * m], out=hit[:n].reshape(-1, r))
            packed[lo:hi] = np.packbits(hit[:n].reshape(hi - lo, shots), axis=1, bitorder="little")
        return out


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


def pauli_bits(paulis, n_qubits: int, qubits=None) -> tuple[np.ndarray, np.ndarray]:
    """The X and Z letters of each operator (signs dropped) as (m,
    ``n_qubits``) booleans, one column per qubit: the layout in which
    operators meet tableau lanes and frame rows.  With ``qubits``, qubit j
    of each operator lands on register qubit ``qubits[j]``."""
    width = len(qubits) if qubits is not None else n_qubits
    n_bytes = (width + 7) // 8
    raw = b"".join(v.to_bytes(n_bytes, "little") for p in paulis for v in (p.x_bits, p.z_bits))
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 2, n_bytes)
    out = np.zeros((2, packed.shape[0], n_qubits), dtype=bool)
    cols = slice(None) if qubits is None else list(qubits)
    out[:, :, cols] = np.unpackbits(packed, axis=2, count=width, bitorder="little").transpose(1, 0, 2)
    return out[0], out[1]


def _unpack_bits(words: np.ndarray) -> int:
    out = 0
    for w, v in enumerate(words):
        out |= int(v) << (64 * w)
    return out


def _prefix_parity(words: np.ndarray, axis: int) -> np.ndarray:
    """Running XOR of packed bits along ``axis`` (64 a word, low bit
    first): bit i of the result is the parity of bits 0..i.  Within a word
    by shifted XORs, across words by the parity of the words before."""
    out = words.copy()
    for s in (1, 2, 4, 8, 16, 32):
        out ^= out << np.uint64(s)
    odd = np.bitwise_count(words) & 1
    out ^= -(np.bitwise_xor.accumulate(odd, axis=axis) ^ odd).astype(np.uint64)
    return out


def _shift_lanes(lanes: np.ndarray, n: int) -> np.ndarray:
    """Lane words (last axis) moved up by ``n`` rows: bit i becomes bit
    n + i, and bits moved past the last word are dropped."""
    w, b = divmod(n, 64)
    out = np.zeros_like(lanes)
    src = lanes[..., : lanes.shape[-1] - w]
    out[..., w:] = src << np.uint64(b)
    if b:
        out[..., w + 1 :] |= src[..., :-1] >> np.uint64(64 - b)
    return out


# ---------------------------------------------------------------------------
# tableau
# ---------------------------------------------------------------------------


class StabilizerState:
    """Destabilizer/stabilizer tableau over ``n`` qubits, initially |0...0>.

    Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers; row i of one set
    anticommutes exactly with row i of the other.  The rows are bit lanes,
    64 to a word: ``_X[w, q]`` and ``_Z[w, q]`` hold the X and Z letters on
    qubit q of rows 64w .. 64w + 63, row i in bit i % 64 of lane word
    i // 64, and bit i % 64 of ``_r[i // 64]`` is set where row i has sign
    -1.  A gate is then a few word operations on one or two qubit columns.
    A random collapse reads its pivot row out of one lane word and rewrites
    only the lane words that hold its target rows.  Readers that need rows
    in row order take them from :meth:`_row_major`.

    The outcome of a collapse is kept per qubit until a gate acts on that
    qubit (a Pauli with X or Y there flips it), so measuring it again costs
    no tableau pass; collapses of other qubits measure commuting operators
    and leave it valid.

    A random outcome is the ``forced`` value its measurement or reset is
    given, 0 by default: the state draws nothing itself.  A correction
    deferred to post-processing is kept by the frame replay
    (:class:`Program`), not by the tableau.
    """

    __slots__ = ("n", "_T", "_X", "_Z", "_r", "_stab", "_known")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        self.n = n
        # _X and _Z are the two halves of one array, so that a collapse
        # reads and writes both letters of its lane words in one operation
        self._T = np.zeros((2, _n_words(2 * n), n), dtype=np.uint64)
        self._X, self._Z = self._T
        self._r = np.zeros(self._T.shape[1], dtype=np.uint64)
        self._stab = _pack_rows(np.arange(2 * n)[None] >= n)[0]  # lanes of rows n..2n-1
        q = np.arange(n)
        self._X[q // 64, q] = _U1 << (q % 64).astype(np.uint64)
        self._Z[(n + q) // 64, q] = _U1 << ((n + q) % 64).astype(np.uint64)
        self._known: dict[int, int] = {}

    # -- bookkeeping helpers ---------------------------------------------

    def _check(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise ValueError(f"qubit {q} out of range for n={self.n}")

    def copy(self) -> "StabilizerState":
        new = StabilizerState.__new__(StabilizerState)
        new.n = self.n
        new._T = self._T.copy()
        new._X, new._Z = new._T
        new._r = self._r.copy()
        new._stab = self._stab
        new._known = dict(self._known)
        return new

    def _row_major(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``lo``..``hi``-1 in row order: their X and Z letters as
        (rows, ceil(n/64)) words, 64 qubits a word, and a uint8 sign bit per
        row."""
        hi = 2 * self.n if hi is None else hi
        w0, w1 = lo // 64, _n_words(hi)
        a, b = lo - 64 * w0, hi - 64 * w0

        def rows(lanes: np.ndarray) -> np.ndarray:
            return _pack_rows(_unpack_rows(lanes[w0:w1].T, 64 * (w1 - w0))[:, a:b].T)

        signs = _unpack_rows(self._r[None, w0:w1], 64 * (w1 - w0))[0, a:b]
        return rows(self._X), rows(self._Z), signs

    def _paulis(self, lo: int, hi: int) -> list[PauliString]:
        xs, zs, rs = self._row_major(lo, hi)
        return [
            PauliString(self.n, _unpack_bits(x), _unpack_bits(z), -1 if r else 1) for x, z, r in zip(xs, zs, rs)
        ]

    def destabilizers(self) -> list[PauliString]:
        return self._paulis(0, self.n)

    def stabilizers(self) -> list[PauliString]:
        return self._paulis(self.n, 2 * self.n)

    # -- gates -------------------------------------------------------------

    def apply_clifford(self, gate: str, *qubits: int) -> None:
        X, Z, r = self._X, self._Z, self._r
        if gate == "cx":
            c, t = qubits
            if c == t:
                raise ValueError("cx needs two distinct qubits")
            self._check(c)
            self._check(t)
            xc, zt = X[:, c], Z[:, t]
            r ^= xc & zt & ~(X[:, t] ^ Z[:, c])
            X[:, t] ^= xc
            Z[:, c] ^= zt
        elif gate in _ONE_QUBIT_CLIFFORDS:
            (q,) = qubits
            self._check(q)
            x, z = X[:, q], Z[:, q]
            if gate == "h":
                r ^= x & z
                X[:, q], Z[:, q] = z, x.copy()
            elif gate == "s":
                r ^= x & z
                z ^= x
            elif gate == "sdg":
                r ^= x & ~z
                z ^= x
            elif gate == "x":
                r ^= z
            elif gate == "z":
                r ^= x
            else:  # y
                r ^= x ^ z
        else:
            raise ValueError(f"not a supported Clifford gate: {gate!r}")
        for q in qubits:
            self._known.pop(q, None)

    def apply_pauli(self, p: PauliString) -> None:
        """Multiply the state by ``p`` (global phase dropped): each generator
        row flips sign iff it anticommutes with ``p``.  Only the columns of
        ``p``'s support are read."""
        if p.n != self.n:
            raise ValueError(f"operator on {p.n} qubits, state on {self.n}")
        (x,), (z,) = pauli_bits([p], self.n)
        cols = np.flatnonzero(x | z)
        ax, az = -np.array([x[cols], z[cols]], dtype=np.uint64)  # all ones where p has an X / a Z letter
        self._r ^= np.bitwise_xor.reduce((self._X[:, cols] & az) ^ (self._Z[:, cols] & ax), axis=1)
        self._known = {q: v ^ p.x_bit(q) for q, v in self._known.items()}

    # -- measurement -----------------------------------------------------------

    def measure_flip(self, q: int, forced: int = 0) -> tuple[int, bool, PauliString | None]:
        """Measure Z on qubit ``q``; return (raw outcome, was_random, flip).

        ``flip`` (random outcomes only) is an operator that toggles the
        outcome when applied just before the measurement: the stabilizer row
        that anticommuted with Z_q, sign dropped, i.e. a group element
        mapping the outcome-0 post-measurement branch onto the outcome-1
        branch.  It is built from the letters :meth:`_measure` returns.
        ``forced`` is the outcome a random measurement takes (a
        deterministic one ignores it).
        """
        outcome, was_random, flip = self._measure(q, forced)
        return outcome, was_random, self._flip_pauli(flip)

    def _measure(self, q: int, forced: int) -> tuple[int, bool, tuple[int, int] | None]:
        """:meth:`measure_flip` with the flip given as the bitsets of its X
        and of its Z letters, bit q for qubit q."""
        self._check(q)
        if q in self._known:
            return self._known[q], False, None
        col = self._X[:, q].copy()
        hits = col & self._stab
        words = np.flatnonzero(hits)
        if words.size:
            outcome = int(forced) & 1
            v = int(hits[words[0]])
            flip = self._collapse(q, col, 64 * int(words[0]) + (v & -v).bit_length() - 1, outcome)
            self._known[q] = outcome
            return outcome, True, flip
        outcome = self._deterministic_outcome(q, col)
        self._known[q] = outcome
        return outcome, False, None

    def _flip_pauli(self, flip: tuple[int, int] | None) -> PauliString | None:
        """The operator with X letters ``flip[0]`` and Z letters
        ``flip[1]`` (bitsets), sign +1."""
        return None if flip is None else PauliString(self.n, *flip)

    def _collapse(self, q: int, col: np.ndarray, p: int, outcome: int) -> tuple[int, int]:
        """Random collapse of Z_q on pivot row ``p``, the first stabilizer
        with X on q; ``col`` is the lane column of X letters on q.  Every
        other row with X on q, bar the destabilizer p - n, is multiplied by
        the pivot; then the destabilizer becomes the pivot and the pivot
        becomes (-1)^outcome Z_q.  Only the lane words holding those rows
        are read or written.  Returns the pivot's X and Z letters as
        bitsets, bit q for qubit q (the flip operator)."""
        n = self.n
        T, r = self._T, self._r
        pw, pb = divmod(p, 64)
        dw, db = divmod(p - n, 64)
        pb, db = np.uint64(pb), np.uint64(db)
        piv = (T[:, pw] >> pb) & _U1  # the pivot's X and Z letters, 0 or 1 a qubit
        letters = np.packbits(piv.astype(bool), axis=1, bitorder="little").tobytes()  # X row, then Z row
        half = len(letters) // 2
        x, z = int.from_bytes(letters[:half], "little"), int.from_bytes(letters[half:], "little")
        rp = (r[pw] >> pb) & _U1
        col[pw] &= ~(_U1 << pb)
        col[dw] &= ~(_U1 << db)
        ws = np.flatnonzero(col)
        if ws.size:
            # row t <- pivot * row t, 64 target rows a word, on the columns
            # from the pivot's first letter to its last (elsewhere the pivot
            # is the identity); it has an X letter on q, so it has one
            u = x | z
            span = slice((u & -u).bit_length() - 1, u.bit_length())
            a = -piv[:, span]  # all ones where the pivot has an X / a Z letter
            ax, az = a
            Xt, Zt = Tt = T[:, ws, span]
            anti = (Xt & az) ^ (Zt & ax)
            m = col[ws]
            if (np.bitwise_xor.reduce(anti, axis=1) & m).any():
                raise AssertionError("row product produced an imaginary phase")
            # among those, the letters whose product with the pivot's is -i
            # times the third: target Z under pivot X, X under Y, Y under Z
            minus = (ax & ~az) ^ (Xt & ax) ^ (Zt & (az & ~ax))
            # with k anticommuting letters, j of them -i, the product's
            # phase is i^(k - 2j) with k even: the sign flips by bit 1 of k,
            # the parity of anticommuting pairs (C(k, 2) mod 2), xor j mod 2;
            # that parity is the count, mod 2, of anticommuting letters with
            # an odd number of them before
            before = np.bitwise_xor.accumulate(anti, axis=1) ^ anti
            flips = np.bitwise_xor.reduce(anti & (before ^ minus), axis=1)
            r[ws] ^= m & (flips ^ (_ONES if rp else _U0))
            T[:, ws, span] = Tt ^ (m[:, None] & a[:, None, :])
        dm = _U1 << db
        T[:, dw] = (T[:, dw] & ~dm) | (piv << db)
        r[dw] = (r[dw] & ~dm) | (rp << db)
        pm = _U1 << pb
        T[:, pw] &= ~pm
        T[1, pw, q] |= pm
        r[pw] = (r[pw] & ~pm) | (np.uint64(outcome) << pb)
        return x, z

    def _deterministic_outcome(self, q: int, col: np.ndarray) -> int:
        """Z_q's value when it is in the stabilizer group: Z_q is, up to
        sign, the product of the stabilizers n + i whose destabilizers i
        have X on q (the lanes below n of ``col``, the X letters on q)."""
        (x,), (z,), (e,) = self._products(_shift_lanes(col & ~self._stab, self.n)[None])
        if x.any():
            raise AssertionError("deterministic-outcome product is not Z-type")
        if z.sum() != 1 or not z[q]:
            raise AssertionError("deterministic-outcome product is not Z_q")
        if e & 1:
            raise AssertionError("deterministic outcome has imaginary phase")
        return int(e) >> 1

    def _products(self, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each line of ``sel``, (m, W) lane words that select rows, the
        product in row order of the selected rows: its X and Z letters as
        (m, n) booleans and its phase as an exponent of i (mod 4) against
        the Hermitian Pauli with those letters.  With each row written as
        (-1)^r i^(x.z) X^x Z^z, the product carries (-1)^r for each row, i
        for each Y letter, and -1 for each pair of rows a < b and qubit
        where a has a Z letter and b an X letter (moving the X past the Z);
        the counts are taken across lanes, 64 rows a word, on the lane words
        that some line selects."""
        ws = np.flatnonzero(sel.any(axis=0))
        m = sel[:, ws]
        xs, zs = self._X[ws] & m[:, :, None], self._Z[ws] & m[:, :, None]
        x = (np.bitwise_count(np.bitwise_xor.reduce(xs, axis=1)) & 1).astype(bool)
        z = (np.bitwise_count(np.bitwise_xor.reduce(zs, axis=1)) & 1).astype(bool)
        # Z letters of earlier rows on the same qubit
        before = _prefix_parity(zs, axis=1) ^ zs
        y_letters = np.bitwise_count(xs & zs).sum(axis=(1, 2), dtype=np.int64)
        pairs = np.bitwise_count(xs & before).sum(axis=(1, 2), dtype=np.int64)
        signs = np.bitwise_count(self._r[ws] & m).sum(axis=1, dtype=np.int64)
        return x, z, (y_letters - (x & z).sum(axis=1) + 2 * (signs + pairs)) % 4

    def measure(self, qubit: int, forced: int = 0) -> int:
        """Measure Z on ``qubit``; return the raw outcome."""
        return self._measure(qubit, forced)[0]

    def reset(self, q: int, forced: int = 0) -> tuple[int, bool, PauliString | None]:
        """Measure-then-flip so the state is stabilized by +Z on ``q``;
        returns what :meth:`measure_flip` does."""
        outcome, was_random, flip = self._reset(q, forced)
        return outcome, was_random, self._flip_pauli(flip)

    def _reset(self, q: int, forced: int) -> tuple[int, bool, tuple[int, int] | None]:
        """:meth:`reset` with the flip as :meth:`_measure` gives it."""
        outcome, was_random, flip = self._measure(q, forced)
        if outcome:
            self.apply_clifford("x", q)
        self._known[q] = 0
        return outcome, was_random, flip

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
        return signs * self.bit_expectations(*pauli_bits(paulis, self.n))

    def bit_expectations(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Expectations of m sign-free operators given as (m, n) booleans of
        X and Z letters (:func:`pauli_bits`), as an int array of 0 and +-1.
        An operator no stabilizer anticommutes with is the product of the
        stabilizers n + i whose destabilizers i do.  Operators are taken
        together, in chunks of bounded (operators x lane words x qubits)
        size."""
        n = self.n
        out = np.zeros(x.shape[0], dtype=np.int64)
        step = max(1, _EXPECTATION_WORDS // (self._r.size * n))
        for lo in range(0, x.shape[0], step):
            px, pz = x[lo : lo + step], z[lo : lo + step]
            cols = np.flatnonzero((px | pz).any(axis=0))
            ax, az = -np.array([px[:, None, cols], pz[:, None, cols]], dtype=np.uint64)
            anti = np.bitwise_xor.reduce((self._X[:, cols] & az) ^ (self._Z[:, cols] & ax), axis=2)
            fixed = np.flatnonzero(~(anti & self._stab).any(axis=1))
            xs, zs, e = self._products(_shift_lanes(anti[fixed] & ~self._stab, n))
            if (xs != px[fixed]).any() or (zs != pz[fixed]).any():
                raise AssertionError("commuting operator not generated by the stabilizers")
            if (e & 1).any():
                raise AssertionError("stabilizer product has imaginary phase")
            out[lo + fixed] = 1 - e
        return out

    def check_invariants(self) -> None:
        """Symplectic pairing: destabilizer i anticommutes with stabilizer i
        and commutes with everything else; rows pairwise commute otherwise.
        Full rank follows from the nondegenerate pairing."""
        n = self.n
        X, Z, _ = self._row_major()
        gram = (
            np.bitwise_count(X[:, None, :] & Z[None, :, :]).sum(axis=2)
            + np.bitwise_count(Z[:, None, :] & X[None, :, :]).sum(axis=2)
        ) & 1
        want = np.zeros((2 * n, 2 * n), dtype=gram.dtype)
        for i in range(n):
            want[i, n + i] = 1
            want[n + i, i] = 1
        if not np.array_equal(gram, want):
            raise AssertionError("tableau lost its symplectic pairing")


# ---------------------------------------------------------------------------
# batched shot sampling (reference pass + Pauli-frame replay)
# ---------------------------------------------------------------------------


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


# Most set bits _support reads off one at a time rather than through numpy:
# a noise site or a collapse coin's moved rows are a few bits of a wide
# register, which this reads in about a fifth of the time
_PEELED_BITS = 8


def _support(bits: int, typecode: str):
    """The set bits of a non-negative integer, ascending, in the form of
    :func:`_index_support`."""
    if not bits & (bits - 1):
        return (bits.bit_length() - 1,) if bits else ()
    if bits.bit_count() <= _PEELED_BITS:
        idx = []
        while bits:
            low = bits & -bits
            idx.append(low.bit_length() - 1)
            bits ^= low
        return array(typecode, idx)
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return _index_support(np.flatnonzero(np.unpackbits(raw, bitorder="little")), typecode)


def _index_support(idx: np.ndarray, typecode: str):
    """Ascending qubit indices, the frame rows that a program entry
    touches: a tuple of at most one, otherwise an array of ``typecode``,
    which holds a wide support (a noise operator, a collapse flip kept
    direct, the rows a collapse coin moves in or out of an accumulator, or
    an accumulator's rows settled at the end) in a few bytes a qubit."""
    if idx.size <= 1:
        return tuple(idx.tolist())
    return array(typecode, idx.astype(typecode).tobytes())


def _int_rows(rows: list[int], n_words: int) -> np.ndarray:
    """Integers of at most 64 * ``n_words`` bits as (rows, ``n_words``)
    packed words, bit s of an integer in bit s % 64 of word s // 64."""
    raw = bytearray(b"".join(v.to_bytes(8 * n_words, "little") for v in rows))
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64, copy=False).reshape(len(rows), n_words)


@dataclass
class BatchResult:
    """Vectorised shot batch: ``records[s, r]`` is record r of shot s.

    ``reference`` is the reference execution's end state (random outcomes
    pinned to 0, and in post-processing mode no correction applied).  Shot
    s ends in ``frame_s * reference``.  Frames are stored qubit-major with
    64 shots a word: bit s % 64 of word s // 64 in row q of ``fx``/``fz`` is
    the X/Z part of shot s's frame on qubit q.  In post-processing mode
    ``dx``/``dz`` hold, in the same layout, shot s's whole outstanding
    correction, the reference's included.  ``sites`` is the caller's
    noise sites in program order, and row j of ``fired`` marks, in the
    same layout, the shots on which ``sites[j]`` fired.
    """

    records: np.ndarray
    mode: str
    reference: StabilizerState
    fx: np.ndarray
    fz: np.ndarray
    fired: np.ndarray
    sites: list
    dx: np.ndarray | None = None
    dz: np.ndarray | None = None

    @property
    def shots(self) -> int:
        return self.records.shape[0]

    def readout_flips(self, sx: np.ndarray, sz: np.ndarray) -> np.ndarray:
        """(m, shots/m) booleans for m operators on the circuit register,
        given as (m, n) booleans of X and Z letters (:func:`pauli_bits`),
        operator k read on its own block of shots/m consecutive rows: True
        where a noiseless readout of the operator on that shot records the
        opposite of its value on the reference state.  That is where it
        anticommutes with the shot's frame, times its outstanding
        correction in post-processing mode (records are corrected through
        it).  Only the frame rows of the operators' support are read."""
        m = sx.shape[0]
        if m == 0 or self.shots % m:
            raise ValueError(f"{self.shots} shots do not split evenly over {m} operators")
        if self.shots == 0:
            return np.zeros((m, 0), dtype=bool)
        cols = np.flatnonzero((sx | sz).any(axis=0))
        fx, fz = self.fx[cols], self.fz[cols]
        if self.mode == "post_process":
            fx ^= self.dx[cols]
            fz ^= self.dz[cols]
        fx &= _block_rows(sz[:, cols], self.shots)
        fz &= _block_rows(sx[:, cols], self.shots)
        anti = np.bitwise_xor.reduce(fx, axis=0) ^ np.bitwise_xor.reduce(fz, axis=0)
        return _unpack_rows(anti[None], self.shots)[0].astype(bool).reshape(m, -1)


def _block_rows(letters: np.ndarray, shots: int) -> np.ndarray:
    """Frame-layout rows of per-shot letters, built packed: for (m, c)
    booleans with m dividing ``shots``, bit s of row j is
    ``letters[s // (shots/m), j]``.  A row is the running XOR of bits set
    at the first shot of each block whose letter differs from the block
    before."""
    k, j = np.nonzero(np.diff(letters, axis=0, prepend=False))
    at = (k * (shots // letters.shape[0])).astype(np.uint64)
    rows = np.zeros((letters.shape[1], _n_words(shots)), dtype=np.uint64)
    np.bitwise_or.at(rows, (j, at >> np.uint64(6)), _U1 << (at & np.uint64(63)))
    return _prefix_parity(rows, axis=1)


@dataclass(frozen=True, eq=False)
class Program:
    """A circuit compiled by :func:`compile` for the frame sampler: one
    reference execution (random outcomes pinned to 0) turned into a
    frame-replay program, sampled any number of times.

    Draw j fires on the shots whose uniform on stream ``streams[j]`` is
    below its firing weight w, which the program holds as the integer
    threshold K = ``thresholds[j]`` = ceil(w * 2^53) (:meth:`CounterRandom.fired`).
    An entry ``("pauli", xq, zq, j)`` XORs the fired row of draw j into the
    X frame rows ``xq`` and the Z frame rows ``zq`` (each a
    :func:`_support`); it is a noise site, or the part of a random
    collapse's flip operator (weight 1/2, a stream below
    ``_NOISE_STREAM_BASE``) that is kept direct.

    The rest of a flip is delta-coded against ``_ACCUMULATORS`` running
    accumulators per frame part; accumulator a holds X frame rows when
    a < ``_ACCUMULATORS`` and Z frame rows otherwise.  A row in
    accumulator a is pending: its true value is the row XOR the
    accumulator's value.  ``("delta", a, rows, j)`` XORs accumulator a's
    value into each of ``rows`` (one XOR moves a row in, or out), then
    XORs the fired row of draw j into the accumulator, so every row now in
    it takes the flip.  ``("settle", a, rows)`` XORs accumulator a's value
    into ``rows``, which leave it.  The compiler settles a row before an
    entry reads it (``cx``: the control's X row and the target's Z row;
    ``h``: both; ``s``/``sdg`` and ``meas``: the X row), and settles every
    row still pending at the end.  A ``reset`` zeroes both rows, so it
    drops them from their accumulators without a settle.  Pauli and
    ``cpauli`` XORs commute with a pending XOR and need none.

    ``cpauli`` parities are folded as the schedule walk decides
    (:attr:`circuits.ScheduleAnalysis.parities`): the k-th ``cpauli`` entry
    ``("cpauli", q, letter, base, recs, marked)`` has the parity of records
    ``recs`` XOR, when ``base`` is not None, the parity of ``cpauli`` entry
    ``base``; the reference bit is folded the same way.  In feed-forward
    mode the reference pass applies the correction its reference parity
    fires, and the replay writes a shot's change to it into the frame.  In
    post-processing mode the reference is left uncorrected, ``marked``
    entries are those whose reference parity is 1, and the replay writes
    each shot's whole correction into the outstanding correction rows.

    ``sites`` is the caller's noise sites in program order.  ``ref_bits``
    is the reference record (raw outcomes in post-processing mode).
    ``reference`` is the reference execution's end state, shared by every
    sample.
    """

    n_qubits: int
    n_records: int
    mode: str
    entries: tuple
    streams: np.ndarray
    thresholds: np.ndarray
    sites: tuple
    ref_bits: np.ndarray
    reference: StabilizerState

    def sample(self, shots: int, master_seed=0, shot_offset: int = 0) -> BatchResult:
        """``shots`` executions of the compiled circuit, as
        :func:`run_batch` describes them: shot i's randomness depends only
        on (master_seed, shot_offset + i)."""
        if shots < 0:
            raise ValueError(f"negative shot count {shots}")
        stream = CounterRandom(master_seed)
        if stream.n_seeds == 0 or shots % stream.n_seeds:
            raise ValueError(f"{shots} shots do not split evenly over {stream.n_seeds} seeds")
        per_seed = shots // stream.n_seeds
        end = int(shot_offset) + per_seed
        if shot_offset < 0 or end > 1 << 64:
            raise ValueError(f"shot ids {shot_offset}..{end - 1} outside 0..2^64-1")
        ids = np.arange(int(shot_offset), end, dtype=np.uint64)
        fired = stream.fired(self.streams, self.thresholds, ids)
        records, fx, fz, dx, dz = self._replay(fired, shots)
        noise_rows = fired[self.streams >= _NOISE_STREAM_BASE]
        return BatchResult(records, self.mode, self.reference, fx, fz, noise_rows, list(self.sites), dx, dz)

    def outcomes(self) -> dict[tuple[int, ...], float]:
        """Exact distribution over the classical record of a program without
        noise sites: the program replayed once for each of the 2^k
        assignments of its k random collapse coins, each of probability
        2^-k (deterministic collapses draw no coin).  Shot s fires coin j
        where bit j of s is set: coin j < 6 repeats within a word, and coin
        j >= 6 fires on whole words, those whose index has bit j - 6 set.
        Keys are bit tuples ordered by record index.  A program with more
        than ``_OUTCOME_COINS`` coins is refused."""
        if self.sites:
            raise ValueError("exact outcomes need a program without noise sites")
        k = self.streams.size
        if k > _OUTCOME_COINS:
            raise ValueError(
                f"exact outcomes over k={k} collapse coins would replay 2^{k} shots; at most {_OUTCOME_COINS} coins"
            )
        shots = 1 << k
        words = np.arange(_n_words(shots), dtype=np.uint64)
        fired = np.empty((k, words.size), dtype=np.uint64)
        for j in range(k):
            fired[j] = sum(1 << b for b in range(64) if b >> j & 1) if j < 6 else -((words >> np.uint64(j - 6)) & _U1)
        rows, counts = np.unique(self._replay(fired, shots)[0], axis=0, return_counts=True)
        return {tuple(row.tolist()): int(c) / shots for row, c in zip(rows, counts)}

    def _replay(self, fired: np.ndarray, shots: int):
        """Replay the program over ``shots`` shots, draw j firing on the
        shots set in row j of the packed mask ``fired``.  Returns the
        (shots, records) record array and the final frames ``FX``, ``FZ``
        and, in post-processing mode, the outstanding correction ``DX``,
        ``DZ`` (None otherwise), qubit-major with 64 shots a word.

        During the replay every frame row, record difference and ``cpauli``
        parity is one Python integer whose bit s is shot s, so an entry is
        a few integer XORs rather than numpy calls on short rows; so is
        each collapse-coin accumulator."""
        post = self.mode == "post_process"
        n, n_words = self.n_qubits, _n_words(shots)
        # draw j's row enters as an integer at its pauli or delta entries
        raw = memoryview(np.ascontiguousarray(fired, dtype="<u8").view(np.uint8).reshape(-1))
        step = 8 * n_words
        FX, FZ = [0] * n, [0] * n
        acc = [0] * (2 * _ACCUMULATORS)
        parts = (FX,) * _ACCUMULATORS + (FZ,) * _ACCUMULATORS  # the frame part of each accumulator
        # the outstanding correction in post mode, which cpauli entries
        # write; in feed-forward mode they write the frame
        DX, DZ = ([0] * n, [0] * n) if post else (FX, FZ)
        ones = (1 << shots) - 1  # a marked entry's reference correction, on every shot
        diff = [0] * self.n_records  # record r's flip, set by its meas entry
        parities: list[int] = []  # the parity each cpauli applied, which later entries fold

        for entry in self.entries:
            tag = entry[0]
            if tag == "pauli":
                _, xq, zq, j = entry
                f = int.from_bytes(raw[j * step : (j + 1) * step], "little")
                for q in xq:
                    FX[q] ^= f
                for q in zq:
                    FZ[q] ^= f
            elif tag == "delta":
                _, a, rows, j = entry
                g, frame = acc[a], parts[a]
                for q in rows:
                    frame[q] ^= g
                acc[a] = g ^ int.from_bytes(raw[j * step : (j + 1) * step], "little")
            elif tag == "settle":
                _, a, rows = entry
                g, frame = acc[a], parts[a]
                for q in rows:
                    frame[q] ^= g
            elif tag == "cx":
                _, c, t = entry
                FX[t] ^= FX[c]
                FZ[c] ^= FZ[t]
                if post:
                    DX[t] ^= DX[c]
                    DZ[c] ^= DZ[t]
            elif tag == "h":
                q = entry[1]
                FX[q], FZ[q] = FZ[q], FX[q]
                if post:
                    DX[q], DZ[q] = DZ[q], DX[q]
            elif tag in ("s", "sdg"):
                q = entry[1]
                FZ[q] ^= FX[q]
                if post:
                    DZ[q] ^= DX[q]
            elif tag == "meas":
                _, q, rec = entry
                diff[rec] = FX[q] ^ DX[q] if post else FX[q]
            elif tag == "reset":
                q = entry[1]
                FX[q] = FZ[q] = 0
            elif tag == "cpauli":
                _, q, letter, base, recs, marked = entry
                par = parities[base] if base is not None else 0
                for r in recs:
                    par ^= diff[r]
                parities.append(par)
                (DX if letter == "X" else DZ)[q] ^= par ^ ones if marked else par
            else:  # pragma: no cover - compiler and replayer agree on tags
                raise AssertionError(f"unknown program entry {tag!r}")

        diff_words = _int_rows(diff, n_words)
        records = np.empty((shots, self.n_records), dtype=np.uint8)
        for lo in range(0, self.n_records, 64):
            records[:, lo : lo + 64] = (_unpack_rows(diff_words[lo : lo + 64], shots) ^ self.ref_bits[lo : lo + 64, None]).T
        frames = [_int_rows(f, n_words) for f in (FX, FZ)]
        frames += [_int_rows(f, n_words) for f in (DX, DZ)] if post else [None, None]
        return (records, *frames)


def compile(circuit: Circuit, noise=None, mode: str = "feed_forward") -> Program:
    """Validate ``circuit`` and run it once with random outcomes pinned to
    0, emitting its frame-replay :class:`Program`: the entries, one draw per
    noise site or random collapse, the noise sites and the reference
    record.  ``noise`` is a sequence of sites as :func:`run_batch` takes
    them.  Validation is paid once per state of the circuit: it reads the
    schedule walk that :func:`circuits.tally` or :func:`noise.attach_noise`
    may already have made (:meth:`Circuit.validate`), whose ``parities``
    decide the ``cpauli`` folds.

    Each part (X, Z) of a random collapse's flip goes to the accumulator
    of its part whose row set is nearest the flip's (fewest rows to move),
    when that is no farther than the flip's own width: an empty
    accumulator is exactly that far, which is how one is first filled.  A
    part of fewer than ``_DELTA_MIN_LETTERS`` letters, or one that no
    accumulator is that near, stays a direct ``pauli`` entry.  Row sets are int bitsets, and ``pending`` is
    the per-qubit membership table from which settles are emitted."""
    folds = circuit.validate().parities
    if mode not in ("feed_forward", "post_process"):
        raise ValueError(f"unknown mode {mode!r}")
    n_ins = len(circuit.instructions)
    by_index: dict[int, list] = {}
    for s in noise or ():
        k = s.before_index
        if not 0 <= k <= n_ins:
            raise ValueError(f"noise site index {k} outside 0..{n_ins}")
        if s.pauli.n != circuit.n_qubits:
            raise ValueError("noise operator size does not match the circuit")
        by_index.setdefault(k, []).append(s)
    post = mode == "post_process"
    n = circuit.n_qubits
    st = StabilizerState(n)
    qdt = np.min_scalar_type(n).char  # supports are held as qubit indices
    prog: list[tuple] = []
    streams: list[int] = []
    weights: list[float] = []
    sites: list = []
    coin_streams = 0
    ref_bits = np.zeros(circuit.n_records, dtype=np.uint8)
    ref_parities: list[int] = []  # the reference value of each cpauli's parity

    # accumulator a's row set, and for each part the accumulators (bit a)
    # in which each qubit's row is pending
    acc_rows = [0] * (2 * _ACCUMULATORS)
    pending = held_x, held_z = bytearray(n), bytearray(n)

    def emit_pauli(xq, zq, stream_id: int, weight: float) -> None:
        prog.append(("pauli", xq, zq, len(streams)))
        streams.append(stream_id)
        weights.append(weight)

    def delta(part: int, bits: int, j: int):
        """Emit flip part ``bits`` of draw j as a delta entry when an
        accumulator of its part is near enough; return what stays direct,
        its support or ()."""
        width = bits.bit_count()
        if width < _DELTA_MIN_LETTERS:
            return _support(bits, qdt)
        lo = part * _ACCUMULATORS
        a = min(range(lo, lo + _ACCUMULATORS), key=lambda a: (acc_rows[a] ^ bits).bit_count())
        moved = acc_rows[a] ^ bits
        if moved.bit_count() > width:
            return _support(bits, qdt)
        rows = _support(moved, qdt)
        held = pending[part]
        for q in rows:
            held[q] ^= 1 << a
        acc_rows[a] = bits
        prog.append(("delta", a, rows, j))
        return ()

    def emit_coin(x: int, z: int) -> None:
        j = len(streams)
        xq, zq = delta(0, x, j), delta(1, z, j)
        if xq or zq:
            prog.append(("pauli", xq, zq, j))
        streams.append(coin_streams)
        weights.append(0.5)

    def leave(part: int, q: int, settle: bool = True) -> None:
        """Take row q of ``part`` out of its accumulators, settling it
        unless the entry that follows zeroes it.  Callers test ``held_x`` or
        ``held_z`` first: most reads find nothing pending."""
        held = pending[part][q]
        while held:
            a = (held & -held).bit_length() - 1
            if settle:
                prog.append(("settle", a, (q,)))
            acc_rows[a] ^= 1 << q
            held &= held - 1
        pending[part][q] = 0

    def emit_noise(k: int) -> None:
        for s in by_index.get(k, ()):
            om = float(s.omega)
            if not 0.0 <= om <= 1.0:
                raise ValueError(f"error weight {om} outside [0, 1]")
            p = s.pauli
            emit_pauli(_support(p.x_bits, qdt), _support(p.z_bits, qdt), _NOISE_STREAM_BASE + len(sites), om)
            sites.append(s)

    for k, ins in enumerate(circuit.instructions):
        emit_noise(k)
        op = ins.op
        if op in ("input", "barrier"):
            continue
        if op == "cx":
            c, t = ins.qubits
            st.apply_clifford("cx", c, t)
            if held_x[c]:
                leave(0, c)
            if held_z[t]:
                leave(1, t)
            prog.append(("cx", c, t))
        elif op in _ONE_QUBIT_CLIFFORDS:
            q = ins.qubits[0]
            st.apply_clifford(op, q)
            if op in ("h", "s", "sdg"):  # x/y/z commute with frames mod phase
                if held_x[q]:
                    leave(0, q)
                if op == "h" and held_z[q]:
                    leave(1, q)
                prog.append((op, q))
        elif op in ("measure", "reset"):
            q = ins.qubits[0]
            outcome, was_random, flip = (st._measure if op == "measure" else st._reset)(q, 0)
            if was_random:
                emit_coin(*flip)
                coin_streams += 1
            if op == "measure":
                ref_bits[ins.record] = outcome
                if held_x[q]:
                    leave(0, q)
                prog.append(("meas", q, ins.record))
            else:
                if held_x[q]:
                    leave(0, q, settle=False)
                if held_z[q]:
                    leave(1, q, settle=False)
                prog.append(("reset", q))
        elif op == "cpauli":
            q = ins.qubits[0]
            base, reads = folds[len(ref_parities)]
            par = ref_parities[base] if base is not None else 0
            for r in reads:
                par ^= int(ref_bits[r])
            if par and not post:
                st.apply_pauli(PauliString.single(st.n, q, ins.pauli))
            prog.append(("cpauli", q, ins.pauli, base, reads, bool(par) and post))
            ref_parities.append(par)
        else:
            raise ValueError(f"op {op!r} is not stabilizer-simulable")
    emit_noise(n_ins)
    for a, rows in enumerate(acc_rows):
        if rows:
            prog.append(("settle", a, _support(rows, qdt)))
    # w * 2^53 and its ceiling are exact in floating point for w in [0, 1]
    thresholds = np.ceil(np.array(weights, dtype=float) * 2.0**53).astype(np.uint64)
    streams = np.array(streams, dtype=np.uint64)
    return Program(n, circuit.n_records, mode, tuple(prog), streams, thresholds, tuple(sites), ref_bits, st)


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
    samples share one validation and one reference pass.  Shot ids are
    64-bit counters, so ``shot_offset + shots/m`` may not exceed 2^64.
    """
    return compile(circuit, noise, mode).sample(shots, master_seed, shot_offset)
