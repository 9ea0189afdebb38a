"""Bit-packed sampler for dynamic Clifford circuits: a circuit compiled once
against its reference tableau (:class:`~dyncirc.stabilizer.StabilizerState`),
then replayed as Pauli frames over many shots.

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
* :meth:`Program.error_map` — the replay is linear over GF(2), so one
  replay in which shot j fires draw j alone gives every noise site's and
  collapse coin's end-of-circuit Pauli (the detector-error-model idea of
  Gidney, Quantum 5, 497 (2021)).  :meth:`Program.read` reads operators
  from it: a shot's readout flip of an operator is the XOR of the draws it
  fires whose map Pauli anticommutes with the operator, so only those
  (draw, seed) pairs are hashed, and no frame is replayed.
  ``run_batch(..., read=(sx, sz))`` is that read, compiled and drawn in one
  call, as certification's parities take it.

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

from .circuits import MODES, Circuit
from .pauli import PauliString
from .stabilizer import _ONE_QUBIT_CLIFFORDS, _U1, StabilizerState, _n_words, _prefix_parity, _unpack_rows

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Collapse coins and noise draws use disjoint stream-id ranges so that a
# noiseless run and a noisy run with the same seed share their collapse
# randomness; a shot's noisy/noiseless difference is then purely the
# propagated injected errors.
_NOISE_STREAM_BASE = 1 << 32

# Collapse-coin accumulators per frame part (X rows, Z rows): two follow a
# chain whose coins alternate between two families of flips
_ACCUMULATORS = 2

# Fewest letters a flip part needs to be delta-coded: a narrower one costs
# no more as direct XORs than as a delta entry plus the settles it implies
_DELTA_MIN_LETTERS = 8

# Most collapse coins Program.outcomes enumerates (2^k shots for k coins)
_OUTCOME_COINS = 20


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

    def _grid(self, stream_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every stream of ``stream_ids`` under every seed, as a (stream,
        seed index) pair list: stream-major, m pairs a stream."""
        m = self._keys.size
        return np.repeat(stream_ids, m), np.tile(np.arange(m), stream_ids.size)

    def _pair_keys(self, stream_ids: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """The hash of each (stream, seed) pair: stream ``stream_ids[p]``
        under seed index ``seeds[p]``."""
        c = _mix_u64((stream_ids + _U1) * np.uint64(_GOLDEN))
        return _mix_u64(self._keys[seeds] ^ c)

    def uniform(self, stream_id, shot_ids: np.ndarray) -> np.ndarray:
        """Floats in [0, 1), one per entry of ``shot_ids`` (uint64 array),
        or an (m, len(shot_ids)) array under m seeds.  ``stream_id`` may
        also be a 1-D array of k stream ids, which adds a leading axis of
        length k: one row of draws per stream."""
        sids = np.asarray(stream_id, dtype=np.uint64)
        keys = self._pair_keys(*self._grid(sids.reshape(-1))).reshape(sids.size, -1, 1)
        x = (shot_ids + _U1) * np.uint64(_GOLDEN) + keys
        u = (_mix_u64(x) >> _SHR11) * 2.0**-53
        return u.reshape(sids.shape + u.shape[1 + self._single :])

    def fired(self, stream_ids: np.ndarray, thresholds: np.ndarray, shot_ids: np.ndarray, seeds=None) -> np.ndarray:
        """Packed rows of firing draws, 64 shots a word.  By default, one
        row per stream of ``stream_ids``: bit ``k * r + i`` of row j is set
        where the draw of shot ``shot_ids[i]`` (r of them) under seed k is
        below ``thresholds[j] * 2^-53``, i.e. where :meth:`uniform` is.
        With ``seeds``, one seed index per entry of ``stream_ids``, the
        draws are an explicit list of (stream, seed) pairs instead: bit i of
        row p is the draw of shot ``shot_ids[i]`` on stream
        ``stream_ids[p]`` under seed ``seeds[p]``, against
        ``thresholds[p]``.  The default is the pair list of every stream
        under every seed (:meth:`_grid`), m pairs packed into a row.

        Each pair's hash is derived once; the shot hashes are then mixed
        and compared as integers in one reused buffer pair, a chunk of
        whole rows at a time, and packed."""
        r, group = shot_ids.size, 1  # shots a pair, pairs a row
        if seeds is None:
            group = self._keys.size
            (stream_ids, seeds), thresholds = self._grid(stream_ids), np.repeat(thresholds, group)
        width = group * r  # bits a row
        k = stream_ids.size // max(group, 1)
        out = np.zeros((k, _n_words(width)), dtype=np.uint64)
        if not k or not width:
            return out
        keys = self._pair_keys(stream_ids, seeds).reshape(-1, 1)
        thresholds = thresholds.reshape(-1, 1)  # one per pair, like keys
        ids = (shot_ids + _U1) * np.uint64(_GOLDEN)
        rows = min(k, max(1, _DRAW_VALUES // width))  # rows a chunk
        x, tmp = np.empty((2, rows * width), dtype=np.uint64)
        hit = np.empty(rows * width, dtype=bool)
        packed = out.view(np.uint8)[:, : (width + 7) // 8]
        for lo in range(0, k, rows):
            hi = min(k, lo + rows)
            n = (hi - lo) * width
            xs = x[:n].reshape(-1, r)  # [p, i]: shot i of pair p
            xs[:] = ids
            xs += keys[lo * group : hi * group]
            _mix_into(x[:n], tmp[:n])
            x[:n] >>= _SHR11
            np.less(xs, thresholds[lo * group : hi * group], out=hit[:n].reshape(-1, r))
            packed[lo:hi] = np.packbits(hit[:n].reshape(hi - lo, width), axis=1, bitorder="little")
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


# ---------------------------------------------------------------------------
# batched shot sampling (reference pass + Pauli-frame replay)
# ---------------------------------------------------------------------------


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
    pinned to 0).  Shot s ends in ``frame_s * reference``.  Frames are
    stored qubit-major with 64 shots a word: bit s % 64 of word s // 64 in
    row q of ``fx``/``fz`` is the X/Z part of shot s's frame on qubit q.
    ``sites`` is the caller's noise sites in program order, and row j of
    ``fired`` marks, in the same layout, the shots on which ``sites[j]``
    fired.
    """

    records: np.ndarray
    reference: StabilizerState
    fx: np.ndarray
    fz: np.ndarray
    fired: np.ndarray
    sites: list

    @property
    def shots(self) -> int:
        return self.records.shape[0]

    def readout_flips(self, sx: np.ndarray, sz: np.ndarray) -> np.ndarray:
        """(m, shots/m) booleans for m operators on the circuit register,
        given as (m, n) booleans of X and Z letters (:func:`pauli_bits`),
        operator k read on its own block of shots/m consecutive rows: True
        where a noiseless readout of the operator on that shot records the
        opposite of its value on the reference state.  That is where it
        anticommutes with the shot's frame.  Only the frame rows of the
        operators' support are read."""
        m = sx.shape[0]
        if m == 0 or self.shots % m:
            raise ValueError(f"{self.shots} shots do not split evenly over {m} operators")
        if self.shots == 0:
            return np.zeros((m, 0), dtype=bool)
        cols = np.flatnonzero((sx | sz).any(axis=0))
        fx, fz = self.fx[cols], self.fz[cols]
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
    ``("cpauli", q, letter, base, recs)`` has the parity of records ``recs``
    XOR, when ``base`` is not None, the parity of ``cpauli`` entry ``base``;
    the reference bit is folded the same way.  The reference pass applies
    the correction its reference parity fires, and the replay writes a
    shot's change to it into the frame.  A correction deferred to
    post-processing is this same frame: a Pauli carried through Clifford
    gates, Pauli noise and measurements is what applying it on time gives,
    and a reset absorbs it.

    ``sites`` is the caller's noise sites in program order.  ``ref_bits``
    is the reference record.  ``reference`` is the reference execution's
    end state, shared by every sample.
    """

    n_qubits: int
    n_records: int
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
        stream, ids = _shot_ids(shots, master_seed, shot_offset)
        fired = stream.fired(self.streams, self.thresholds, ids)
        records, fx, fz = self._replay(fired, shots)
        noise_rows = fired[self.streams >= _NOISE_STREAM_BASE]
        return BatchResult(records, self.reference, fx, fz, noise_rows, list(self.sites))

    def error_map(self) -> tuple[np.ndarray, np.ndarray]:
        """The end frame of every draw fired alone, as (X rows, Z rows):
        qubit-major with one bit per draw, as a :class:`BatchResult` frame
        has one bit per shot, so bit j % 64 of word j // 64 in row q is
        draw j's letter on qubit q.  The replay is linear over GF(2) (each
        entry XORs, swaps or zeroes rows, a measurement copies a row into a
        record difference and a ``cpauli`` XORs such differences back in),
        and a shot that fires nothing ends in the reference state.  So one
        replay in which shot j fires draw j alone gives every draw's
        frame, resets and accumulators included, and a shot's frame is the
        XOR of the frames of the draws it fires."""
        _, fx, fz = self._replay(None, self.streams.size)
        return fx, fz

    def read(self, sx: np.ndarray, sz: np.ndarray, shots: int, master_seed=0, shot_offset: int = 0) -> np.ndarray:
        """The readout flips of m operators, given as (m, n) booleans of X
        and Z letters (:func:`pauli_bits`) with one seed each: the (m,
        shots/m) booleans that ``sample(shots, master_seed,
        shot_offset).readout_flips(sx, sz)`` holds, without a frame replay.

        A shot's flip of operator k is the parity of its end frame against
        the operator, the XOR over the draws it fires of their
        :meth:`error_map` frames' parities.  So only the (draw, seed k)
        pairs whose frame anticommutes with operator k are drawn, each
        pair's shots packed into its own row (:meth:`CounterRandom.fired`),
        and the rows of each operator are XOR-reduced into its flips."""
        stream, ids = _shot_ids(shots, master_seed, shot_offset)
        m, r = sx.shape[0], ids.size
        if m != stream.n_seeds:
            raise ValueError(f"{m} operators but {stream.n_seeds} seeds")
        flips = np.zeros((m, _n_words(r)), dtype=np.uint64)
        if r and self.streams.size:
            op, draw = np.nonzero(self._anticommuting(sx, sz))  # sorted by operator
            if op.size:
                rows = stream.fired(self.streams[draw], self.thresholds[draw], ids, seeds=op)
                starts = np.flatnonzero(np.diff(op, prepend=-1))
                flips[op[starts]] = np.bitwise_xor.reduceat(rows, starts, axis=0)
        return _unpack_rows(flips, r).astype(bool)

    def _anticommuting(self, sx: np.ndarray, sz: np.ndarray) -> np.ndarray:
        """(m, draws) uint8, 1 where operator k anticommutes with draw j's
        :meth:`error_map` frame.  A row is the XOR of the map rows of the
        operator's letters (its X letters read the Z rows, its Z letters
        the X rows), packed, for ``_DRAW_VALUES`` words of rows at a time."""
        cols = np.flatnonzero((sx | sz).any(axis=0))
        fx, fz = (part[cols] for part in self.error_map())
        m = sx.shape[0]
        anti = np.zeros((m, fx.shape[1]), dtype=np.uint64)
        step = max(1, _DRAW_VALUES // max(fx.size, 1))
        for lo in range(0, m, step):
            xs, zs = sx[lo : lo + step, cols, None], sz[lo : lo + step, cols, None]
            anti[lo : lo + step] = np.bitwise_xor.reduce(zs * fx ^ xs * fz, axis=1)
        return _unpack_rows(anti, self.streams.size)

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
        shots set in row j of the packed mask ``fired`` (on shot j alone
        when ``fired`` is None).  Returns the
        (shots, records) record array and the final frames ``FX``, ``FZ``,
        qubit-major with 64 shots a word.

        During the replay every frame row, record difference and ``cpauli``
        parity is one Python integer whose bit s is shot s, so an entry is
        a few integer XORs rather than numpy calls on short rows; so is
        each collapse-coin accumulator."""
        n, n_words = self.n_qubits, _n_words(shots)
        # draw j's row enters as an integer at its pauli or delta entries;
        # with no mask (``fired`` None), draw j fires on shot j alone
        raw = None if fired is None else memoryview(np.ascontiguousarray(fired, dtype="<u8").view(np.uint8).reshape(-1))
        step = 8 * n_words
        FX, FZ = [0] * n, [0] * n
        acc = [0] * (2 * _ACCUMULATORS)
        parts = (FX,) * _ACCUMULATORS + (FZ,) * _ACCUMULATORS  # the frame part of each accumulator
        diff = [0] * self.n_records  # record r's flip, set by its meas entry
        parities: list[int] = []  # the parity each cpauli applied, which later entries fold

        for entry in self.entries:
            tag = entry[0]
            if tag == "pauli":
                _, xq, zq, j = entry
                f = 1 << j if raw is None else int.from_bytes(raw[j * step : (j + 1) * step], "little")
                for q in xq:
                    FX[q] ^= f
                for q in zq:
                    FZ[q] ^= f
            elif tag == "delta":
                _, a, rows, j = entry
                g, frame = acc[a], parts[a]
                for q in rows:
                    frame[q] ^= g
                acc[a] = g ^ (1 << j if raw is None else int.from_bytes(raw[j * step : (j + 1) * step], "little"))
            elif tag == "settle":
                _, a, rows = entry
                g, frame = acc[a], parts[a]
                for q in rows:
                    frame[q] ^= g
            elif tag == "cx":
                _, c, t = entry
                FX[t] ^= FX[c]
                FZ[c] ^= FZ[t]
            elif tag == "h":
                q = entry[1]
                FX[q], FZ[q] = FZ[q], FX[q]
            elif tag in ("s", "sdg"):
                q = entry[1]
                FZ[q] ^= FX[q]
            elif tag == "meas":
                _, q, rec = entry
                diff[rec] = FX[q]
            elif tag == "reset":
                q = entry[1]
                FX[q] = FZ[q] = 0
            elif tag == "cpauli":
                _, q, letter, base, recs = entry
                par = parities[base] if base is not None else 0
                for r in recs:
                    par ^= diff[r]
                parities.append(par)
                (FX if letter == "X" else FZ)[q] ^= par
            else:  # pragma: no cover - compiler and replayer agree on tags
                raise AssertionError(f"unknown program entry {tag!r}")

        diff_words = _int_rows(diff, n_words)
        records = np.empty((shots, self.n_records), dtype=np.uint8)
        for lo in range(0, self.n_records, 64):
            records[:, lo : lo + 64] = (_unpack_rows(diff_words[lo : lo + 64], shots) ^ self.ref_bits[lo : lo + 64, None]).T
        return records, _int_rows(FX, n_words), _int_rows(FZ, n_words)


def _shot_ids(shots: int, master_seed, shot_offset: int) -> tuple[CounterRandom, np.ndarray]:
    """The draws of ``shots`` shots split evenly over the seeds of
    ``master_seed``, and the shot ids ``shot_offset ..`` each seed draws."""
    if shots < 0:
        raise ValueError(f"negative shot count {shots}")
    stream = CounterRandom(master_seed)
    if stream.n_seeds == 0 or shots % stream.n_seeds:
        raise ValueError(f"{shots} shots do not split evenly over {stream.n_seeds} seeds")
    end = int(shot_offset) + shots // stream.n_seeds
    if shot_offset < 0 or end > 1 << 64:
        raise ValueError(f"shot ids {shot_offset}..{end - 1} outside 0..2^64-1")
    return stream, np.arange(int(shot_offset), end, dtype=np.uint64)


@dataclass
class Readout:
    """Readout flips of m operators, as :meth:`Program.read` gives them
    (``flips``), and the reference end state they flip, as
    :class:`BatchResult` holds it."""

    reference: StabilizerState
    flips: np.ndarray


# instructions that only mark the schedule and leave the state alone
_MARKERS = ("input", "barrier")


def _gate_run(instructions, k: int) -> tuple[int, list]:
    """The consecutive gates from instruction ``k`` on, passing over
    markers: (the index after the last, their (name, qubits) pairs)."""
    gates, end = [], k
    for j in range(k, len(instructions)):
        ins = instructions[j]
        if ins.op in _MARKERS:
            continue
        if not (ins.op == "cx" or ins.op in _ONE_QUBIT_CLIFFORDS):
            break
        gates.append((ins.op, ins.qubits))
        end = j + 1
    return end, gates


def _measurement_layer(instructions, k: int) -> tuple[int, list]:
    """The measurement layer that starts at instruction ``k``: measurements
    and resets of distinct qubits, with the one-qubit Cliffords between them
    on qubits not yet measured, passing over markers, up to the last
    measurement before any other op.  Returns (the index after that
    measurement, the layer as :meth:`StabilizerState._collapse` takes it,
    random outcomes pinned to 0)."""
    ops, measured, end, size = [], set(), k, 0
    for j in range(k, len(instructions)):
        ins = instructions[j]
        if ins.op in _MARKERS:
            continue
        if not (ins.op in ("measure", "reset") or ins.op in _ONE_QUBIT_CLIFFORDS) or ins.qubits[0] in measured:
            break
        q = ins.qubits[0]
        ops.append((ins.op, q, 0))
        if ins.op in ("measure", "reset"):
            measured.add(q)
            end, size = j + 1, len(ops)
    return end, ops[:size]


def compile(circuit: Circuit, noise=None) -> Program:
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
    the per-qubit membership table from which settles are emitted.

    The tableau work is done a stretch at a time: a run of consecutive gates
    in one :meth:`StabilizerState.apply_gates` call, and a
    measurement layer in one :meth:`StabilizerState._collapse` call; the
    entries are then emitted instruction by instruction, in program order,
    as if each had been applied alone.  Noise sites are emitted at the
    indices that hold some."""
    folds = circuit.validate().parities
    n_ins = len(circuit.instructions)
    by_index: dict[int, list] = {}
    for s in noise or ():
        k = s.before_index
        if not 0 <= k <= n_ins:
            raise ValueError(f"noise site index {k} outside 0..{n_ins}")
        if s.pauli.n != circuit.n_qubits:
            raise ValueError("noise operator size does not match the circuit")
        by_index.setdefault(k, []).append(s)
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

    def emit_noise(at: list) -> None:
        for s in at:
            om = float(s.omega)
            if not 0.0 <= om <= 1.0:
                raise ValueError(f"error weight {om} outside [0, 1]")
            p = s.pauli
            emit_pauli(_support(p.x_bits, qdt), _support(p.z_bits, qdt), _NOISE_STREAM_BASE + len(sites), om)
            sites.append(s)

    instructions = circuit.instructions
    k = 0
    while k < n_ins:
        # the tableau work of a gate run or a measurement layer is done at
        # once; its entries are then emitted instruction by instruction
        op, end, results = instructions[k].op, k + 1, None
        if op == "cx" or op in _ONE_QUBIT_CLIFFORDS:
            end, gates = _gate_run(instructions, k)
            st.apply_gates(gates)
        elif op in ("measure", "reset"):
            end, layer = _measurement_layer(instructions, k)
            results = iter(st._collapse(layer))
        for idx in range(k, end):
            if idx in by_index:
                emit_noise(by_index[idx])
            ins = instructions[idx]
            op = ins.op
            if op == "cx":
                c, t = ins.qubits
                if held_x[c]:
                    leave(0, c)
                if held_z[t]:
                    leave(1, t)
                prog.append(("cx", c, t))
            elif op in _ONE_QUBIT_CLIFFORDS:
                q = ins.qubits[0]
                if op in ("h", "s", "sdg"):  # x/y/z commute with frames mod phase
                    if held_x[q]:
                        leave(0, q)
                    if op == "h" and held_z[q]:
                        leave(1, q)
                    prog.append((op, q))
            elif op in ("measure", "reset"):
                q = ins.qubits[0]
                outcome, was_random, flip = next(results)
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
                if par:
                    st.apply_pauli(PauliString.single(st.n, q, ins.pauli))
                prog.append(("cpauli", q, ins.pauli, base, reads))
                ref_parities.append(par)
            elif op not in _MARKERS:
                raise ValueError(f"op {op!r} is not stabilizer-simulable")
        k = end
    if n_ins in by_index:
        emit_noise(by_index[n_ins])
    for a, rows in enumerate(acc_rows):
        if rows:
            prog.append(("settle", a, _support(rows, qdt)))
    # w * 2^53 and its ceiling are exact in floating point for w in [0, 1]
    thresholds = np.ceil(np.array(weights, dtype=float) * 2.0**53).astype(np.uint64)
    streams = np.array(streams, dtype=np.uint64)
    return Program(n, circuit.n_records, tuple(prog), streams, thresholds, tuple(sites), ref_bits, st)


def run_batch(
    circuit: Circuit,
    shots: int,
    master_seed=0,
    noise=None,
    mode: str = "feed_forward",
    shot_offset: int = 0,
    read=None,
) -> BatchResult | Readout:
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

    ``mode`` names the schedule the circuit was built for, one of
    :data:`circuits.MODES`, and must be one of them; both sample the same
    program.  Deferring a correction to post-processing changes only the
    schedule (no qubit waits for feed-forward): a Pauli correction carried
    through the Clifford gates, Pauli noise and measurements that follow
    it gives the records and frame that applying it on time gives.  The
    keyword stays for callers that still pass it, the benchmark harness
    among them.

    ``read`` is None, or (sx, sz): m operators on the circuit register as
    (m, n) booleans of X and Z letters (:func:`pauli_bits`), one per seed.
    Then no frame is replayed: the result is a :class:`Readout` of the
    flips that :meth:`BatchResult.readout_flips` would read off this
    batch, drawn through the program's error map (:meth:`Program.read`).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    program = compile(circuit, noise)
    if read is None:
        return program.sample(shots, master_seed, shot_offset)
    return Readout(program.reference, program.read(*read, shots, master_seed, shot_offset))
