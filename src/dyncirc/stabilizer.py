"""Bit-packed stabilizer tableau for dynamic Clifford circuits.

:class:`StabilizerState` is a destabilizer/stabilizer tableau with the gate
set {H, S, S†, X, Y, Z, CNOT}, mid-circuit measurement (deterministic and
random outcomes), reset, and single-qubit Pauli corrections.  The 2n
generator rows are bit lanes, 64 rows per machine word, in arrays indexed
[lane word, qubit] (Stim's tableau layout, Gidney, Quantum 5, 497 (2021)):
a run of gates on disjoint qubits is a few word operations on their
gathered columns, and a layer of measurements is collapsed at once, its
pivots found by an elimination over the measured qubits' X columns and the
rows it rewrites read out of their lane words once and written back once.
It runs the reference pass of the frame program that
:func:`dyncirc.tableau.compile` emits.
"""

from __future__ import annotations

import numpy as np

from .pauli import PauliString

_U1 = np.uint64(1)

_ONE_QUBIT_CLIFFORDS = ("h", "s", "sdg", "x", "y", "z")

# Most (operators x lane words x qubits) words one expectation chunk holds
_EXPECTATION_WORDS = 1 << 18


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


# (shift, mask) of each swap stage of a 64 x 64 bit-block transpose
_TRANSPOSE_STAGES = tuple(
    (j, np.uint64(j), np.uint64(m))
    for j, m in (
        (32, 0x00000000FFFFFFFF),
        (16, 0x0000FFFF0000FFFF),
        (8, 0x00FF00FF00FF00FF),
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    )
)

# Fewest lane words (words x qubits) whose rows are transposed by 64 x 64
# bit blocks: below it, unpacking every bit to a byte is cheaper than the
# blocks' fixed cost of about forty numpy calls
_BLOCK_TRANSPOSE_WORDS = 1024

# Most columns one pass of the block transpose takes, which bounds its
# scratch to 32 x this many words
_TRANSPOSE_COLUMNS = 512

# Most rewritten rows a layer collapse keeps as ints before writing them to
# its row buffer: the next collapse of a chain reads rows the last one
# wrote, and a collapse that rewrites thousands of rows holds few at once
_CACHED_ROWS = 256

# Fewest rows a collapse multiplies by its pivot in the row buffer, all at
# once, rather than one at a time as ints: below it, the few numpy passes
# cost more than the rows' int products
_WIDE_TARGETS = 24


def _transpose64(a: np.ndarray) -> np.ndarray:
    """Transpose, in place, the 64 x 64 bit matrix of each column of the
    leading axis of ``a`` (64, ...), a contiguous uint64 array: bit b of
    word i becomes bit i of word b.  Six stages, each swapping the
    off-diagonal halves of every 2j x 2j block, on whole rows of blocks, a
    chunk of ``_TRANSPOSE_COLUMNS`` columns at a time."""
    flat = a.reshape(64, -1)
    t = np.empty((32, min(flat.shape[1], _TRANSPOSE_COLUMNS)), dtype=np.uint64)
    for c0 in range(0, flat.shape[1], _TRANSPOSE_COLUMNS):
        block = flat[:, c0 : c0 + _TRANSPOSE_COLUMNS]
        cols = block.shape[1]
        for j, s, m in _TRANSPOSE_STAGES:
            v = block.reshape(32 // j, 2, j, cols)
            lo, hi, tv = v[:, 0], v[:, 1], t[:, :cols].reshape(32 // j, j, cols)
            np.right_shift(lo, s, out=tv)
            tv ^= hi
            tv &= m
            hi ^= tv
            tv <<= s
            lo ^= tv
    return a


def _columns(qs) -> slice | list:
    """Two or more qubit indices as a slice when they step evenly upwards,
    so that columns are read and written through views, else as a list."""
    step = qs[1] - qs[0]
    if step > 0 and all(b - a == step for a, b in zip(qs, qs[1:])):
        return slice(qs[0], qs[-1] + 1, step)
    return list(qs)


def _lane_rows(lanes: np.ndarray) -> np.ndarray:
    """(2, w, n) lane words as row bytes: a new (64, 2, w, b) uint8 array
    whose [i, part, word] holds the X (part 0) or Z (part 1) letters of row
    64 word + i, 8 qubits a byte, low bit first, zero-padded to b bytes, a
    whole number of 64-bit words."""
    _, w, n = lanes.shape
    if w * n < _BLOCK_TRANSPOSE_WORDS:
        bits = np.unpackbits(lanes.view(np.uint8), bitorder="little").reshape(2, w, n, 64)
        rows = np.zeros((64, 2, w, 64 * _n_words(n)), dtype=np.uint8)
        rows[..., :n] = bits.transpose(3, 0, 1, 2)
        return np.packbits(rows, bitorder="little").reshape(64, 2, w, -1)
    full = n // 64
    rows = np.zeros((64, 2, w, _n_words(n)), dtype=np.uint64)
    rows[..., :full] = lanes[:, :, : 64 * full].reshape(2, w, full, 64).transpose(3, 0, 1, 2)
    if n % 64:
        rows[: n % 64, :, :, full] = lanes[:, :, 64 * full :].transpose(2, 0, 1)
    return _transpose64(rows).view(np.uint8)


def _row_lanes(rows: np.ndarray, lanes: np.ndarray) -> None:
    """Write row bytes laid out as :func:`_lane_rows` gives them into the
    (2, w, n) lane words ``lanes``, a view; ``rows`` is overwritten."""
    _, w, n = lanes.shape
    if w * n < _BLOCK_TRANSPOSE_WORDS:
        bits = np.unpackbits(rows, axis=3, count=n, bitorder="little").transpose(1, 2, 3, 0)
        lanes[...] = np.packbits(bits, bitorder="little").view(np.uint64).reshape(2, w, n)
        return
    full = n // 64
    words = _transpose64(rows.view(np.uint64))
    lanes[:, :, : 64 * full].reshape(2, w, full, 64)[...] = words[..., :full].transpose(1, 2, 3, 0)
    if n % 64:
        lanes[:, :, 64 * full :] = words[: n % 64, :, :, full].transpose(1, 2, 0)


def _times(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The product of two commuting Hermitian Paulis, each (X letters, Z
    letters, sign bit) with letters as bitsets.  With a row written as
    (-1)^r i^(x.z) X^x Z^z, the product is i^e times the Hermitian Pauli
    of the XORed letters, where e counts both factors' Y letters, less the
    product's, plus twice the signs and the Z-before-X pairs."""
    xa, za, ra = a
    xb, zb, rb = b
    x, z = xa ^ xb, za ^ zb
    e = (xa & za).bit_count() + (xb & zb).bit_count() - (x & z).bit_count() + 2 * (za & xb).bit_count()
    if e & 1:
        raise AssertionError("row product produced an imaginary phase")
    return x, z, ra ^ rb ^ (e >> 1) & 1


class StabilizerState:
    """Destabilizer/stabilizer tableau over ``n`` qubits, initially |0...0>.

    Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers; row i of one set
    anticommutes exactly with row i of the other.  The rows are bit lanes,
    64 to a word: ``_X[w, q]`` and ``_Z[w, q]`` hold the X and Z letters on
    qubit q of rows 64w .. 64w + 63, row i in bit i % 64 of lane word
    i // 64, and bit i % 64 of ``_r[i // 64]`` is set where row i has sign
    -1.  A gate is then a few word operations on one or two qubit columns,
    and a run of gates on disjoint qubits the same operations on gathered
    columns (:meth:`apply_gates`).  A measurement layer is collapsed at once
    (:meth:`_collapse`), a single measurement or reset being a layer of one,
    and its deterministic outcomes are read together as Z expectations
    (:meth:`bit_expectations`).  Readers that need rows in row order take
    them from :meth:`_rows`, through the collapse's own lane transpose.

    The outcome of a collapse is kept per qubit until a gate acts on that
    qubit (a Pauli with X or Y there flips it), so measuring it again costs
    no tableau pass; collapses of other qubits measure commuting operators
    and leave it valid.

    A random outcome is the ``forced`` value its measurement or reset is
    given, 0 by default: the state draws nothing itself.  A correction
    deferred to post-processing is kept by the frame replay
    (:class:`dyncirc.tableau.Program`), not by the tableau.
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

    def _rows(self) -> np.ndarray:
        """Every row's X (part 0) and Z (part 1) letters in row order, as
        (2, 2n, ceil(n/64)) words, 64 qubits a word: the lanes read out by
        :func:`_lane_rows`."""
        rows = _lane_rows(self._T).view(np.uint64)
        return rows.transpose(1, 2, 0, 3).reshape(2, -1, rows.shape[3])[:, : 2 * self.n]

    def _paulis(self, lo: int, hi: int) -> list[PauliString]:
        xs, zs = self._rows()[:, lo:hi]
        signs = int.from_bytes(self._r.tobytes(), "little") >> lo
        return [
            PauliString(self.n, *(int.from_bytes(v.tobytes(), "little") for v in (x, z)), -1 if signs >> i & 1 else 1)
            for i, (x, z) in enumerate(zip(xs, zs))
        ]

    def destabilizers(self) -> list[PauliString]:
        return self._paulis(0, self.n)

    def stabilizers(self) -> list[PauliString]:
        return self._paulis(self.n, 2 * self.n)

    # -- gates -------------------------------------------------------------

    def apply_clifford(self, gate: str, *qubits: int) -> None:
        self.apply_gates(((gate, qubits),))

    def apply_gates(self, gates) -> None:
        """Apply Clifford gates in order, each ``(name, qubits)`` as
        :meth:`apply_clifford` takes them.  Consecutive gates on disjoint
        qubits form one round, applied as one column gather and scatter per
        gate name: each gate of a round reads and writes only its own
        columns, so their sign updates XOR together."""
        n = self.n
        rounds, batch, used, touched = [], {}, set(), []
        for gate, qubits in gates:
            if gate == "cx":
                c, t = qubits
                if c == t:
                    raise ValueError("cx needs two distinct qubits")
            elif gate not in _ONE_QUBIT_CLIFFORDS or len(qubits) != 1:
                raise ValueError(f"not a supported Clifford gate: {gate!r}")
            for q in qubits:
                if not 0 <= q < n:
                    self._check(q)
            if not used.isdisjoint(qubits):
                rounds.append(batch)
                batch, used = {}, set()
            used.update(qubits)
            touched += qubits
            group = batch.get(gate)
            if group is None:
                batch[gate] = [qubits]
            else:
                group.append(qubits)
        rounds.append(batch)
        X, Z, r = self._X, self._Z, self._r
        for batch in rounds:
            for gate, qs in batch.items():
                # each operand position's qubits, as one index, a slice or a list
                cols = qs[0] if len(qs) == 1 else [_columns(v) for v in zip(*qs)]
                if gate == "cx":
                    c, t = cols
                    xc, zt = X[:, c], Z[:, t]
                    sign = xc & zt & ~(X[:, t] ^ Z[:, c])
                    X[:, t] ^= xc
                    Z[:, c] ^= zt
                else:
                    (q,) = cols
                    x, z = X[:, q], Z[:, q]
                    if gate == "h":
                        sign = x & z
                        X[:, q], Z[:, q] = z, x.copy()
                    elif gate in ("s", "sdg"):
                        sign = x & (z if gate == "s" else ~z)
                        Z[:, q] ^= x
                    else:  # a Pauli: x flips rows with Z, z those with X, y both
                        sign = z if gate == "x" else x if gate == "z" else x ^ z
                r ^= sign if sign.ndim == 1 else np.bitwise_xor.reduce(sign, axis=1)
        if self._known:
            for q in touched:
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
        branch.  It is built from the letters :meth:`_collapse` returns.
        ``forced`` is the outcome a random measurement takes (a
        deterministic one ignores it).
        """
        return self._collapse_one("measure", q, forced)

    def _collapse_one(self, name: str, q: int, forced: int) -> tuple[int, bool, PauliString | None]:
        """A layer of one ``measure`` or ``reset``, its flip an operator."""
        outcome, was_random, flip = self._collapse(((name, q, forced),))[0]
        return outcome, was_random, None if flip is None else PauliString(self.n, *flip)

    def _collapse(self, ops) -> list[tuple[int, bool, tuple[int, int] | None]]:
        """Collapse one measurement layer: ``ops`` is a sequence of (name,
        qubit, forced) in program order, each a ``measure`` or ``reset`` of
        a qubit no earlier op of the layer measures, or a one-qubit Clifford
        (``forced`` unread) on a qubit that no earlier op measures.  Returns
        (outcome, was_random, flip letters) for each measurement in turn,
        the flip as the bitsets of its X and of its Z letters, bit q for
        qubit q, and leaves the tableau bit for bit as collapsing the ops
        one layer of one at a time would.

        A random collapse of Z_q picks as pivot p the first stabilizer with
        X on q, multiplies it into every other row with X on q bar the
        destabilizer p - n, moves it to that destabilizer and becomes
        (-1)^forced Z_q; its flip is the pivot.  The layer's Cliffords act
        on columns the collapses before them do not read, so they are all
        applied first; a flip then carries the letters of the Cliffords
        after its collapse, which are undone on it (h swaps X and Z, s and
        sdg XOR X into Z).  The collapses themselves are one elimination
        over the X columns of the measured qubits (:meth:`_eliminate`).  The
        deterministic outcomes are read on the final tableau (later
        collapses measure commuting operators), all in one
        :meth:`bit_expectations` call, and a reset's X, which commutes with
        them too, is applied last."""
        known = self._known
        meas, gates, seen, touched = [], [], set(), set()
        for name, q, forced in ops:
            self._check(q)
            if q in seen:
                raise ValueError(f"qubit {q} is already measured in this layer")
            if name in ("measure", "reset"):
                seen.add(q)
                # a known outcome stands until a gate touches the qubit
                meas.append((name, q, int(forced) & 1, None if q in touched else known.get(q)))
            else:
                touched.add(q)
                gates.append((name, (q,)))
        if gates:
            self.apply_gates(gates)
        live = [i for i, m in enumerate(meas) if m[3] is None]  # outcomes the tableau decides
        found = self._eliminate([meas[i][1] for i in live], [meas[i][2] for i in live]) if live else {}
        pivots = {live[k]: letters for k, letters in found.items()}  # measurement -> its pivot's letters
        read = [i for i in live if i not in pivots]  # deterministic outcomes, read as <Z_q>
        values = {}
        if read:
            z = np.zeros((len(read), self.n), dtype=bool)
            z[np.arange(len(read)), [meas[i][1] for i in read]] = True
            signs = self.bit_expectations(np.zeros_like(z), z)
            if not signs.all():
                raise AssertionError("deterministic outcome has expectation 0")
            values = dict(zip(read, ((1 - signs) // 2).tolist()))
        out = []
        for i, (name, q, forced, value) in enumerate(meas):
            if value is None:
                value = forced if i in pivots else values[i]
            out.append((value, i in pivots, pivots.get(i)))
        back_to_zero = [("x", (q,)) for (name, q, _, _), (value, _, _) in zip(meas, out) if name == "reset" and value]
        if back_to_zero:
            self.apply_gates(back_to_zero)
        for (name, q, _, _), (value, _, _) in zip(meas, out):
            known[q] = 0 if name == "reset" else value
        if gates and pivots:
            out = self._undo_later_gates(ops, out)
        return out

    def _eliminate(self, qs: list[int], forced: list[int]) -> dict[int, tuple[int, int]]:
        """The random collapses of :meth:`_collapse` among Z on qubits
        ``qs``, in order, with outcomes ``forced``; a qubit with no
        stabilizer X on it when its turn comes is deterministic and left
        alone.  Returns the index in ``qs`` of each random one with its
        pivot's X and Z letters.

        The X columns of the measured qubits are int bitsets of rows; a
        collapse changes a later one only where its pivot has X on that
        qubit (on its targets) or its destabilizer did.  The rows the
        collapses read or write lie in the lane words that hold rows with X
        on a measured qubit and their destabilizers; only those words are
        read into a row buffer, once, and written back once.  The rows are
        multiplied in program order as (X, Z, sign) int bitsets
        (:func:`_times`), the last few hundred kept as ints, or, for a
        collapse of at least ``_WIDE_TARGETS`` targets, many at once in the
        row buffer."""
        n = self.n
        pivots: dict[int, tuple[int, int]] = {}
        X = self._X
        # every row a collapse reads or writes has X on a measured qubit,
        # or is the destabilizer of a stabilizer that does
        rows = int.from_bytes(np.bitwise_or.reduce(X[:, qs], axis=1).tobytes(), "little")
        if not rows:
            return pivots  # every outcome is deterministic
        rows |= rows >> n
        ws = np.flatnonzero(np.frombuffer(rows.to_bytes(8 * self._r.size, "little"), dtype="<u8"))
        slot = np.zeros(self._r.size, dtype=np.intp)
        slot[ws] = np.arange(ws.size)
        place = slot.tolist()  # lane word -> its place in the row buffer
        # a slice where the words are contiguous: read and written in place
        sel = slice(ws[0], ws[-1] + 1) if ws[-1] - ws[0] < ws.size else ws
        buf = _lane_rows(self._T[:, sel])
        w = ws.size
        lines = buf.view(np.uint64).reshape(64 * 2 * w, -1)  # line 2 w (t % 64) + place: row t's X letters
        size, stride = buf.shape[3], w * buf.shape[3]  # bytes a row part, a part
        letters = memoryview(buf).cast("B")
        signs = start = int.from_bytes(self._r.tobytes(), "little")  # bit t: row t's sign

        cur: dict[int, tuple[int, int, int]] = {}  # rows rewritten since the last write-out

        # row t's X letters start at byte 2 (t % 64) stride + (the place of
        # lane word t // 64) size of the row buffer, its Z letters a stride later
        def row(t: int) -> tuple[int, int, int]:
            v = cur.get(t)
            if v is None:
                k = (t & 63) * 2 * stride + place[t >> 6] * size
                x = int.from_bytes(letters[k : k + size], "little")
                v = x, int.from_bytes(letters[k + stride : k + stride + size], "little"), signs >> t & 1
            return v

        def write_out(done: dict[int, tuple[int, int, int]]) -> None:
            nonlocal signs
            for t, (x, z, sign) in done.items():
                k = (t & 63) * 2 * stride + place[t >> 6] * size
                letters[k : k + size] = x.to_bytes(size, "little")
                letters[k + stride : k + stride + size] = z.to_bytes(size, "little")
                if sign != signs >> t & 1:
                    signs ^= 1 << t

        def times_many(t: np.ndarray, v: tuple[int, int, int]) -> None:
            """Rows ``t`` times the pivot ``v``, in the row buffer: the
            product of :func:`_times` over many rows at once, on the words
            from the pivot's first letter to its last (elsewhere the pivot
            is the identity), as many words at once as ``_CACHED_ROWS``
            whole rows hold."""
            nonlocal signs
            u = v[0] | v[1]
            lo, hi = (u & -u).bit_length() - 1 >> 6, _n_words(u.bit_length())
            vx, vz = (np.frombuffer((part >> 64 * lo).to_bytes(8 * (hi - lo), "little"), dtype="<u8") for part in v[:2])
            odd = int(np.bitwise_count(vx & vz).sum()) & 3  # the pivot's Y letters, mod 4
            flipped = np.zeros(64 * self._r.size, dtype=np.uint8)
            step = _CACHED_ROWS * size // (8 * (hi - lo))
            for at in range(0, t.size, step):
                ts = t[at : at + step]
                lx = (ts & 63) * (2 * w) + slot[ts >> 6]
                lz = lx + w
                x, z = lines[lx, lo:hi], lines[lz, lo:hi]
                px, pz = x ^ vx, z ^ vz
                # _times's exponent e per row, mod 4: uint8 counts wrap mod 256
                e = np.bitwise_count(x & z)
                e += np.bitwise_count(z & vx) << 1
                e -= np.bitwise_count(px & pz)
                e = e.sum(axis=-1, dtype=np.uint8) + np.uint8(odd)
                if (e & 1).any():
                    raise AssertionError("row product produced an imaginary phase")
                lines[lx, lo:hi] = px
                lines[lz, lo:hi] = pz
                flipped[ts] = ((e >> 1) ^ v[2]) & 1
            signs ^= int.from_bytes(np.packbits(flipped, bitorder="little").tobytes(), "little")

        moved_cols: dict[int, int] = {}  # columns an earlier collapse changed
        col_of = {q: k for k, q in enumerate(qs)}
        later = 0  # the qubits measured after the current one
        for q in qs:
            later |= 1 << q
        for k, q in enumerate(qs):
            later ^= 1 << q
            c = moved_cols.pop(k, None)
            if c is None:  # the tableau is written back only after the layer
                c = int.from_bytes(X[:, q].tobytes(), "little")
            stabs = c >> n
            if not stabs:
                continue  # deterministic
            low = stabs & -stabs
            d = low.bit_length() - 1
            p, dm = n + d, 1 << d
            v = row(p)
            targets = c ^ low << n
            if targets & dm:
                targets ^= dm
            # the later measured qubits' columns change on the targets
            # where the pivot has X, and on the destabilizer
            moved, was_d = v[0] & later, row(d)[0] & later
            if moved or was_d:
                for u in _bits(moved | was_d):
                    m = col_of[u]
                    cm = moved_cols.get(m)
                    if cm is None:
                        cm = int.from_bytes(X[:, u].tobytes(), "little")
                    moved_cols[m] = (cm ^ targets ^ low << n) | dm if moved >> u & 1 else cm & ~dm
            if targets.bit_count() >= _WIDE_TARGETS:
                write_out(cur)
                cur = {}
                raw = np.frombuffer(targets.to_bytes(8 * self._r.size, "little"), dtype=np.uint8)
                times_many(np.flatnonzero(np.unpackbits(raw, bitorder="little")), v)
            else:
                for t in _bits(targets):
                    cur[t] = _times(row(t), v)
                    if len(cur) >= _CACHED_ROWS:
                        write_out(cur)
                        cur = {}
            cur[d] = v
            cur[p] = (0, 1 << q, forced[k])
            pivots[k] = v[:2]
        write_out(cur)
        letters.release()
        if isinstance(sel, slice):
            _row_lanes(buf, self._T[:, sel])
        else:
            lanes = np.empty((2, w, n), dtype=np.uint64)
            _row_lanes(buf, lanes)
            self._T[:, sel] = lanes
        if signs != start:
            self._r[:] = np.frombuffer(signs.to_bytes(8 * self._r.size, "little"), dtype="<u8")
        return pivots

    @staticmethod
    def _undo_later_gates(ops, out):
        """``out`` with each flip taken back through the layer's Cliffords
        that follow its collapse.  Walking the layer backwards, the letter
        map from a collapse's frame to the all-Cliffords-applied frame is
        kept as four qubit masks: x' = x & a ^ z & b, z' = x & c ^ z & e."""
        a, b, c, e = -1, 0, 0, -1
        res = iter(reversed(out))
        undone = []
        for name, q, _ in reversed(ops):
            if name in ("measure", "reset"):
                value, was_random, flip = next(res)
                if flip is not None:
                    x, z = flip
                    flip = ((x & a) ^ (z & b), (x & c) ^ (z & e))
                undone.append((value, was_random, flip))
            elif name == "h":
                t, u = (a ^ c) >> q & 1, (b ^ e) >> q & 1
                a, c, b, e = a ^ t << q, c ^ t << q, b ^ u << q, e ^ u << q
            elif name in ("s", "sdg"):
                c ^= a & 1 << q
                e ^= b & 1 << q
        return undone[::-1]

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
        return self._collapse((("measure", qubit, forced),))[0][0]

    def reset(self, q: int, forced: int = 0) -> tuple[int, bool, PauliString | None]:
        """Measure-then-flip so the state is stabilized by +Z on ``q``;
        returns what :meth:`measure_flip` does."""
        return self._collapse_one("reset", q, forced)

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
        X, Z = self._rows()
        gram = (
            np.bitwise_count(X[:, None, :] & Z[None, :, :]).sum(axis=2)
            + np.bitwise_count(Z[:, None, :] & X[None, :, :]).sum(axis=2)
        ) & 1
        want = np.roll(np.eye(2 * n, dtype=gram.dtype), n, axis=1)
        if not np.array_equal(gram, want):
            raise AssertionError("tableau lost its symplectic pairing")


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


def _bits(bits: int):
    """The set bits of a non-negative integer, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low
