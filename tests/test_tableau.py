"""Stabilizer engine: tableau semantics vs the dense oracle, and the
batched frame sampler's exactness/determinism contracts.

Distribution comparisons snap probabilities to the dyadic grid before
demanding exact equality: every outcome probability of a Clifford circuit is
an integer multiple of 2^-k (k = number of collapses), so snapping removes
float rounding from the dense side without hiding real disagreements.
"""

import copy
import dataclasses
import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncirc import certify
from dyncirc import circuits as C
from dyncirc import noise as N
from dyncirc import stabilizer as sb
from dyncirc import statevector as sv
from dyncirc import tableau as tb
from dyncirc.pauli import PauliString
from direct_replay import direct_sample
from known_zero import idle_reference

# gates that send |0> to each Pauli eigenstate, applied left to right
PREP = {
    ("Z", +1): (), ("Z", -1): ("x",),
    ("X", +1): ("h",), ("X", -1): ("x", "h"),
    ("Y", +1): ("h", "s"), ("Y", -1): ("x", "h", "s"),
}
EIGENSTATES = list(PREP)


def _snap_dyadic(dist, k):
    scale = float(1 << k)
    out = {}
    for key, p in dist.items():
        m = round(p * scale)
        assert abs(p * scale - m) < 1e-6, f"probability {p} not on the 2^-{k} grid"
        if m:
            out[key] = m / scale
    return out


def _exact_tvd(circ):
    k = sum(1 for i in circ.instructions if i.op in ("measure", "reset"))
    dense = _snap_dyadic(sv.outcome_distribution(sv.run_branches(circ)), k)
    stab = _snap_dyadic(tb.compile(circ).outcomes(), k)
    keys = set(dense) | set(stab)
    return 0.5 * sum(abs(dense.get(x, 0.0) - stab.get(x, 0.0)) for x in keys)


def _prefixed(circ, prep):
    """A copy of ``circ`` with (gate, qubit) pairs scheduled before time 0."""
    new = C.Circuit(circ.n_qubits, name=circ.name)
    t = -float(len(prep)) - 1.0
    for g, q in prep:
        new.add(g, q, start=t)
        t += 1.0
    new.instructions.extend(circ.instructions)
    new.n_records = circ.n_records
    return new


def _reads_plus_one(circ, stabilizers, data=None, shots=16):
    """Whether every shot of every signed operator in ``stabilizers`` (on
    the ``data`` register) reads +1 on the output of ``circ``, sampled by
    run_batch through CircuitStateSource.parities; operator k under seed k."""
    src = certify.CircuitStateSource(circ, data_qubits=data)
    got = src.parities(stabilizers, shots, np.arange(len(stabilizers)))
    signs = np.array([p.sign for p in stabilizers])
    return bool((got * signs[:, None] == 1).all())


def _with_readout(circ, basis):
    """Append basis-rotated Z measurements of the qubits in ``basis``."""
    new = copy.deepcopy(circ)
    t0 = new.makespan
    for q, letter in sorted(basis.items()):
        if letter == "X":
            new.add("h", q, start=t0)
        elif letter == "Y":
            new.add("sdg", q, start=t0)
            new.add("h", q, start=t0)
    recs = {q: new.measure(q, start=t0 + 1.0) for q in sorted(basis)}
    return new, recs


# ---------------------------------------------------------------------------
# tableau gate semantics
# ---------------------------------------------------------------------------


def test_bell_stabilizers():
    st = tb.StabilizerState(2)
    st.apply_clifford("h", 0)
    st.apply_clifford("cx", 0, 1)
    assert st.expectation(PauliString.from_text("ZZ")) == 1
    assert st.expectation(PauliString.from_text("XX")) == 1
    assert st.expectation(PauliString.from_text("-YY")) == 1
    assert st.expectation(PauliString.from_text("ZI")) == 0


def test_s_squared_is_z():
    st = tb.StabilizerState(1)
    st.apply_clifford("h", 0)
    st.apply_clifford("s", 0)
    st.apply_clifford("s", 0)
    assert st.expectation(PauliString.from_text("X")) == -1


def test_sdg_undoes_s():
    st = tb.StabilizerState(1)
    st.apply_clifford("h", 0)
    st.apply_clifford("s", 0)
    assert st.expectation(PauliString.from_text("Y")) == 1
    st.apply_clifford("sdg", 0)
    assert st.expectation(PauliString.from_text("X")) == 1


def test_gate_errors():
    st = tb.StabilizerState(2)
    with pytest.raises(ValueError, match="Clifford"):
        st.apply_clifford("t", 0)
    with pytest.raises(ValueError, match="distinct"):
        st.apply_clifford("cx", 1, 1)
    with pytest.raises(ValueError, match="range"):
        st.apply_clifford("h", 5)


def test_expectation_matches_dense_exhaustively(monkeypatch):
    """Random gate sequences, then <P> for every signed Pauli vs the dense
    state -- exercises every sign rule in the tableau, one operator at a
    time and all together in chunks of a few operators."""
    monkeypatch.setattr(sb, "_EXPECTATION_WORDS", 40)
    rng = np.random.default_rng(424243)
    gates1 = ["h", "s", "sdg", "x", "y", "z"]
    for n in (1, 2, 3, 4):
        for _ in range(6):
            st = tb.StabilizerState(n)
            psi = sv.zero_state(n)
            for _ in range(30):
                if n > 1 and rng.random() < 0.4:
                    a, b = [int(v) for v in rng.choice(n, size=2, replace=False)]
                    st.apply_clifford("cx", a, b)
                    psi = sv.apply_gate(psi, "cx", a, b)
                else:
                    g = gates1[int(rng.integers(len(gates1)))]
                    q = int(rng.integers(n))
                    st.apply_clifford(g, q)
                    psi = sv.apply_gate(psi, g, q)
            st.check_invariants()
            ps = [PauliString(n, x, z, sign) for x in range(1 << n) for z in range(1 << n) for sign in (1, -1)]
            wants = [np.vdot(psi, p.to_matrix() @ psi).real for p in ps]
            for p, want in zip(ps, wants):
                assert st.expectation(p) == pytest.approx(want, abs=1e-9)
            np.testing.assert_allclose(st.expectations(ps), wants, atol=1e-9)


def test_apply_pauli_flips_signs():
    st = tb.StabilizerState(2)
    st.apply_clifford("h", 0)
    st.apply_clifford("cx", 0, 1)
    st.apply_pauli(PauliString.from_text("XI"))  # Bell: XI anticommutes with ZZ
    assert st.expectation(PauliString.from_text("XX")) == 1
    assert st.expectation(PauliString.from_text("ZZ")) == -1


# ---------------------------------------------------------------------------
# measurement, reset, conditional corrections
# ---------------------------------------------------------------------------


def test_measure_zero_state_deterministic():
    st = tb.StabilizerState(3)
    out, was_random, flip = st.measure_flip(1)
    assert (out, was_random, flip) == (0, False, None)


def test_plus_state_measurement_is_random():
    st = tb.StabilizerState(1)
    st.apply_clifford("h", 0)
    assert st.copy().measure_flip(0)[1]
    assert st.measure(0, forced=1) == 1
    # collapsed: repeat measurement is deterministic
    assert st.measure(0) == 1


def test_bell_measurements_agree():
    rng = np.random.default_rng(11)
    for _ in range(50):
        st = tb.StabilizerState(2)
        st.apply_clifford("h", 0)
        st.apply_clifford("cx", 0, 1)
        assert st.measure(0, forced=int(rng.integers(2))) == st.measure(1, forced=int(rng.integers(2)))


def test_ghz_all_z_readout_is_all_or_nothing():
    circ, _ = _with_readout(C.ghz_unitary(6), {q: "Z" for q in range(6)})
    dist = tb.compile(circ).outcomes()
    assert dist == {(0,) * 6: pytest.approx(0.5), (1,) * 6: pytest.approx(0.5)}


def test_reset_leaves_plus_z():
    rng = np.random.default_rng(3)
    st = tb.StabilizerState(2)
    st.apply_clifford("h", 0)
    st.apply_clifford("cx", 0, 1)
    st.reset(0, forced=int(rng.integers(2)))
    assert st.expectation(PauliString.from_text("ZI")) == 1


def _same_support(a, b) -> bool:
    """Equal frame-row indices of the same form: a tuple, or an array of
    the same typecode."""
    return type(a) is type(b) and getattr(a, "typecode", None) == getattr(b, "typecode", None) and a == b


@pytest.mark.parametrize("n", [3, 70, 130])
def test_flip_operator_and_program_supports_come_from_one_collapse(n):
    """measure_flip's operator is the one built from the letter bitsets the
    reference pass emits, whose frame rows _support gives in the form of
    the operator's own letters' indices, and it maps the outcome-0 branch
    onto the outcome-1 branch."""
    rng = np.random.default_rng(n)
    st = tb.StabilizerState(n)
    for _ in range(3 * n):
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        st.apply_clifford("cx", a, b)
        st.apply_clifford(["h", "s", "x"][int(rng.integers(3))], a)
    st.measure(0, forced=1)
    qdt = np.min_scalar_type(n).char
    random = 0
    for q in range(0, n, 1 + n // 40):
        outcome, was_random, flip = st.copy().measure_flip(q, forced=0)
        assert (outcome, was_random) == st.copy()._collapse((("measure", q, 0),))[0][:2]
        reset = st.copy().reset(q, forced=0)
        assert reset[:2] == (outcome, was_random) and reset[2] == flip
        if not was_random:
            assert flip is None
            continue
        random += 1
        xb, zb = st.copy()._collapse((("measure", q, 0),))[0][2]
        assert (xb, zb) == (flip.x_bits, flip.z_bits)
        for bits, letters in ((xb, "XY"), (zb, "ZY")):
            idx = np.array([i for i in range(n) if flip.letter(i) in letters])
            assert _same_support(tb._support(bits, qdt), tb._index_support(idx, qdt))
        zero, one = st.copy(), st.copy()
        zero.measure(q, forced=0)
        zero.apply_pauli(flip)
        one.measure(q, forced=1)
        assert (zero.expectations(one.stabilizers()) == 1).all()
    assert random > 1


_LAYER_CLIFFORDS = ("h", "s", "sdg", "x", "y", "z")


def _random_state(n, rng):
    """A random stabilizer state from random gates, with a few measured
    qubits, some of them touched again afterwards."""
    state = tb.StabilizerState(n)
    for _ in range(2 * n + 2):
        a, b = (int(v) for v in rng.integers(n, size=2))
        state.apply_clifford(_LAYER_CLIFFORDS[int(rng.integers(6))], a)
        if a != b:
            state.apply_clifford("cx", a, b)
        if rng.random() < 0.15:
            state.measure(int(rng.integers(n)), forced=int(rng.integers(2)))
    return state


def _random_layer(n, rng):
    """Measurements and resets of distinct qubits with random forced
    outcomes, each after up to two one-qubit Cliffords on qubits the layer
    has not yet measured (its own or another)."""
    layer, measured = [], set()
    for q in rng.permutation(n)[: int(rng.integers(1, n + 1))]:
        for _ in range(int(rng.integers(3))):
            free = [u for u in range(n) if u not in measured]
            u = int(q) if rng.random() < 0.5 else free[int(rng.integers(len(free)))]
            layer.append((_LAYER_CLIFFORDS[int(rng.integers(6))], u, 0))
        layer.append(("measure" if rng.random() < 0.6 else "reset", int(q), int(rng.integers(2))))
        measured.add(int(q))
    return layer


def _textbook_layer(rows, n, layer):
    """The layer run one op at a time on the signed generators as
    PauliStrings (destabilizers, then stabilizers): a gate conjugates every
    row; a random Z_q collapse takes the first stabilizer with X on q,
    multiplies it into every other row with X on q bar its destabilizer,
    moves it there and becomes (-1)^forced Z_q; a deterministic outcome is
    the sign of the product of the stabilizers whose destabilizers have X
    on q; a reset's outcome 1 is undone by X_q.  Returns the final rows and
    (outcome, was_random, flip letters) per measurement."""
    out = []
    for name, q, forced in layer:
        if name not in ("measure", "reset"):
            rows = [r.conjugated(name, q) for r in rows]
            continue
        pivot = next((i for i in range(n, 2 * n) if rows[i].x_bit(q)), None)
        if pivot is None:
            prod = PauliString(n)
            for i in range(n):
                if rows[i].x_bit(q):
                    prod = prod * rows[n + i]
            assert prod.mod_phase() == PauliString.single(n, q, "Z")
            value, flip = int(prod.sign < 0), None
        else:
            p = rows[pivot]
            rows = [p * r if i not in (pivot, pivot - n) and r.x_bit(q) else r for i, r in enumerate(rows)]
            rows[pivot - n] = p
            rows[pivot] = PauliString.single(n, q, "Z", -1 if forced else 1)
            value, flip = forced, (p.x_bits, p.z_bits)
        if name == "reset" and value:
            rows = [r.conjugated("x", q) for r in rows]
        out.append((value, pivot is not None, flip))
    return rows, out


def _check_layer(state, layer):
    """The layer collapsed at once equals, bit for bit, one call per op,
    and the textbook collapse of the same rows."""
    n = state.n
    batched = state.copy()
    got = batched._collapse(layer)
    seq, want = state.copy(), []
    for name, q, forced in layer:
        if name in ("measure", "reset"):
            want.append(seq._collapse(((name, q, forced),))[0])
        else:
            seq.apply_clifford(name, q)
    assert got == want
    np.testing.assert_array_equal(batched._T, seq._T)
    np.testing.assert_array_equal(batched._r, seq._r)
    assert batched._known == seq._known
    batched.check_invariants()
    rows, ref = _textbook_layer(state.destabilizers() + state.stabilizers(), n, layer)
    assert ref == got
    assert rows == batched.destabilizers() + batched.stabilizers()


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_batched_layer_matches_sequential_collapses(n, seed):
    """A random layer of random and deterministic measurements and resets,
    with Cliffords between them, on a random state."""
    rng = np.random.default_rng(seed)
    _check_layer(_random_state(n, rng), _random_layer(n, rng))


@pytest.mark.parametrize("wide_targets", [1, 10**9], ids=["rows-at-once", "rows-as-ints"])
@pytest.mark.parametrize("block_words", [0, 10**9], ids=["64x64-blocks", "unpacked-bits"])
def test_batched_layer_matches_sequential_collapses_through_either_transpose(block_words, wide_targets, monkeypatch):
    """The same check on wider registers, with the kernel's rows read and
    written through each of the two lane transposes, and multiplied by
    their pivots in the row buffer or one at a time as ints, three rows at
    a time in either case."""
    monkeypatch.setattr(sb, "_BLOCK_TRANSPOSE_WORDS", block_words)
    monkeypatch.setattr(sb, "_WIDE_TARGETS", wide_targets)
    monkeypatch.setattr(sb, "_CACHED_ROWS", 3)
    for seed, n in enumerate((3, 64, 65, 130)):
        rng = np.random.default_rng(seed)
        _check_layer(_random_state(n, rng), _random_layer(n, rng))
    # rows in lane words 0, 2, 3 and 5 only: the kernel reads and writes
    # those words and leaves the others alone
    sparse = tb.StabilizerState(200)
    for g, *qs in (("h", 5), ("h", 150), ("cx", 150, 199), ("h", 70)):
        sparse.apply_clifford(g, *qs)
    _check_layer(sparse, [("measure", 5, 1), ("h", 199, 0), ("measure", 150, 1), ("reset", 199, 0), ("reset", 3, 0)])


@pytest.mark.parametrize("words, n", [(1, 1), (1, 30), (2, 65), (4, 128), (3, 700), (17, 100)])
def test_lane_row_transposes_agree_and_invert(words, n, monkeypatch):
    """Both transposes put row 64 w + i's letter on qubit q in bit q of
    [i, part, w] of the row bytes, where the lanes hold it in bit i of word
    w, and both write the rows back into the lanes unchanged."""
    lanes = np.random.default_rng(n).integers(0, 2**63, size=(2, words, n), dtype=np.uint64)
    lanes[0, 0, 0] |= np.uint64(1) << np.uint64(63)
    want = np.unpackbits(lanes.view(np.uint8), bitorder="little").reshape(2, words, n, 64).transpose(3, 0, 1, 2)
    for block_words in (0, 10**9):
        monkeypatch.setattr(sb, "_BLOCK_TRANSPOSE_WORDS", block_words)
        rows = sb._lane_rows(lanes)
        bits = np.unpackbits(rows, axis=3, bitorder="little")
        np.testing.assert_array_equal(bits[..., :n], want)
        assert not bits[..., n:].any()
        back = np.zeros_like(lanes)
        sb._row_lanes(rows, back)
        np.testing.assert_array_equal(back, lanes)


def test_gate_rounds_match_one_gate_at_a_time():
    """apply_gates on runs that repeat qubits, step evenly or not, and mix
    every gate equals one apply_clifford per gate."""
    rng = np.random.default_rng(11)
    for n in (2, 5, 70, 130):
        ref = _random_state(n, rng)
        batched = ref.copy()
        for _ in range(6):
            gates = []
            for _ in range(int(rng.integers(1, 2 * n))):
                if n > 1 and rng.random() < 0.4:
                    gates.append(("cx", tuple(int(v) for v in rng.choice(n, size=2, replace=False))))
                else:
                    gates.append((_LAYER_CLIFFORDS[int(rng.integers(6))], (int(rng.integers(n)),)))
            gates += [("h", (q,)) for q in range(0, n, 2)] + [("cx", (q, q + 1)) for q in range(1, n - 1, 2)]
            batched.apply_gates(gates)
            for g, qs in gates:
                ref.apply_clifford(g, *qs)
            np.testing.assert_array_equal(batched._T, ref._T)
            np.testing.assert_array_equal(batched._r, ref._r)
            assert batched._known == ref._known
    with pytest.raises(ValueError, match="distinct"):
        batched.apply_gates([("h", (0,)), ("cx", (1, 1))])
    np.testing.assert_array_equal(batched._T, ref._T)


@pytest.mark.parametrize("build", [C.ghz_dynamic, C.long_range_cnot_dynamic], ids=["ghz", "cnot"])
def test_reference_pass_collapses_once_per_measurement_layer(build, monkeypatch):
    """Each chain measures its ancillas in one layer and resets them in
    another, so the reference pass calls the collapse kernel twice at any
    length, and every measurement and reset goes through those two calls."""
    calls = []
    kernel = tb.StabilizerState._collapse

    def counted(self, ops):
        calls.append(sum(op[0] in ("measure", "reset") for op in ops))
        return kernel(self, ops)

    monkeypatch.setattr(tb.StabilizerState, "_collapse", counted)
    for n in (400, 800):
        circ = build(n)
        calls.clear()
        tb.compile(circ)
        assert len(calls) == 2
        assert sum(calls) == sum(ins.op in ("measure", "reset") for ins in circ.instructions) >= n - 2


def test_teleportation_all_six_eigenstates():
    c = C.Circuit(3)
    c.add("h", 1, start=0.0)
    c.add("cx", 1, 2, start=1.0)
    c.add("cx", 0, 1, start=2.0)
    c.add("h", 0, start=3.0)
    r0 = c.measure(0, start=4.0)
    r1 = c.measure(1, start=4.0)
    c.add("cpauli", 2, start=5.0, pauli="X", parity=(r1,))
    c.add("cpauli", 2, start=5.0, pauli="Z", parity=(r0,))
    for (letter, sign) in EIGENSTATES:
        circ = _prefixed(c, [(g, 0) for g in PREP[(letter, sign)]])
        assert _reads_plus_one(circ, [PauliString.single(1, 0, letter, sign)], data=(2,))


# ---------------------------------------------------------------------------
# symplectic invariants under random instruction streams
# ---------------------------------------------------------------------------


def test_invariants_hold_after_every_instruction():
    """Registers up to 70 qubits, so the 2n generator rows fill one to
    three lane words and collapses cross word boundaries."""
    rng = np.random.default_rng(20260815)
    gates1 = ["h", "s", "sdg", "x", "y", "z"]
    checked = 0
    for _ in range(25):
        n = int(rng.integers(2, 71))
        st = tb.StabilizerState(n)
        for _ in range(400):
            roll = rng.random()
            if roll < 0.50:
                g = gates1[int(rng.integers(len(gates1)))]
                st.apply_clifford(g, int(rng.integers(n)))
            elif roll < 0.70:
                a, b = [int(v) for v in rng.choice(n, size=2, replace=False)]
                st.apply_clifford("cx", a, b)
            elif roll < 0.85:
                st.measure(int(rng.integers(n)), forced=int(rng.integers(2)))
            elif roll < 0.93:
                st.reset(int(rng.integers(n)), forced=int(rng.integers(2)))
            else:
                x, z = (int.from_bytes(rng.bytes(9), "little") % (1 << n) for _ in range(2))
                st.apply_pauli(PauliString(n, x, z))
            st.check_invariants()
            checked += 1
    assert checked >= 10_000


def _product_reference(st: tb.StabilizerState, p: PauliString) -> int:
    """<p> from the row-order product of ``PauliString`` rows, apart from
    the engine's lane kernel: 0 when some stabilizer anticommutes with p,
    otherwise the sign with which the product of the stabilizers whose
    destabilizers anticommute with p reproduces p."""
    stabs = st.stabilizers()
    if not all(s.commutes(p) for s in stabs):
        return 0
    prod = PauliString(st.n)
    for d, s in zip(st.destabilizers(), stabs):
        if not d.commutes(p):
            prod = prod * s
    assert prod.mod_phase() == p.mod_phase()
    return prod.sign * p.sign


def test_deterministic_outcomes_match_stabilizer_expectations():
    """A deterministic Z_q outcome is a signed product of stabilizers, read
    lane-parallel; :func:`_product_reference` forms the same product from
    the row-major ``PauliString`` rows.  Random Clifford states of up to 70
    qubits, with some qubits collapsed so that others become determined."""
    rng = np.random.default_rng(5150)
    gates1 = ["h", "s", "sdg", "x", "y", "z"]
    checked = 0
    for _ in range(30):
        n = int(rng.integers(2, 71))
        st = tb.StabilizerState(n)
        for _ in range(6 * n):
            if rng.random() < 0.5:
                a, b = [int(v) for v in rng.choice(n, size=2, replace=False)]
                st.apply_clifford("cx", a, b)
            else:
                st.apply_clifford(gates1[int(rng.integers(len(gates1)))], int(rng.integers(n)))
        for q in rng.choice(n, size=n // 2, replace=False):
            st.measure(int(q), forced=int(rng.integers(2)))
            st.apply_clifford(gates1[int(rng.integers(len(gates1)))], int(q))
        for q in range(n):
            if not st.copy().measure_flip(q)[1]:
                want = (1 - _product_reference(st, PauliString.single(n, q, "Z"))) // 2
                assert st.copy().measure(q) == want
                checked += 1
    assert checked >= 300


@pytest.mark.parametrize("n", [4, 7, 12, 130])
def test_full_register_readout_reads_deterministic_outcomes_at_once(n, monkeypatch):
    """Measuring every qubit after a GHZ chain is one layer with one random
    outcome and n - 1 deterministic ones.  Its collapse reads all n - 1 in
    a single bit_expectations call, and the record distribution is the
    dense oracle's."""
    circ = C.ghz_dynamic(n)
    t = circ.makespan
    for q in range(n):
        circ.measure(q, start=t + 1.0)
    layers = []  # per collapse: the operators of each bit_expectations call it makes
    kernel, read = tb.StabilizerState._collapse, tb.StabilizerState.bit_expectations

    def collapse(self, ops):
        layers.append([])
        return kernel(self, ops)

    def bit_expectations(self, x, z):
        layers[-1].append(x.shape[0])
        return read(self, x, z)

    monkeypatch.setattr(tb.StabilizerState, "_collapse", collapse)
    monkeypatch.setattr(tb.StabilizerState, "bit_expectations", bit_expectations)
    program = tb.compile(circ)
    assert layers[-1] == [n - 1]
    assert sum(program.ref_bits[-n:]) == 0  # the reference pins the random outcome to 0
    if n <= 12:
        assert _exact_tvd(circ) == 0


@pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65, 130])
def test_expectations_match_the_product_reference_at_lane_word_boundaries(n):
    """Lane words hold 64 rows and the 2n rows split at n, so these sizes
    put the destabilizer/stabilizer split and the last lane on either side
    of a word boundary.  After random Clifford gates and forced
    measurements, signed products of random stabilizer subsets, random
    operators and every Z_q read what :func:`_product_reference` reads."""
    rng = np.random.default_rng(n)
    gates1 = ["h", "s", "sdg", "x", "y", "z"]
    st = tb.StabilizerState(n)
    for _ in range(4 * n):
        if rng.random() < 0.5:
            a, b = [int(v) for v in rng.choice(n, size=2, replace=False)]
            st.apply_clifford("cx", a, b)
        else:
            st.apply_clifford(gates1[int(rng.integers(len(gates1)))], int(rng.integers(n)))
    for q in rng.choice(n, size=n // 3, replace=False):
        st.measure(int(q), forced=int(rng.integers(2)))
    stabs = st.stabilizers()
    ops = []
    for _ in range(8):
        p = PauliString(n)
        for s in stabs:
            if rng.random() < 0.3:
                p = p * s
        ops.append(p if rng.random() < 0.5 else -p)
    for _ in range(8):
        x, z = (int.from_bytes(rng.bytes(17), "little") % (1 << n) for _ in range(2))
        ops.append(PauliString(n, x, z, -1 if rng.random() < 0.5 else 1))
    ops += [PauliString.single(n, q, "Z") for q in range(n)]
    want = [_product_reference(st, p) for p in ops]
    assert st.expectations(ops).tolist() == want
    assert {abs(w) for w in want} == {0, 1}


def test_invariant_checker_catches_corruption():
    st = tb.StabilizerState(3)
    # row 3 is lane 3 of lane word 0; setting its X letter on qubit 1 makes
    # stabilizer Z_0 into Z_0 X_1, which breaks the pairing
    st._X[0, 1] ^= np.uint64(1 << 3)
    with pytest.raises(AssertionError, match="symplectic"):
        st.check_invariants()


# ---------------------------------------------------------------------------
# dense vs stabilizer: exact distribution agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
def test_dynamic_cnot_distributions_match_dense(n, mode):
    circ = C.long_range_cnot_dynamic(n, mu=1.0, mode=mode)
    assert _exact_tvd(circ) == 0.0


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 10])
def test_ghz_dynamic_distributions_match_dense(n, mode):
    circ = C.ghz_dynamic(n, mu=1.0, mode=mode)
    assert _exact_tvd(circ) == 0.0


def _random_circuits():
    """40 random dynamic Clifford circuits on 2..5 qubits with up to 7
    collapses."""
    rng = np.random.default_rng(77812)
    gates1 = ["h", "s", "sdg", "x", "y", "z"]
    for rep in range(40):
        n = int(rng.integers(2, 6))
        circ = C.Circuit(n, name=f"rand{rep}")
        t = 0.0
        collapses = 0
        for _ in range(18):
            roll = rng.random()
            if roll < 0.18 and collapses < 7:
                circ.measure(int(rng.integers(n)), start=t)
                collapses += 1
            elif roll < 0.26 and collapses < 7:
                circ.add("reset", int(rng.integers(n)), start=t)
                collapses += 1
            elif roll < 0.38 and circ.n_records:
                size = min(int(rng.integers(1, 4)), circ.n_records)
                recs = tuple(
                    int(v) for v in rng.choice(circ.n_records, size=size, replace=False)
                )
                letter = "XZ"[int(rng.integers(2))]
                circ.add("cpauli", int(rng.integers(n)), start=t, pauli=letter, parity=recs)
            elif roll < 0.60 and n > 1:
                a, b = [int(v) for v in rng.choice(n, size=2, replace=False)]
                circ.add("cx", a, b, start=t)
            else:
                circ.add(gates1[int(rng.integers(len(gates1)))], int(rng.integers(n)), start=t)
            t += 1.0
        circ.validate()
        yield circ


def test_random_circuit_distributions_match_dense():
    for circ in _random_circuits():
        assert _exact_tvd(circ) == 0.0


def test_random_circuit_probabilities_are_exact_multiples_of_two_to_the_minus_k():
    """k is the number of random collapses the compiled program draws a coin
    for; no rounding enters, so the probabilities sum to exactly 1."""
    for circ in _random_circuits():
        program = tb.compile(circ)
        k = program.streams.size
        dist = program.outcomes()
        assert all(p > 0 and (p * 2**k).is_integer() for p in dist.values())
        assert sum(dist.values()) == 1.0


# one touch of qubit 0 between two measurements of it: qubit 0 is half of a
# Bell pair with qubit 1, qubit 2 is a measured |+> whose record conditions
# the cpauli, and qubit 3 is a |+> that cx can entangle with qubit 0
_TOUCHES = {
    "x": ("x", 0),
    "y": ("y", 0),
    "h": ("h", 0),
    "s": ("s", 0),
    "cx_control": ("cx", 0, 3),
    "cx_target": ("cx", 3, 0),
    "cpauli_X": ("cpauli", "X"),
    "cpauli_Z": ("cpauli", "Z"),
    "reset": ("reset", 0),
}


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("touch", list(_TOUCHES))
def test_remeasurement_after_one_touch_matches_dense(touch, mode):
    """A collapse's outcome is reused for the next measurement of the same
    qubit only while nothing has touched it: each kind of touch must give
    the dense distribution, and every sampled record must be possible, in
    either schedule."""
    c = C.Circuit(4)
    c.meta = {"mode": mode}
    for q in (0, 2, 3):
        c.add("h", q, start=0.0)
    c.add("cx", 0, 1, start=1.0)
    r2 = c.measure(2, start=3.0)
    c.measure(0, start=4.0)
    op, *args = _TOUCHES[touch]
    if op == "cpauli":
        c.add("cpauli", 0, start=5.0, pauli=args[0], parity=(r2,))
    else:
        c.add(op, *args, start=5.0)
    c.measure(0, start=6.0)
    c.measure(1, start=7.0)
    c.measure(3, start=7.0)
    c.validate()
    assert _exact_tvd(c) == 0.0
    exact = tb.compile(c).outcomes()
    sampled = tb.run_batch(c, 256, master_seed=3, mode=mode).records
    assert all(exact.get(tuple(int(b) for b in row), 0.0) > 0 for row in sampled)


def test_remeasurement_follows_applied_paulis():
    st = tb.StabilizerState(2)
    st.apply_clifford("h", 0)
    st.apply_clifford("cx", 0, 1)
    assert st.measure(0, forced=1) == 1
    for letter, want in (("X", 0), ("Z", 0), ("Y", 1)):
        st.apply_pauli(PauliString.single(2, 0, letter))
        assert not st.copy().measure_flip(0)[1]
        assert st.measure(0) == want
        assert st.copy().measure(0) == want
    assert st.measure(1) == 1  # the partner was never touched


def test_post_process_equals_feed_forward_across_builders():
    for circ_ff, circ_pp in [
        (C.long_range_cnot_dynamic(5, mu=1.0), C.long_range_cnot_dynamic(5, mu=1.0, mode="post_process")),
        (C.ghz_dynamic(8, mu=1.0), C.ghz_dynamic(8, mu=1.0, mode="post_process")),
        (C.ghz_dynamic(7, mu=1.0), C.ghz_dynamic(7, mu=1.0, mode="post_process")),
    ]:
        k = sum(1 for i in circ_ff.instructions if i.op in ("measure", "reset"))
        ff = _snap_dyadic(tb.compile(circ_ff).outcomes(), k)
        pp = _snap_dyadic(tb.compile(circ_pp).outcomes(), k)
        assert ff == pp


def test_reset_absorbs_a_deferred_correction():
    """h 0; measure 0 -> r0; X on 1 if r0; reset 1; measure 1 -> r1.  The
    reset leaves qubit 1 in |0> whether the correction came before it or
    was deferred past it, so r1 is 0 on every shot in either schedule, as
    the dense oracle says."""
    c = C.Circuit(2)
    c.add("h", 0, start=0.0)
    r0 = c.measure(0, start=0.0)
    c.add("cpauli", 1, start=1.0, pauli="X", parity=(r0,))
    c.add("reset", 1, start=1.0)
    r1 = c.measure(1, start=2.0)
    dense = sv.outcome_distribution(sv.run_branches(c))
    assert dense.keys() == {(0, 0), (1, 0)} and all(abs(p - 0.5) < 1e-12 for p in dense.values())
    assert tb.compile(c).outcomes() == {(0, 0): 0.5, (1, 0): 0.5}
    for mode in C.MODES:
        records = tb.run_batch(c, 256, master_seed=4, mode=mode).records
        assert not records[:, r1].any()
        assert records[:, r0].any()


def test_run_batch_takes_only_the_builders_modes():
    circ = C.ghz_dynamic(4)
    want = tb.run_batch(circ, 64, master_seed=2)
    for mode in C.MODES:
        np.testing.assert_array_equal(tb.run_batch(circ, 64, master_seed=2, mode=mode).records, want.records)
    with pytest.raises(ValueError, match="unknown mode 'noiseless'"):
        tb.run_batch(circ, 64, master_seed=2, mode="noiseless")


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
def test_enumerate_outcomes_without_records_or_coins(mode):
    c = C.Circuit(1)
    c.meta = {"mode": mode}
    assert tb.compile(c).outcomes() == {(): 1.0}
    # a random collapse with no record: both coin values give the empty record
    c = C.Circuit(2)
    c.meta = {"mode": mode}
    c.add("h", 0, start=0.0)
    c.add("cx", 0, 1, start=0.0)
    c.add("reset", 0, start=1.0)
    assert tb.compile(c).outcomes() == {(): 1.0}
    # every collapse deterministic (k = 0), with a correction that fires
    c = C.Circuit(2)
    c.meta = {"mode": mode}
    c.add("x", 0, start=0.0)
    r0 = c.measure(0, start=1.0)
    c.measure(1, start=1.0)
    c.add("cpauli", 1, start=2.0, pauli="X", parity=(r0,))
    c.measure(1, start=3.0)
    program = tb.compile(c)
    assert program.streams.size == 0
    assert program.outcomes() == {(1, 0, 1): 1.0}


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("gate, qubits", [("t", (0,)), ("ccz", (0, 1, 2))])
def test_enumerate_outcomes_rejects_non_clifford_gates(gate, qubits, mode):
    c = C.Circuit(3)
    c.meta = {"mode": mode}
    c.add(gate, *qubits, start=0.0)
    c.measure(0, start=1.0)
    with pytest.raises(ValueError, match="not stabilizer-simulable"):
        tb.compile(c).outcomes()
    with pytest.raises(ValueError, match="not stabilizer-simulable"):
        tb.run_batch(c, 1, mode=mode)


# ---------------------------------------------------------------------------
# large-size input/output checks (beyond dense reach)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [16, 32])
def test_dynamic_cnot_eigenstate_io_large(n):
    """Every prepared eigenstate pair comes out as CNOT of it, ancillas back
    in |0>: each generator of that whole-register state reads +1 on every
    shot."""
    control, target = 0, n + 1
    for mode in ("feed_forward", "post_process"):
        circ = C.long_range_cnot_dynamic(n, mu=1.0, mode=mode)
        for (lc, sc) in EIGENSTATES:
            for (lt, st_) in EIGENSTATES:
                prep = [(g, control) for g in PREP[(lc, sc)]]
                prep += [(g, target) for g in PREP[(lt, st_)]]
                ref = tb.StabilizerState(circ.n_qubits)
                for g, q in prep:
                    ref.apply_clifford(g, q)
                ref.apply_clifford("cx", control, target)
                assert _reads_plus_one(
                    _prefixed(circ, prep), ref.stabilizers()
                ), f"mismatch on input {lc}{sc:+d},{lt}{st_:+d} ({mode})"


def test_ghz_dynamic_large_stabilizer_check():
    n = 101
    gens = [PauliString(n, (1 << n) - 1, 0)] + [PauliString(n, 0, 0b11 << i) for i in range(n - 1)]
    for mode in ("feed_forward", "post_process"):
        assert _reads_plus_one(C.ghz_dynamic(n, mu=1.0, mode=mode), gens)


# ---------------------------------------------------------------------------
# batched sampler
# ---------------------------------------------------------------------------


def test_run_shots_deterministic_and_shardable():
    circ = C.long_range_cnot_dynamic(4, mu=1.0)
    full = tb.run_batch(circ, 96, master_seed=123)
    again = tb.run_batch(circ, 96, master_seed=123)
    assert np.array_equal(full.records, again.records)
    parts = [tb.run_batch(circ, k, master_seed=123, shot_offset=o)
             for k, o in ((32, 0), (32, 32), (32, 64))]
    assert np.array_equal(full.records, np.vstack([p.records for p in parts]))
    other = tb.run_batch(circ, 96, master_seed=124)
    assert not np.array_equal(full.records, other.records)


def test_plus_state_statistics():
    circ = C.Circuit(1)
    circ.add("h", 0, start=0.0)
    circ.measure(0, start=1.0)
    res = tb.run_batch(circ, 100_000, master_seed=5)
    mean = res.records.mean()
    sigma = 0.5 / np.sqrt(100_000)
    assert abs(mean - 0.5) < 5 * sigma


def test_sampler_matches_enumeration():
    """Empirical frequencies from the frame sampler vs the exact record
    distribution, within 5 sigma per outcome."""
    circ = C.ghz_dynamic(6, mu=1.0)
    shots = 20_000
    res = tb.run_batch(circ, shots, master_seed=17)
    exact = tb.compile(circ).outcomes()
    seen = {}
    for row in res.records:
        seen[tuple(row.tolist())] = seen.get(tuple(row.tolist()), 0) + 1
    assert set(seen) <= set(exact)
    for key, p in exact.items():
        got = seen.get(key, 0) / shots
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(got - p) < 5 * sigma + 1e-12


def test_noiseless_ghz_run_shots_all_stabilizers():
    n = 6
    base = C.ghz_dynamic(n, mu=1.0)
    gens = [PauliString(n, (1 << n) - 1, 0)] + [
        PauliString(n, 0, 0b11 << i) for i in range(n - 1)
    ]
    for mask in range(1, 1 << n):
        stab = PauliString(n)
        for i in range(n):
            if (mask >> i) & 1:
                stab = stab * gens[i]
        basis = {q: stab.letter(q) for q in stab.support}
        circ, recs = _with_readout(base, basis)
        res = tb.run_batch(circ, 40, master_seed=mask)
        cols = [base.n_records + j for j in range(len(basis))]
        signs = 1 - 2 * (res.records[:, cols].astype(int).sum(axis=1) % 2)
        assert (signs * stab.sign == 1).all()


def test_run_shots_io_eigenstates_n5():
    circ = C.long_range_cnot_dynamic(5, mu=1.0)
    control, target = 0, 6
    cnot = sv.cnot_matrix()
    for pair_id, ((lc, sc), (lt, st_)) in enumerate(
        (a, b) for a in EIGENSTATES for b in EIGENSTATES
    ):
        prep = [(g, control) for g in PREP[(lc, sc)]]
        prep += [(g, target) for g in PREP[(lt, st_)]]
        # ideal output expectations for the prepared pair under CNOT
        pin = sc * np.kron(
            PauliString.single(1, 0, lc).to_matrix(), np.eye(2)
        ) + st_ * np.kron(np.eye(2), PauliString.single(1, 0, lt).to_matrix())
        pout = cnot @ pin @ cnot.conj().T
        wrapped = _prefixed(circ, prep)
        for pauli_2q, want in _two_qubit_expectations(pout):
            basis = {
                (control, target)[j]: pauli_2q.letter(j)
                for j in pauli_2q.support
            }
            ro, _ = _with_readout(wrapped, basis)
            res = tb.run_batch(ro, 24, master_seed=1000 + pair_id)
            cols = [wrapped.n_records + j for j in range(len(basis))]
            signs = 1 - 2 * (res.records[:, cols].astype(int).sum(axis=1) % 2)
            assert (signs == want).all()


def _two_qubit_expectations(obs):
    """Split a sum of two single-qubit Paulis conjugated by CNOT into its
    (necessarily deterministic) Pauli components with +/-1 expectations."""
    out = []
    for x in range(4):
        for z in range(4):
            if x == 0 and z == 0:
                continue
            p = PauliString(2, x, z)
            coeff = np.trace(obs @ p.to_matrix()).real / 4.0
            if abs(coeff) > 0.5:
                out.append((p, int(round(coeff))))
    assert out, "observable decomposed to nothing"
    return out


def _bits(words, shots):
    """(rows, shots) 0/1 array of qubit-major packed rows: column s is shot s."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=shots, bitorder="little")


def _fired_bits(res):
    """(sites, shots) 0/1 array: where each noise site fired."""
    return _bits(res.fired, res.shots)


def _frame_bits(res):
    """(rows, shots) 0/1 arrays of the frame columns fx and fz."""
    return [_bits(w, res.shots) for w in (res.fx, res.fz)]


def _shot_frame(res, s):
    """Shot s's end frame, sign-free, read off column s of fx/fz."""

    def letters(words):
        return int.from_bytes(np.packbits(_bits(words, res.shots)[:, s], bitorder="little").tobytes(), "little")

    return PauliString(res.reference.n, letters(res.fx), letters(res.fz))


def test_batch_rows_parse_without_noise():
    circ = C.ghz_dynamic(4, mu=1.0, mode="post_process")
    res = tb.run_batch(circ, 3, master_seed=9)
    for s in range(res.shots):
        frame = _shot_frame(res, s)
        doc = json.loads(json.dumps({"bits": res.records[s].tolist(), "frame": str(frame)}))
        assert doc["bits"] == res.records[s].tolist()
        assert PauliString.from_text(doc["frame"]).key() == frame.key()
    assert res.fired.shape == (0, 1) and res.sites == []


def test_counter_random_stream_vector_matches_scalar_draws():
    ids = np.arange(5, 75, dtype=np.uint64)
    sids = np.array([0, 7, tb._NOISE_STREAM_BASE + 3], dtype=np.uint64)
    for seed in (11, [11, 2**63 - 5, 0]):
        rnd = tb.CounterRandom(seed)
        want = np.stack([rnd.uniform(int(s), ids) for s in sids])
        np.testing.assert_array_equal(rnd.uniform(sids, ids), want)


# firing weights at the edges of the integer threshold ceil(w * 2^53):
# never, the smallest positive double, one and one and a half units of the
# 53-bit draw, dyadic, a collapse coin, just below one, always
_KERNEL_WEIGHTS = [0.0, 5e-324, 2.0**-53, 3 * 2.0**-54, 0.25, 0.5, float(np.nextafter(1.0, 0.0)), 1.0]


@pytest.mark.parametrize("draw_values", [None, 100], ids=["default-chunks", "small-chunks"])
@pytest.mark.parametrize("seed", [5, [3, 2**63 - 5, 0], list(range(50))], ids=["int", "3-seeds", "50-seeds"])
def test_fired_kernel_matches_float_draws(seed, draw_values, monkeypatch):
    """The packed fired rows of the integer kernel are bit for bit the
    float rule ``uniform < w``, under one seed and under several, whose
    blocks of shots meet inside a packed word; small chunks split the
    streams over many passes."""
    if draw_values is not None:
        monkeypatch.setattr(tb, "_DRAW_VALUES", draw_values)
    circ = C.Circuit(1)
    circ.measure(0, start=0.0)
    x = PauliString.from_text("X")
    program = tb.compile(circ, [_site(0, x, w) for w in _KERNEL_WEIGHTS])
    k = program.thresholds
    assert k.tolist() == [0, 1, 1, 2, 2**51, 2**52, 2**53 - 1, 2**53]
    rnd = tb.CounterRandom(seed)
    for shots in (0, 1, 63, 64, 65, 1000, 1024):
        for offset in (0, 7, 2**64 - max(shots, 1)):  # the last ids there are
            ids = np.arange(shots, dtype=np.uint64) + np.uint64(offset)
            u = rnd.uniform(program.streams, ids).reshape(len(_KERNEL_WEIGHTS), -1)
            weights = np.array(_KERNEL_WEIGHTS)
            streams, thresholds = program.streams, k
            if shots:
                # stream 3 once more, weighted by its own first draw: a tie,
                # which fires on neither side
                tie = float(u[3, 0])
                streams = np.append(streams, streams[3])
                thresholds = np.append(k, np.uint64(math.ceil(tie * 2.0**53)))
                u = np.vstack([u, u[3]])
                weights = np.append(weights, tie)
            want = sb._pack_rows(u < weights[:, None])
            got = rnd.fired(streams, thresholds, ids)
            assert got.dtype == np.uint64
            np.testing.assert_array_equal(got, want, err_msg=f"{shots} shots from {offset}")
            if shots:
                assert not got[0].any() and _bits(got[-2:-1], u.shape[1]).all() and not got[-1, 0] & 1


_EDGE_SEEDS = [
    0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64, 2**100 + 7,
    2**128 - 1, 2**128, 2**128 + 1, 2**200 + 12345, 3**150,
]


def _seed_sequence_key(seed):
    k = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(k[0] ^ tb._mix_u64(k[1:])[0])


def test_seed_keys_match_seed_sequence():
    """All keys of a seed sequence are derived in one pass; each must be the
    key numpy's SeedSequence gives that seed alone, seeds wider than the
    four-word pool included."""
    rng = np.random.default_rng(77)
    wide = [int.from_bytes(rng.bytes(int(b)), "little") for b in rng.integers(1, 41, size=400)]
    narrow = [int(s) for s in rng.integers(0, 2**63, size=600)]
    for seeds in (_EDGE_SEEDS, wide + narrow, [5], []):
        assert tb._seed_keys(seeds).tolist() == [_seed_sequence_key(s) for s in seeds]
    arr = rng.integers(0, 2**63, size=64, dtype=np.uint64)
    assert tb._seed_keys(arr).tolist() == [_seed_sequence_key(int(s)) for s in arr]
    assert tb._seed_keys(arr.astype(np.int64)).tolist() == tb._seed_keys(arr).tolist()
    # a single seed draws what it draws as a one-seed sequence
    ids = np.arange(40, dtype=np.uint64)
    for seed in _EDGE_SEEDS:
        one = tb.CounterRandom(seed).uniform(3, ids)
        np.testing.assert_array_equal(one, tb.CounterRandom([seed]).uniform(3, ids)[0])


@pytest.mark.parametrize("seed", [-1, [4, -1], np.array([3, -2]), np.int64(-5)])
def test_negative_seed_is_a_value_error(seed):
    with pytest.raises(ValueError):
        tb.CounterRandom(seed)
    with pytest.raises(ValueError):
        tb.run_batch(C.ghz_dynamic(3), 2 if np.ndim(seed) else 1, master_seed=seed)


@pytest.mark.parametrize("seed", [1.5, 2.0, [3, 1.5], np.array([1.0, 2.0]), "7", [[1, 2]]])
def test_non_integer_seed_is_a_type_error(seed):
    with pytest.raises(TypeError):
        tb.CounterRandom(seed)


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("build", [C.ghz_dynamic, C.long_range_cnot_dynamic], ids=["ghz65", "cnot130"])
def test_word_boundaries_match_single_seed_and_shards(build, mode):
    """Shot counts and shard or seed blocks on and off the 64-shot word
    boundary, on registers just past one and two words, give the rows of
    single-seed calls and of shot_offset shards: records, frames and fired
    mask alike."""
    circ = build(65 if build is C.ghz_dynamic else 128, mode=mode)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.05, lambda_meas=0.05))

    def rows(res):
        return [res.records, _fired_bits(res).T] + [b.T for b in _frame_bits(res)]

    def run(shots, seed, offset=0):
        return tb.run_batch(circ, shots, master_seed=seed, noise=sites, mode=mode, shot_offset=offset)

    for shots in (1, 63, 64, 65, 1000):
        whole = run(shots, 5)
        assert whole.fired.shape == (len(sites), (shots + 63) // 64)
        cuts = sorted({0, shots // 3, min(shots, 64), shots})
        parts = [rows(run(hi - lo, 5, lo)) for lo, hi in zip(cuts, cuts[1:])]
        for got, *want in zip(rows(whole), *parts):
            np.testing.assert_array_equal(got, np.concatenate(want))
        # one fired row per site, the caller's sites in program order
        assert whole.sites == sorted(sites, key=lambda s: s.before_index)
    seeds = [3, 2**63 - 5, 0]
    res = rows(run(63, seeds, 7))
    for k, seed in enumerate(seeds):
        for got, want in zip(res, rows(run(21, seed, 7))):
            np.testing.assert_array_equal(got[21 * k : 21 * (k + 1)], want)
    assert _fired_bits(run(1000, 5)).any()


# sha256 of one noisy run_batch per (builder, mode, n): records, frames,
# fired mask, then the signed reference stabilizers and destabilizers, then
# the sites.  The feed-forward digests were recorded from the row-major
# tableau that the lane layout replaced.  The post-process ones were
# recorded when a deferred correction became the frame itself; each equals
# the digest that the separate correction rows gave when folded into the
# frame (fx ^ dx, fz ^ dz).  Registers of 31 to 67 qubits put the 2n
# tableau rows across one to three lane words.
_PINNED = {
    ("ghz_dynamic", "feed_forward", 31): "c0ade73d4797e804030419df8caaa5202b4c973dbc17840d776e5765cc727aeb",
    ("ghz_dynamic", "feed_forward", 32): "c46476d918d34d98363bd6228349800c7c74bc3ab1dc63974d7b50926fdc64d1",
    ("ghz_dynamic", "feed_forward", 33): "5d925a0b0947c20b7262574e156a53c1b5b5edb261cd01609b9907afe20621c2",
    ("ghz_dynamic", "feed_forward", 64): "e6b4ff0e86500d8d458b19aad979b3081b87c449a6d41f65d135e263642ecac5",
    ("ghz_dynamic", "feed_forward", 65): "6de9fa933605c7f068794f5be8e2f64cffadb5ac6362920a799d2ab770219494",
    ("ghz_dynamic", "post_process", 31): "a82cb51eb18951aceded4d0d597757aaee68cd06f9560144fcdad3d79ad22596",
    ("ghz_dynamic", "post_process", 32): "a112eb21ec72dfd0fecbe4c152cff62d8f190753b8ec302c68c5f1482d0a05cf",
    ("ghz_dynamic", "post_process", 33): "b72e4b31c61120cfae6f604633da3b0503b41aa0c76484c70d276bd4c8470b24",
    ("ghz_dynamic", "post_process", 64): "706e38141d9abc7730a6311a39df0f7a71afb356697908d20d0636e42c6a3522",
    ("ghz_dynamic", "post_process", 65): "a4f35071b783d8fc45ce22b05d0ba76eb5addffc139e42b1a4a8da1cc2957418",
    ("long_range_cnot_dynamic", "feed_forward", 31): "40be647540356b823a81091ee8124b33921bdb3b00c63263db7f3387d523f3fa",
    ("long_range_cnot_dynamic", "feed_forward", 32): "fb0050cb214261683e8934bdc6a184d77c62fedddc1543b063803df65f37180d",
    ("long_range_cnot_dynamic", "feed_forward", 33): "be0e86c3feceaf372c24b7a062eef059bd70969e4956076229b0fd1c3b242b96",
    ("long_range_cnot_dynamic", "feed_forward", 64): "d0dc1d94b1ee8b3d6ff93c350c9738cc2fbb7cf204feacd368c103da701221bb",
    ("long_range_cnot_dynamic", "feed_forward", 65): "7c78fe84afaf9fea42c54fb81407f5dae0eb4587c0eaca467ee15392b4f0906e",
    ("long_range_cnot_dynamic", "post_process", 31): "2e1abbbcd645e39c2df51779a5eca871015b01c23a9c57e39fb44fd1e7d1133e",
    ("long_range_cnot_dynamic", "post_process", 32): "7136323fe49960846d17b6f688a0761885acb301920908b103082d0fd1068dac",
    ("long_range_cnot_dynamic", "post_process", 33): "a32da28543ad145c2306821ded97280ec28df7d1d8a19a45a86a1d6210ba02ff",
    ("long_range_cnot_dynamic", "post_process", 64): "545bab1d8f368e99a7c5696ce457d72cd4f0ae0c69f27b1092ab8f06fe640367",
    ("long_range_cnot_dynamic", "post_process", 65): "819373cbdb4e28bcc5d37ceffee2a97e11e14947c7ada3cec796f8c7f2532731",
}


def _batch_digest(res, circ) -> str:
    h = hashlib.sha256()
    for a in (res.records, res.fx, res.fz, res.fired):
        h.update(np.ascontiguousarray(a).tobytes())
    ref = res.reference
    h.update("\n".join(str(p) for p in ref.stabilizers() + ref.destabilizers()).encode())
    # each site as (start time of its instruction, or the makespan at the
    # end; sign-free operator; index)
    n_ins = len(circ.instructions)
    times = [circ.instructions[s.before_index].start if s.before_index < n_ins else circ.makespan for s in res.sites]
    h.update(repr([(t, str(s.pauli.mod_phase()), s.before_index) for t, s in zip(times, res.sites)]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("build, mode, n", list(_PINNED))
def test_batch_outputs_match_pinned_digests(build, mode, n):
    circ = getattr(C, build)(n, mode=mode)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.05, lambda_meas=0.05))
    res = tb.run_batch(circ, 100, master_seed=11, noise=sites)
    assert res.fired.any()
    assert _batch_digest(res, circ) == _PINNED[(build, mode, n)]


# ---------------------------------------------------------------------------
# folded feed-forward parities
# ---------------------------------------------------------------------------

# Each case is a list of steps: ("m", q) measures ancilla q (0..2) afresh;
# (letter, parity) adds a cpauli, X on qubit 3 or Z on qubit 4, followed by
# a read-out of its target, with parity entry i naming the record of the
# i-th "m" step.  Ancilla 2 is prepared in |1>, so its records are 1 on the
# reference pass too.  Each case changes the parity against the cpauli
# before it in one way that a fold must not mistake for an extension (or
# does extend it), with X and Z cpaulis interleaved.
_PARITY_CASES = {
    "equal": [("m", 2), ("m", 0), ("X", (0, 1)), ("Z", (0, 1)), ("X", (0, 1))],
    "extended": [("m", 2), ("X", (0,)), ("m", 0), ("Z", (0, 1)), ("m", 1), ("X", (0, 1, 2))],
    "shrunk": [("m", 0), ("m", 1), ("m", 2), ("X", (0, 1, 2)), ("Z", (0, 1)), ("X", (0,))],
    "reordered": [("m", 2), ("m", 0), ("m", 1), ("X", (0, 1)), ("Z", (1, 0)), ("X", (1, 0, 2))],
    "diverging": [("m", 0), ("m", 2), ("m", 1), ("X", (0, 1)), ("Z", (0, 2)), ("X", (0, 2, 1))],
    "disjoint": [("m", 2), ("m", 0), ("m", 1), ("X", (0,)), ("Z", (1, 2)), ("X", (1, 2, 0))],
    "empty": [("m", 2), ("m", 0), ("X", ()), ("Z", (0,)), ("X", ()), ("X", (1,)), ("Z", ())],
    "duplicate": [("m", 2), ("m", 0), ("X", (0, 0)), ("Z", (0, 0, 1)), ("X", (0, 0, 1, 1)), ("X", (0, 0, 1, 1, 0))],
}


def _parity_circuit(steps, mode="feed_forward") -> C.Circuit:
    """Ancillas 0 and 1 in |+> and 2 in |1>, each copied into qubit 3 so
    that the X cpaulis on qubit 3 (read in Z) can cancel its content; Z
    cpaulis act on qubit 4, a |+> read in X.  A re-measured ancilla is
    reset and prepared again first."""
    prep = {0: "h", 1: "h", 2: "x"}
    c = C.Circuit(5)
    c.meta = {"mode": mode}
    for q in (0, 1, 2):
        c.add(prep[q], q, start=0.0)
    c.add("h", 4, start=0.0)
    for q in (0, 1, 2):
        c.add("cx", q, 3, start=1.0 + q)
    t = 4.0
    recs = []
    for step in steps:
        if step[0] == "m":
            q = step[1]
            if any(ins.op == "measure" and ins.qubits == (q,) for ins in c.instructions):
                c.add("reset", q, start=t)
                c.add(prep[q], q, start=t)
            recs.append(c.measure(q, start=t, duration=1.0))
        else:
            letter, parity = step
            target = 3 if letter == "X" else 4
            c.add("cpauli", target, start=t, pauli=letter, parity=tuple(recs[i] for i in parity))
            if letter == "Z":
                c.add("h", 4, start=t)
            c.measure(target, start=t, duration=1.0)
            if letter == "Z":
                c.add("h", 4, start=t + 1.0)
        t += 2.0
    c.validate()
    return c


def _random_parity_steps(rng) -> list:
    """A random mix of the cases' moves, against the parity before."""
    steps, prev, n_recs = [("m", 0)], (0,), 1
    for _ in range(int(rng.integers(5, 9))):
        if n_recs < 4 and rng.random() < 0.3:
            steps.append(("m", int(rng.integers(3))))
            n_recs += 1
        recs = list(range(n_recs))
        move = rng.integers(8)
        if move == 0:
            par = prev
        elif move == 1:
            par = prev + tuple(int(r) for r in rng.choice(recs, size=int(rng.integers(1, 3))))
        elif move == 2:
            par = prev[:-1]
        elif move == 3:
            par = tuple(int(r) for r in rng.permutation(prev))
        elif move == 4:
            par = prev[: len(prev) // 2] + (int(rng.choice(recs)),)
        elif move == 5:
            par = tuple(r for r in recs if r not in prev)
        elif move == 6:
            par = ()
        else:
            par = prev + prev[-1:]
        steps.append(("XZ"[int(rng.integers(2))], par))
        prev = par
    return steps


def _parity_circuits():
    rng = np.random.default_rng(90513)
    out = list(_PARITY_CASES.items())
    out += [(f"random{k}", _random_parity_steps(rng)) for k in range(12)]
    return out


# measurements and corrections weighted up, so most circuits feed forward
_FUZZ_STEP = st.tuples(
    st.sampled_from(["h", "h", "s", "sdg", "x", "y", "z", "cx", "cx", "measure", "measure", "reset"] + ["cpauli"] * 3),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from("XZ"),
    st.lists(st.integers(0, 15), min_size=1, max_size=3),
)


def _fuzz_circuit(n, steps) -> C.Circuit:
    """A random dynamic Clifford circuit on n qubits, one instruction per
    time step.  A cx on qubit a targets another qubit b steps on.  A
    cpauli reads records already written, picked with repeats; for odd b it
    reads the parity of the cpauli before it and more, which the engines
    fold."""
    circ = C.Circuit(n)
    recs, parity = [], ()
    for t, (op, a, b, letter, picks) in enumerate(steps):
        q, start = a % n, float(t)
        if op == "cx":
            if n > 1:
                circ.add("cx", q, (q + 1 + b % (n - 1)) % n, start=start)
        elif op == "measure":
            recs.append(circ.measure(q, start=start))
        elif op == "cpauli":
            if recs:
                parity = parity * (b % 2) + tuple(recs[i % len(recs)] for i in picks)
                circ.add("cpauli", q, start=start, pauli=letter, parity=parity)
        else:
            circ.add(op, q, start=start)
    return circ


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(_FUZZ_STEP, min_size=4, max_size=16))
def test_dense_oracle_matches_compiled_outcomes_on_random_dynamic_circuits(n, steps):
    """Random dynamic Clifford circuits on up to 5 qubits
    (:func:`_fuzz_circuit`): the dense oracle's record distribution is the
    compiled program's exact one, with every qubit read out at the end."""
    circ = _fuzz_circuit(n, steps)
    for q in range(n):  # read every qubit out, so a wrong frame shows
        circ.measure(q, start=float(len(steps)))
    dense = sv.outcome_distribution(sv.run_branches(circ))
    exact = tb.compile(circ).outcomes()
    assert max(abs(dense.get(x, 0.0) - exact.get(x, 0.0)) for x in set(dense) | set(exact)) <= 1e-12


def _random_paulis(rng, count, n):
    """``count`` sign-free operators on n qubits, uniformly drawn."""
    return [PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(_FUZZ_STEP, min_size=4, max_size=16),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.sampled_from([0, 1, 63, 64, 70]),
    st.sampled_from([0, 9, 2**64 - 70]),
)
def test_map_read_matches_sampled_frames_on_random_noisy_dynamic_circuits(n, steps, seed, m, per_seed, offset):
    """The error-map read (:meth:`Program.read`) gives, bit for bit, the
    flips that ``readout_flips`` reads off the sampled frames, on the
    random dynamic circuits of the dense-oracle fuzz (resets, collapse
    coins and folded feed-forward parities included) with noise sites of
    random operators and weights, under m seeds and shot offsets; and
    ``run_batch`` with ``read`` gives the parities ``e * (-1)^flip``, e
    the reference expectation (a row of 0 where e = 0)."""
    circ = _fuzz_circuit(n, steps)
    rng = np.random.default_rng(seed)
    n_ins = len(circ.instructions)
    weights = (0.0, 1.0, 0.5, float(rng.random()))
    sites = [
        _site(int(rng.integers(n_ins + 1)), p, weights[int(rng.integers(len(weights)))])
        for p in _random_paulis(rng, int(rng.integers(0, 6)), n)
    ]
    sx, sz = sb.pauli_bits(_random_paulis(rng, m, n), n)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=m)]
    program = tb.compile(circ, sites)
    want = program.sample(m * per_seed, seeds, offset).readout_flips(sx, sz)
    got = program.read(sx, sz, m * per_seed, seeds, offset)
    assert got.dtype == bool and got.shape == (m, per_seed)
    np.testing.assert_array_equal(got, want)
    e = program.reference.bit_expectations(sx, sz)
    batch = tb.run_batch(circ, m * per_seed, master_seed=seeds, noise=sites, shot_offset=offset, read=(sx, sz))
    np.testing.assert_array_equal(batch, e[:, None] * np.where(want, -1.0, 1.0))


@pytest.mark.parametrize("build, mode", [("ghz", "feed_forward"), ("ghz", "post_process"), ("cnot", "feed_forward")])
def test_map_read_matches_sampled_frames_through_delta_coded_coins(build, mode):
    """On chains long enough for delta-coded collapse flips (which the
    small random circuits never make), with noise: the map read equals the
    flips read off the sampled frames, for random operators on the whole
    register and for the chain's own stabilizer-like reads."""
    n = 40
    circ = C.ghz_dynamic(n, mode=mode) if build == "ghz" else C.long_range_cnot_dynamic(n, mode=mode)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.02, lambda_meas=0.03))
    program = tb.compile(circ, sites)
    assert any(entry[0] == "delta" for entry in program.entries)
    rng = np.random.default_rng(n)
    width = circ.n_qubits
    ops = _random_paulis(rng, 5, width) + [PauliString.from_text("Z" * width), PauliString.from_text("X" * width)]
    sx, sz = sb.pauli_bits(ops, width)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=len(ops))]
    for per_seed, offset in ((64, 0), (33, 2**40)):
        want = program.sample(len(ops) * per_seed, seeds, offset).readout_flips(sx, sz)
        np.testing.assert_array_equal(program.read(sx, sz, len(ops) * per_seed, seeds, offset), want)
        assert want.any() and not want.all()


def test_map_read_draws_a_collapse_coin_that_flips_a_fixed_operator():
    """An uncorrected h then measure leaves the reference in |0>, where Z
    reads +1, and the collapse coin flips it on about half the shots: the
    map read draws that coin (the e = 0 fallback never sees it), beside a
    noise site on a qubit Z does not read and one that it does, and beside
    a reset whose coin the reset absorbs."""
    circ = C.Circuit(3)
    circ.add("h", 0, start=0.0)
    circ.add("h", 2, start=0.0)
    circ.measure(0, start=1.0)
    circ.add("reset", 2, start=1.0)
    sites = [_site(4, PauliString.from_text("IXI"), 0.5), _site(4, PauliString.from_text("IIX"), 0.25)]
    program = tb.compile(circ, sites)
    ops = [PauliString.from_text(t) for t in ("ZII", "IZI", "IIZ", "XXX")]
    sx, sz = sb.pauli_bits(ops, 3)
    assert program.reference.bit_expectations(sx[:3], sz[:3]).tolist() == [1, 1, 1]
    seeds = [3, 4, 5, 6]
    got = program.read(sx, sz, 4 * 256, seeds)
    np.testing.assert_array_equal(got, program.sample(4 * 256, seeds).readout_flips(sx, sz))
    assert 0.4 < got[0].mean() < 0.6 and 0.4 < got[1].mean() < 0.6 and 0.15 < got[2].mean() < 0.35
    # the draws that can flip each operator: coin 0, site 0, site 1, and
    # for XXX only site 0's X on qubit 1 and site 1's X on qubit 2 commute
    fx, fz = program.error_map()
    assert program.streams.size == 4  # coins of qubits 0 and 2, two sites
    assert program._anticommuting(sx, sz).tolist() == [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    assert _bits(fx, 4).tolist() == [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert not fz.any()


def test_map_read_validates_its_split():
    program = tb.compile(C.ghz_dynamic(3))
    sx, sz = sb.pauli_bits([PauliString.from_text(t) for t in ("XXX", "ZZI")], 3)
    assert program.read(sx, sz, 0, [1, 2]).shape == (2, 0)
    with pytest.raises(ValueError, match="2 operators but 3 seeds"):
        program.read(sx, sz, 6, [1, 2, 3])
    with pytest.raises(ValueError, match="do not split evenly"):
        program.read(sx, sz, 5, [1, 2])
    with pytest.raises(ValueError, match="shot ids"):
        program.read(sx, sz, 4, [1, 2], shot_offset=2**64 - 1)


def test_fired_pair_list_matches_the_full_grid():
    """The pair-list kernel draws each (stream, seed) pair exactly as the
    full grid does: row p is the seed-p block of its stream's grid row."""
    ids = np.arange(5, 75, dtype=np.uint64)
    streams = np.array([0, 7, tb._NOISE_STREAM_BASE + 3], dtype=np.uint64)
    thresholds = np.array([2**52, 2**50, 2**53 - 1], dtype=np.uint64)
    seeds = [11, 2**63 - 5, 0, 2**70]
    rnd = tb.CounterRandom(seeds)
    grid = _bits(rnd.fired(streams, thresholds, ids), len(seeds) * ids.size).reshape(3, len(seeds), -1)
    j = np.array([2, 0, 0, 1, 2, 2])
    k = np.array([0, 0, 3, 1, 1, 2])
    rows = rnd.fired(streams[j], thresholds[j], ids, seeds=k)
    assert rows.shape == (j.size, 2)
    np.testing.assert_array_equal(_bits(rows, ids.size), grid[j, k])
    assert rnd.fired(streams[:0], thresholds[:0], ids, seeds=k[:0]).shape == (0, 2)


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("name, steps", _parity_circuits())
def test_folded_parities_match_exact_distribution(name, steps, mode):
    """The folded reference pass and replay against the dense oracle, which
    reads every parity in full, and the sampled records against the exact
    support."""
    circ = _parity_circuit(steps, mode)
    assert _exact_tvd(circ) == 0.0
    exact = tb.compile(circ).outcomes()
    sampled = tb.run_batch(circ, 1024, master_seed=5, mode=mode).records
    assert all(exact.get(tuple(int(b) for b in row), 0.0) > 0 for row in sampled)
    # every outcome of the exact support shows up in 1024 shots
    assert {tuple(int(b) for b in row) for row in sampled} == set(exact)


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("name, steps", _parity_circuits())
def test_folded_parities_match_unfolded_known_zero_analysis(name, steps, mode):
    """The schedule walk folds each parity from the one before; the tests'
    reference sweep reads every parity in full."""
    circ = _parity_circuit(steps, mode)
    want = idle_reference(circ)
    assert list(circ.validate().idle) == want
    t = C.tally(circ)
    assert (t.t_idle, t.depth) == (sum(b - a for _, a, b in want), circ.makespan)


@pytest.mark.parametrize("name, steps", _parity_circuits())
def test_folded_replay_matches_propagated_errors(name, steps):
    """One error at a time, fired on every shot: the folded replay's change
    to the frame and records is what _propagate_reference, which reads each
    parity in full, predicts."""
    circ = _parity_circuit(steps)
    n, n_ins = circ.n_qubits, len(circ.instructions)
    rng = np.random.default_rng(len(steps))
    clean = tb.run_batch(circ, 1, master_seed=8)
    for _ in range(40):
        k = int(rng.integers(n_ins + 1))
        err = PauliString(n, int(rng.integers(1, 1 << n)), int(rng.integers(1 << n)))
        noisy = tb.run_batch(circ, 1, master_seed=8, noise=[N.NoiseSite(k, err, 1.0)])
        want_p, want_flips = _propagate_reference(circ, err, k)
        assert (_shot_frame(noisy, 0) * _shot_frame(clean, 0)).mod_phase() == want_p
        flipped = np.flatnonzero(noisy.records[0] != clean.records[0])
        assert {int(r) for r in flipped} == want_flips


def test_ghz_chain_cpaulis_read_one_record_each():
    """ghz_dynamic(401) corrects with 199 growing prefixes of one record
    list (19 900 references in all); folded, each correction's program
    entry reads only its one new record."""
    circ = C.ghz_dynamic(401)
    cpaulis = [e for e in tb.compile(circ).entries if e[0] == "cpauli"]
    assert len(cpaulis) == 199
    assert sum(len(ins.parity) for ins in circ.instructions if ins.op == "cpauli") == 19_900
    assert sum(len(recs) for _, _, _, _, recs in cpaulis) == 199
    assert [base for _, _, _, base, _ in cpaulis] == [None] + list(range(198))


# ---------------------------------------------------------------------------
# delta-coded collapse coins
# ---------------------------------------------------------------------------


def _y_prepared_cnot_chain(n, mode):
    """long_range_cnot_dynamic(n) on a Y x Y eigenstate, read out as X on
    the control and Z on the target, whose collapse flips alternate between
    two families on the Z rows."""
    circ = C.long_range_cnot_dynamic(n, mode=mode)
    last = circ.n_qubits - 1
    circ = _prefixed(circ, [("h", 0), ("s", 0), ("h", last), ("s", last)])
    return _with_readout(circ, {0: "X", last: "Z"})[0]


_CHAINS = {
    "ghz": lambda n, mode: C.ghz_dynamic(n, mode=mode),
    "cnot": lambda n, mode: C.long_range_cnot_dynamic(n, mode=mode),
    "cnot-y": _y_prepared_cnot_chain,
}


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("chain, n", [("ghz", 101), ("ghz", 300), ("cnot", 100), ("cnot", 257), ("cnot-y", 150)])
def test_delta_replay_matches_a_direct_replay(chain, n, mode):
    """The compiled program's records and frames equal, bit for bit, those
    of the tests' own sampler, which XORs each coin into every letter of
    the flip measure_flip reports."""
    circ = _CHAINS[chain](n, mode)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_idle=0.002, lambda_cnot=0.01, lambda_meas=0.01))
    program = tb.compile(circ, sites)
    assert any(e[0] == "delta" for e in program.entries)
    for seed in (0, 3, 2**40 + 1):
        res = program.sample(100, seed)
        want = direct_sample(circ, 100, seed, sites)
        assert _fired_bits(res).any()
        for got, exp in zip((res.records, res.fx, res.fz), want):
            np.testing.assert_array_equal(got, exp)


def _row_updates(program) -> int:
    """The frame-row updates a program's entries imply: one per letter of
    a pauli entry, per row a delta entry moves plus one for its
    accumulator, per row settled, and one for any other entry."""
    total = 0
    for e in program.entries:
        if e[0] == "pauli":
            total += len(e[1]) + len(e[2])
        elif e[0] == "delta":
            total += len(e[2]) + 1
        elif e[0] == "settle":
            total += len(e[2])
        else:
            total += 1
    return total


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("chain", list(_CHAINS))
def test_collapse_chain_replay_work_grows_linearly(chain, mode):
    """The k-th collapse of a chain has a flip of about k letters, so a
    replay that paid per flip letter would do about 4x the row updates at
    twice the length; delta-coded coins keep it about 2x."""
    small, large = (_row_updates(tb.compile(_CHAINS[chain](n, mode))) for n in (400, 800))
    assert large <= 2.2 * small


# ---------------------------------------------------------------------------
# noise injection and per-shot bookkeeping
# ---------------------------------------------------------------------------


def _site(k, pauli, omega):
    return SimpleNamespace(before_index=k, pauli=pauli, omega=omega)


def _fire_rates(rates, shots, seed):
    """Fraction of ``shots`` on which a site of each rate fired, from the
    fired mask of one run_batch on a one-qubit circuit."""
    circ = C.Circuit(1)
    circ.measure(0, start=0.0)
    sites = [N.NoiseSite(0, PauliString.from_text("XZ"[k % 2]), N.omega(r)) for k, r in enumerate(rates)]
    return _fired_bits(tb.run_batch(circ, shots, master_seed=seed, noise=sites)).mean(axis=1)


def test_inject_rate_zero_and_large():
    zero, big = _fire_rates([0.0, 50.0], 4000, 0)
    assert zero == 0.0
    assert abs(big - 0.5) < 0.04
    with pytest.raises(ValueError, match="negative"):
        N.omega(-1.0)


def test_inject_rate_half_matches_formula():
    (rate,) = _fire_rates([0.5], 40_000, 21)
    want = 0.5 * (1.0 - np.exp(-1.0))  # ~0.3161
    assert abs(rate - want) < 0.01


def test_forced_bitflip_before_measure():
    circ = C.Circuit(1)
    circ.measure(0, start=0.0)
    site = _site(0, PauliString.from_text("X"), 1.0)
    res = tb.run_batch(circ, 8, master_seed=1, noise=[site])
    assert res.records.ravel().tolist() == [1] * 8
    assert res.sites == [site] and res.fired.shape == (1, 1) and _fired_bits(res).all()


# (builder, n, mode, injections, error-generator seed, master seed)
_BOOKKEEPING_CASES = [
    (C.long_range_cnot_dynamic, 4, "feed_forward", 1000, 8181, 40),
    (C.long_range_cnot_dynamic, 4, "post_process", 500, 8182, 41),
    (C.ghz_dynamic, 6, "feed_forward", 500, 8183, 42),
    (C.ghz_dynamic, 6, "post_process", 500, 8184, 43),
]


def check_bookkeeping_case(build, size, mode, injections, seed, master_seed):
    """Random single-error injections on ``build(size)``, each fired on the
    one shot and diffed against the clean run: the frame and record flips
    must equal _propagate_reference's prediction exactly."""
    circ = build(size, mu=1.0, mode=mode)
    case = f"{build.__name__}({size}) {mode} seed {seed}"
    n, n_ins = circ.n_qubits, len(circ.instructions)
    rng = np.random.default_rng(seed)
    clean = tb.run_batch(circ, 1, master_seed=master_seed)
    for rep in range(injections):
        k = int(rng.integers(n_ins + 1))
        x = int(rng.integers(1, 1 << n)) if rng.random() < 0.5 else int(rng.integers(1 << n))
        z = int(rng.integers(1 << n))
        if x == 0 and z == 0:
            z = 1
        err = PauliString(n, x, z)
        noisy = tb.run_batch(circ, 1, master_seed=master_seed, noise=[_site(k, err, 1.0)])
        want_p, want_flips = _propagate_reference(circ, err, k)
        got = (_shot_frame(noisy, 0) * _shot_frame(clean, 0)).mod_phase()
        assert got == want_p, f"frame mismatch, {case}, rep {rep}"
        rec_diff = {int(r) for r in np.flatnonzero(noisy.records[0] != clean.records[0])}
        assert rec_diff == want_flips, f"record-flip mismatch, {case}, rep {rep}"


def test_sampled_error_bookkeeping_exact_per_shot():
    """Forward-propagating a shot's injected error through the remaining
    instructions (conjugation; record flips at measurements; conditional
    corrections toggled by flipped parities; resets clearing the qubit)
    reproduces the change to the shot's end-of-circuit frame exactly.
    Random single-error injections on both dynamic families in both
    schedules."""
    for case in _BOOKKEEPING_CASES:
        check_bookkeeping_case(*case)


def _propagate_reference(circ, pauli, k):
    """Single-error forward propagation, written independently of the
    sampler's vectorised arithmetic."""
    p = pauli.mod_phase()
    flipped = set()
    for ins in circ.instructions[k:]:
        op = ins.op
        if op in ("input", "barrier"):
            continue
        if op in ("h", "s", "sdg", "x", "y", "z", "cx"):
            p = p.conjugated(op, *ins.qubits)
        elif op == "measure":
            if p.x_bit(ins.qubits[0]):
                flipped.add(ins.record)
        elif op == "reset":
            q = ins.qubits[0]
            p = PauliString(p.n, p.x_bits & ~(1 << q), p.z_bits & ~(1 << q))
        elif op == "cpauli":
            if sum(1 for r in ins.parity if r in flipped) % 2:
                p = (p * PauliString.single(p.n, ins.qubits[0], ins.pauli)).mod_phase()
        else:
            raise AssertionError(f"unexpected op {op}")
    return p.mod_phase(), flipped


def test_noisy_record_histogram_matches_dense_oracle():
    """The sampled record histogram of a noisy circuit against its exact
    distribution: the dense oracle's outcome distribution under each noise
    configuration, weighted by that configuration's probability.  Every
    sampled record is possible, and every outcome's frequency lies within 5
    sigma of its probability."""
    circ = C.ghz_dynamic(4, mu=1.0)
    site = _site(3, PauliString.single(circ.n_qubits, 1, "X"), 0.3)
    shots = 4000
    batch = tb.run_batch(circ, shots, master_seed=31, noise=[site])
    exact = {}
    for p, ins in sv.enumerate_noise([site]):
        for key, q in sv.outcome_distribution(sv.run_branches(circ, insertions=ins)).items():
            exact[key] = exact.get(key, 0.0) + p * q
    seen = {}
    for row in batch.records:
        seen[tuple(row.tolist())] = seen.get(tuple(row.tolist()), 0) + 1
    assert set(seen) <= {key for key, p in exact.items() if p > 1e-12}
    for key, p in exact.items():
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(seen.get(key, 0) / shots - p) < 5 * sigma + 1e-9


def test_run_batch_rejects_bad_noise_sites():
    circ = C.ghz_dynamic(3)
    n_ins = len(circ.instructions)
    X0 = PauliString.single(3, 0, "X")
    for k in (-1, n_ins + 1):
        with pytest.raises(ValueError, match="index"):
            tb.run_batch(circ, 2, noise=[_site(k, X0, 0.1)])
    with pytest.raises(ValueError, match="size"):
        tb.run_batch(circ, 2, noise=[_site(0, PauliString.single(4, 0, "X"), 0.1)])
    for om in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="weight"):
            tb.run_batch(circ, 2, noise=[_site(0, X0, om)])
    # the ends of the range are sites too
    assert tb.run_batch(circ, 2, noise=[_site(0, X0, 0.0), _site(n_ins, X0, 1.0)]).fired.shape == (2, 1)


def test_shot_ids_stay_below_two_to_the_64():
    """Shot ids are uint64 counters: the last id is 2^64 - 1, and a batch
    that would wrap past it (or start below 0) is refused rather than
    reusing the randomness of shot 0."""
    circ = C.ghz_dynamic(3)
    last = tb.run_batch(circ, 1, master_seed=4, shot_offset=2**64 - 1)
    pair = tb.run_batch(circ, 2, master_seed=4, shot_offset=2**64 - 2)
    np.testing.assert_array_equal(pair.records[1:], last.records)
    for shots, offset in ((2, 2**64 - 1), (1, 2**64), (1, -1)):
        with pytest.raises(ValueError, match="shot ids"):
            tb.run_batch(circ, shots, master_seed=4, shot_offset=offset)
    # an empty batch may end at 2^64; one shot there names its id
    empty = tb.run_batch(circ, 0, master_seed=4, shot_offset=2**64)
    assert empty.records.shape == (0, circ.n_records)
    with pytest.raises(ValueError, match=r"shot ids 18446744073709551616\.\.18446744073709551616 outside"):
        tb.run_batch(circ, 1, master_seed=4, shot_offset=2**64)
    # with m seeds the ids run to shot_offset + shots/m - 1
    tb.run_batch(circ, 4, master_seed=[1, 2], shot_offset=2**64 - 2)
    with pytest.raises(ValueError, match="shot ids"):
        tb.run_batch(circ, 6, master_seed=[1, 2], shot_offset=2**64 - 2)
    with pytest.raises(ValueError, match="negative"):
        tb.run_batch(circ, -1)


def test_readout_flips_needs_an_even_split_over_operators():
    circ = C.ghz_dynamic(3)
    res = tb.run_batch(circ, 6, master_seed=2)
    x, z = sb.pauli_bits([PauliString.from_text(t) for t in ("XXX", "ZZI", "IZZ", "ZIZ")], 3)
    assert res.readout_flips(x[:3], z[:3]).shape == (3, 2)
    for m in (0, 4):
        with pytest.raises(ValueError, match=f"6 shots do not split evenly over {m} operators"):
            res.readout_flips(x[:m], z[:m])


def test_non_clifford_circuit_rejected():
    circ = C.ccz_dynamic(2, mu=1.0)
    with pytest.raises(ValueError, match="not .*simulable|non-Clifford|Clifford"):
        tb.run_batch(circ, 4, master_seed=0)


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
def test_seed_sequence_rows_match_single_seed_batches(mode):
    circ = C.ghz_dynamic(7, mode=mode)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.05, lambda_meas=0.05))
    seeds = [3, 2**63 - 5, 0]
    res = tb.run_batch(circ, 30, master_seed=seeds, noise=sites, mode=mode, shot_offset=4)
    for k, seed in enumerate(seeds):
        one = tb.run_batch(circ, 10, master_seed=seed, noise=sites, mode=mode, shot_offset=4)
        rows = slice(10 * k, 10 * (k + 1))
        np.testing.assert_array_equal(res.records[rows], one.records)
        np.testing.assert_array_equal(_fired_bits(res)[:, rows], _fired_bits(one))
        for got, want in zip(_frame_bits(res), _frame_bits(one)):
            np.testing.assert_array_equal(got[:, rows], want)
        assert res.sites == one.sites == sites
    with pytest.raises(ValueError):
        tb.run_batch(circ, 31, master_seed=seeds, noise=sites, mode=mode)
    with pytest.raises(ValueError):
        tb.run_batch(circ, 0, master_seed=[], mode=mode)


# ---------------------------------------------------------------------------
# the compiled program
# ---------------------------------------------------------------------------

_PROGRAM_PARAMS = N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.05, lambda_meas=0.05)


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
def test_program_samples_equal_run_batch(mode):
    """One compiled program, sampled again and again, gives bit for bit
    what run_batch gives: single seeds, seed sequences and shot offsets."""
    circ = C.long_range_cnot_dynamic(6, mode=mode)
    sites = N.attach_noise(circ, _PROGRAM_PARAMS)
    program = tb.compile(circ, sites)
    for shots, seed, offset in ((100, 7, 0), (100, 7, 0), (65, 7, 9), (30, [3, 2**63 - 5, 0], 4), (3, 2**70, 5)):
        got = program.sample(shots, seed, offset)
        want = tb.run_batch(circ, shots, master_seed=seed, noise=sites, mode=mode, shot_offset=offset)
        assert got.sites == want.sites
        assert got.reference is program.reference
        assert got.reference.stabilizers() == want.reference.stabilizers()
        for name in ("records", "fx", "fz", "fired"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert _fired_bits(program.sample(1000, 1)).any()


def test_program_shards_concatenate_to_the_whole_batch():
    circ = C.ghz_dynamic(9, mode="post_process")
    program = tb.compile(circ, N.attach_noise(circ, _PROGRAM_PARAMS))
    whole = program.sample(200, 11)
    for k in (1, 64, 77, 199):
        head, tail = program.sample(k, 11), program.sample(200 - k, 11, k)
        np.testing.assert_array_equal(whole.records, np.vstack([head.records, tail.records]))
        for got, a, b in zip(
            [_fired_bits(whole)] + _frame_bits(whole),
            [_fired_bits(head)] + _frame_bits(head),
            [_fired_bits(tail)] + _frame_bits(tail),
        ):
            np.testing.assert_array_equal(got, np.hstack([a, b]))


def test_compile_validates_once_and_sample_never(monkeypatch):
    circ = C.ghz_dynamic(8)
    sites = N.attach_noise(circ, _PROGRAM_PARAMS)
    calls = []
    validate = C.Circuit.validate
    monkeypatch.setattr(C.Circuit, "validate", lambda self: calls.append(self) or validate(self))
    program = tb.compile(circ, sites)
    assert calls == [circ]
    for seed in range(3):
        program.sample(16, seed)
    noiseless = tb.compile(circ)
    noiseless.outcomes()
    noiseless.sample(4, [1, 2])
    assert calls == [circ, circ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.n_qubits = 1


def test_outcomes_need_a_program_without_noise():
    circ = C.ghz_dynamic(4)
    with pytest.raises(ValueError, match="without noise sites"):
        tb.compile(circ, N.attach_noise(circ, _PROGRAM_PARAMS)).outcomes()


def test_outcomes_refuse_more_coins_than_the_cap():
    """30 independent H-then-measure qubits: 2^30 shots, so refused before
    any enumeration."""
    circ = C.Circuit(30)
    for q in range(30):
        circ.add("h", q, start=0.0)
    for q in range(30):
        circ.measure(q, start=1.0)
    program = tb.compile(circ)
    assert program.streams.size == 30 > tb._OUTCOME_COINS
    with pytest.raises(ValueError, match="k=30 collapse coins"):
        program.outcomes()


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
def test_zero_shot_batch_is_empty(mode):
    """perfbench's fixed-cost pass calls run_batch with no shots."""
    circ = C.ghz_dynamic(5, mode=mode)
    sites = N.attach_noise(circ, _PROGRAM_PARAMS)
    res = tb.run_batch(circ, 0, master_seed=3, noise=sites, mode=mode)
    assert res.shots == 0 and res.records.shape == (0, circ.n_records)
    assert res.fx.shape == res.fz.shape == (circ.n_qubits, 0)
    assert res.fired.shape == (len(sites), 0) and res.sites == sorted(sites, key=lambda s: s.before_index)
