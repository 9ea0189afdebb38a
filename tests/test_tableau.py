"""Stabilizer engine: tableau semantics vs the dense oracle, and the
batched frame sampler's exactness/determinism contracts.

Distribution comparisons snap probabilities to the dyadic grid before
demanding exact equality: every outcome probability of a Clifford circuit is
an integer multiple of 2^-k (k = number of collapses), so snapping removes
float rounding from the dense side without hiding real disagreements.
"""

import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

from dyncirc import circuits as C
from dyncirc import noise as N
from dyncirc import statevector as sv
from dyncirc import tableau as tb
from dyncirc.pauli import PauliString

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


def _exact_tvd(circ, mode="feed_forward"):
    k = sum(1 for i in circ.instructions if i.op in ("measure", "reset"))
    dense = _snap_dyadic(sv.outcome_distribution(sv.run_branches(circ, mode=mode)), k)
    stab = _snap_dyadic(tb.enumerate_outcomes(circ, mode=mode), k)
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
    canon = [str(p) for p in st.canonical_stabilizers()]
    assert canon == ["+XX", "+ZZ"]
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
    monkeypatch.setattr(tb, "_EXPECTATION_WORDS", 40)
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
    assert st.outcome_is_random(0)
    out = st.measure(0, record_index=0, forced=1)
    assert out == 1 and st.classical_bits[0] == 1
    # collapsed: repeat measurement is deterministic
    assert st.measure(0) == 1


def test_bell_measurements_agree():
    rng = np.random.default_rng(11)
    for _ in range(50):
        st = tb.StabilizerState(2)
        st.apply_clifford("h", 0)
        st.apply_clifford("cx", 0, 1)
        assert st.measure(0, rng=rng) == st.measure(1, rng=rng)


def test_ghz_all_z_readout_is_all_or_nothing():
    circ, _ = _with_readout(C.ghz_unitary(6), {q: "Z" for q in range(6)})
    dist = tb.enumerate_outcomes(circ)
    assert dist == {(0,) * 6: pytest.approx(0.5), (1,) * 6: pytest.approx(0.5)}


def test_reset_leaves_plus_z():
    rng = np.random.default_rng(3)
    st = tb.StabilizerState(2)
    st.apply_clifford("h", 0)
    st.apply_clifford("cx", 0, 1)
    st.reset(0, rng=rng)
    assert st.expectation(PauliString.from_text("ZI")) == 1


def test_conditional_pauli_empty_parity_never_fires():
    st = tb.StabilizerState(1)
    st.conditional_pauli(0, "X", ())
    assert st.expectation(PauliString.from_text("Z")) == 1


def test_conditional_pauli_unwritten_record():
    st = tb.StabilizerState(1)
    with pytest.raises(ValueError, match="before being written"):
        st.conditional_pauli(0, "X", (4,))


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
    rng = np.random.default_rng(99)
    for (letter, sign) in EIGENSTATES:
        circ = _prefixed(c, [(g, 0) for g in PREP[(letter, sign)]])
        for mode in ("feed_forward", "post_process"):
            st = tb.execute(circ, rng=rng, mode=mode)
            st.apply_pending()
            assert st.expectation(PauliString.single(3, 2, letter, sign)) == 1


# ---------------------------------------------------------------------------
# symplectic invariants under random instruction streams
# ---------------------------------------------------------------------------


def test_invariants_hold_after_every_instruction():
    rng = np.random.default_rng(20260815)
    gates1 = ["h", "s", "sdg", "x", "y", "z"]
    checked = 0
    for _ in range(25):
        n = int(rng.integers(2, 17))
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
                st.measure(int(rng.integers(n)), rng=rng)
            elif roll < 0.93:
                st.reset(int(rng.integers(n)), rng=rng)
            else:
                x = int(rng.integers(1 << n))
                z = int(rng.integers(1 << n))
                st.apply_pauli(PauliString(n, x, z))
            st.check_invariants()
            checked += 1
    assert checked >= 10_000


def test_invariant_checker_catches_corruption():
    st = tb.StabilizerState(3)
    st._X[3, 0] ^= np.uint64(2)  # stabilizer Z_0 becomes Z_0 X_1: breaks pairing
    with pytest.raises(AssertionError, match="symplectic"):
        st.check_invariants()


# ---------------------------------------------------------------------------
# dense vs stabilizer: exact distribution agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
def test_dynamic_cnot_distributions_match_dense(n, mode):
    circ = C.long_range_cnot_dynamic(n, mu=1.0, mode=mode)
    assert _exact_tvd(circ, mode) == 0.0


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 10])
def test_ghz_dynamic_distributions_match_dense(n, mode):
    circ = C.ghz_dynamic(n, mu=1.0, mode=mode)
    assert _exact_tvd(circ, mode) == 0.0


def test_random_circuit_distributions_match_dense():
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
        mode = ("feed_forward", "post_process")[rep % 2]
        assert _exact_tvd(circ, mode) == 0.0


def test_post_process_equals_feed_forward_across_builders():
    for circ_ff, circ_pp in [
        (C.long_range_cnot_dynamic(5, mu=1.0), C.long_range_cnot_dynamic(5, mu=1.0, mode="post_process")),
        (C.ghz_dynamic(8, mu=1.0), C.ghz_dynamic(8, mu=1.0, mode="post_process")),
        (C.ghz_dynamic(7, mu=1.0), C.ghz_dynamic(7, mu=1.0, mode="post_process")),
    ]:
        k = sum(1 for i in circ_ff.instructions if i.op in ("measure", "reset"))
        ff = _snap_dyadic(tb.enumerate_outcomes(circ_ff, "feed_forward"), k)
        pp = _snap_dyadic(tb.enumerate_outcomes(circ_pp, "post_process"), k)
        assert ff == pp


# ---------------------------------------------------------------------------
# large-size input/output checks (beyond dense reach)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [16, 32])
def test_dynamic_cnot_eigenstate_io_large(n):
    circ = C.long_range_cnot_dynamic(n, mu=1.0)
    control, target = 0, n + 1
    rng = np.random.default_rng(5)
    for (lc, sc) in EIGENSTATES:
        for (lt, st_) in EIGENSTATES:
            prep = [(g, control) for g in PREP[(lc, sc)]]
            prep += [(g, target) for g in PREP[(lt, st_)]]
            wrapped = _prefixed(circ, prep)
            got = tb.execute(wrapped, rng=rng)
            ref = tb.StabilizerState(circ.n_qubits)
            for g, q in prep:
                ref.apply_clifford(g, q)
            ref.apply_clifford("cx", control, target)
            assert got.state_equal(ref), f"mismatch on input {lc}{sc:+d},{lt}{st_:+d}"


def test_ghz_dynamic_large_stabilizer_check():
    n = 101
    st = tb.execute(C.ghz_dynamic(n, mu=1.0), rng=7)
    assert st.expectation(PauliString(n, (1 << n) - 1, 0)) == 1
    for i in range(n - 1):
        assert st.expectation(PauliString(n, 0, 0b11 << i)) == 1


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
    """Empirical frequencies from the frame sampler vs the exact branch
    enumeration, within 5 sigma per outcome."""
    circ = C.ghz_dynamic(6, mu=1.0)
    shots = 20_000
    res = tb.run_batch(circ, shots, master_seed=17)
    exact = tb.enumerate_outcomes(circ)
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
        stab = PauliString.identity(n)
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


def test_batch_rows_parse_without_noise():
    circ = C.ghz_dynamic(4, mu=1.0, mode="post_process")
    res = tb.run_batch(circ, 3, master_seed=9, mode="post_process")
    for s in range(res.shots):
        doc = json.loads(json.dumps({"bits": res.records[s].tolist(), "frame": str(res.frames[s])}))
        assert doc["bits"] == res.records[s].tolist()
        assert PauliString.from_text(doc["frame"]).key() == res.frames[s].key()
        assert res.errors[s] == []
    assert res.fired.shape == (0, 1) and res.sites == []


def _fired_bits(res):
    """(sites, shots) 0/1 array: where each noise site fired."""
    raw = res.fired.astype("<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=res.shots, bitorder="little")


def test_counter_random_stream_vector_matches_scalar_draws():
    ids = np.arange(5, 75, dtype=np.uint64)
    sids = np.array([0, 7, tb._NOISE_STREAM_BASE + 3], dtype=np.uint64)
    for seed in (11, [11, 2**63 - 5, 0]):
        rnd = tb.CounterRandom(seed)
        want = np.stack([rnd.uniform(int(s), ids) for s in sids])
        np.testing.assert_array_equal(rnd.uniform(sids, ids), want)


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
        views = [res.records, res.frame_x, res.frame_z, _fired_bits(res).T]
        return views + ([res.delta_x, res.delta_z] if mode == "post_process" else [])

    def run(shots, seed, offset=0):
        return tb.run_batch(circ, shots, master_seed=seed, noise=sites, mode=mode, shot_offset=offset)

    for shots in (1, 63, 64, 65, 1000):
        whole = run(shots, 5)
        assert whole.fired.shape == (len(sites), (shots + 63) // 64)
        cuts = sorted({0, shots // 3, min(shots, 64), shots})
        parts = [rows(run(hi - lo, 5, lo)) for lo, hi in zip(cuts, cuts[1:])]
        for got, *want in zip(rows(whole), *parts):
            np.testing.assert_array_equal(got, np.concatenate(want))
        assert whole.errors == [
            [whole.sites[j] for j in np.flatnonzero(col)] for col in _fired_bits(whole).T
        ]
    seeds = [3, 2**63 - 5, 0]
    res = rows(run(63, seeds, 7))
    for k, seed in enumerate(seeds):
        for got, want in zip(res, rows(run(21, seed, 7))):
            np.testing.assert_array_equal(got[21 * k : 21 * (k + 1)], want)
    assert _fired_bits(run(1000, 5)).any()


# ---------------------------------------------------------------------------
# noise injection and per-shot bookkeeping
# ---------------------------------------------------------------------------


def _site(k, pauli, omega):
    return SimpleNamespace(before_index=k, pauli=pauli, omega=omega)


def test_inject_rate_zero_and_large():
    rng = np.random.default_rng(0)
    st = tb.StabilizerState(1)
    ch0 = SimpleNamespace(pauli=PauliString.from_text("X"), rate=0.0)
    assert not any(st.inject_pauli_noise(ch0, rng) for _ in range(200))
    hits = 0
    chbig = SimpleNamespace(pauli=PauliString.from_text("Z"), rate=50.0)
    for _ in range(4000):
        hits += tb.StabilizerState(1).inject_pauli_noise(chbig, rng)
    assert abs(hits / 4000 - 0.5) < 0.04
    with pytest.raises(ValueError, match="negative"):
        st.inject_pauli_noise(SimpleNamespace(pauli=PauliString.from_text("X"), rate=-1.0), rng)


def test_inject_rate_half_matches_formula():
    rng = np.random.default_rng(21)
    ch = SimpleNamespace(pauli=PauliString.from_text("X"), rate=0.5)
    hits = sum(tb.StabilizerState(1).inject_pauli_noise(ch, rng) for _ in range(40_000))
    want = 0.5 * (1.0 - np.exp(-1.0))  # ~0.3161
    assert abs(hits / 40_000 - want) < 0.01


def test_forced_bitflip_before_measure():
    circ = C.Circuit(1)
    circ.measure(0, start=0.0)
    site = _site(0, PauliString.from_text("X"), 1.0)
    res = tb.run_batch(circ, 8, master_seed=1, noise=[site])
    assert res.records.ravel().tolist() == [1] * 8
    assert [e.before_index for e in res.sites] == [0] and _fired_bits(res).all()
    assert all(len(e) == 1 and e[0].before_index == 0 for e in res.errors)


def test_sampled_error_bookkeeping_exact_per_shot():
    """Forward-propagating a shot's injected error through the remaining
    instructions (conjugation; record flips at measurements; conditional
    corrections toggled by flipped parities; resets clearing the qubit)
    reproduces the shot's end-of-circuit frame exactly.  1000 random
    single-error injections."""
    circ = C.long_range_cnot_dynamic(4, mu=1.0)
    n = circ.n_qubits
    rng = np.random.default_rng(8181)
    clean = tb.run_batch(circ, 1, master_seed=40)
    n_ins = len(circ.instructions)
    for rep in range(1000):
        k = int(rng.integers(n_ins + 1))
        x = int(rng.integers(1, 1 << n)) if rng.random() < 0.5 else int(rng.integers(1 << n))
        z = int(rng.integers(1 << n))
        if x == 0 and z == 0:
            z = 1
        err = PauliString(n, x, z)
        noisy = tb.run_batch(
            circ, 1, master_seed=40, noise=[_site(k, err, 1.0)]
        )
        want_p, want_flips = _propagate_reference(circ, err, k)
        got_x = noisy.frames[0].x_bits ^ clean.frames[0].x_bits
        got_z = noisy.frames[0].z_bits ^ clean.frames[0].z_bits
        assert (got_x, got_z) == (want_p.x_bits, want_p.z_bits), f"frame mismatch rep {rep}"
        rec_diff = {
            r for r in range(circ.n_records)
            if noisy.records[0, r] != clean.records[0, r]
        }
        assert rec_diff == want_flips, f"record-flip mismatch rep {rep}"


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
                p = p.times_mod_phase(PauliString.single(p.n, ins.qubits[0], ins.pauli))
        else:
            raise AssertionError(f"unexpected op {op}")
    return p.mod_phase(), flipped


def test_direct_execution_agrees_with_sampler_statistically():
    circ = C.ghz_dynamic(4, mu=1.0)
    site = _site(3, PauliString.single(circ.n_qubits, 1, "X"), 0.3)
    shots = 4000
    batch = tb.run_batch(circ, shots, master_seed=31, noise=[site])
    rng = np.random.default_rng(32)
    direct = np.array(
        [
            [tb.execute(circ, rng=rng, noise=[site]).classical_bits[i] for i in range(circ.n_records)]
            for _ in range(shots)
        ],
        dtype=np.uint8,
    )
    for r in range(circ.n_records):
        a, b = batch.records[:, r].mean(), direct[:, r].mean()
        assert abs(a - b) < 5 * np.sqrt(0.25 / shots) * 2


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
        assert res.sites == one.sites and res.errors[rows] == one.errors
        assert res.frames[rows] == one.frames
    with pytest.raises(ValueError):
        tb.run_batch(circ, 31, master_seed=seeds, noise=sites, mode=mode)
    with pytest.raises(ValueError):
        tb.run_batch(circ, 0, master_seed=[], mode=mode)
