"""Certification estimator tests.

Dense-engine quantities (state fidelities, process fidelities, Pauli-transfer
signs) serve as the oracles; estimator statistics are checked on frozen seeds
so every assertion is deterministic.
"""

import io
import json
import types

import numpy as np
import pytest

import dyncirc.certify as cert
import dyncirc.circuits as C
import dyncirc.cli as cli
import dyncirc.noise as N
import dyncirc.statevector as sv
import dyncirc.tableau as tb
from dyncirc.pauli import PauliString
from dyncirc.stabilizer import pauli_bits


def _site(k, pauli, omega):
    return types.SimpleNamespace(before_index=k, pauli=pauli, omega=omega)


def _end_site(circ, text, omega):
    return _site(len(circ.instructions), PauliString.from_text(text), omega)


# ---------------------------------------------------------------------------
# stabilizer group
# ---------------------------------------------------------------------------


def test_group_n2_elements_and_signs():
    group = cert.ghz_stabilizer_group(2)
    assert len(group) == 4
    assert sorted(str(s) for s in group) == ["+II", "+XX", "+ZZ", "-YY"]


def test_group_n3_contains_minus_yyx():
    assert "-YYX" in {str(s) for s in cert.ghz_stabilizer_group(3)}


def test_group_is_lazy_and_mask_indexable():
    group = cert.ghz_stabilizer_group(40)  # far too large to materialise
    assert len(group) == 1 << 40
    it = iter(group)
    assert str(next(it)) == "+" + "I" * 40
    assert group[1].x_bits == (1 << 40) - 1  # bit 0 selects the all-X generator
    assert group[0b110].z_bits == 0b101  # adjacent ZZ generators overlap on qubit 1
    with pytest.raises(IndexError):
        group[1 << 40]
    with pytest.raises(ValueError):
        cert.ghz_stabilizer_group(1)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
def test_group_elements_stabilize_ghz(n):
    ghz = sv.ghz_state(n)
    for s in cert.ghz_stabilizer_group(n):
        assert np.allclose(sv.apply_pauli(ghz, s), ghz, atol=1e-12)


def _generator_product(group, mask):
    p = PauliString(group.n)
    for i in range(group.n):
        if (mask >> i) & 1:
            p = p * group.generator(i)
    return p


def test_group_closed_form_matches_generator_products():
    for n in range(2, 9):
        group = cert.ghz_stabilizer_group(n)
        for mask in range(1 << n):
            assert group[mask] == _generator_product(group, mask), (n, mask)
    group = cert.ghz_stabilizer_group(100)
    rng = np.random.default_rng(100)
    masks = [int.from_bytes(rng.bytes(13), "little") % (1 << 100) for _ in range(200)]
    masks += [0, 1, (1 << 100) - 1, (1 << 100) - 2]
    xs, zs, signs = group.element_bits(np.array(masks, dtype=object))
    for mask, x, z, sign in zip(masks, xs, zs, signs):
        want = _generator_product(group, mask)
        assert group[mask] == want
        assert PauliString(100, x, z, int(sign)) == want


def test_group_closed_under_multiplication():
    group = list(cert.ghz_stabilizer_group(3))
    elems = set(group)
    assert len(elems) == 8
    for a in group:
        for b in group:
            assert a * b in elems


# ---------------------------------------------------------------------------
# CNOT transfer support
# ---------------------------------------------------------------------------


def test_support_table_entries():
    support = cert.cnot_process_support()
    assert len(support) == 16
    assert ("I", "I", "I", "I", 1) in support
    assert ("Y", "Y", "X", "Z", -1) in support
    negatives = {a + b + c + d for a, b, c, d, v in support if v == -1}
    assert negatives == {"YYXZ", "XZYY"}
    # each input pair appears exactly once
    assert len({t[:2] for t in support}) == 16


def test_choi_stabilizers_built_once_and_returned_in_a_fresh_list():
    first = cert.cnot_choi_stabilizers()
    assert len(first) == 16
    first.clear()
    second = cert.cnot_choi_stabilizers()
    assert len(second) == 16 and second is not cert.cnot_choi_stabilizers()
    # the operators themselves are shared, not rebuilt per call
    assert all(a is b for a, b in zip(second, cert.cnot_choi_stabilizers()))
    # tuple (P -> value Q) gives value (-1)^{#Y in P} Q (x) P
    for stab, (li, lj, lk, ll, rho) in zip(second, cert.cnot_process_support()):
        assert str(stab.mod_phase()) == str(PauliString.from_text(lk + ll + li + lj))
        assert stab.sign == rho * (-1) ** (li + lj).count("Y")


def test_support_table_against_dense_brute_force():
    cnot = sv.cnot_matrix()
    support = {t[:4]: t[4] for t in cert.cnot_process_support()}
    letters = "IXYZ"
    seen = set()
    for li in letters:
        for lj in letters:
            p_in = PauliString.from_text(li + lj).to_matrix()
            n_y = (li == "Y") + (lj == "Y")
            for lk in letters:
                for ll in letters:
                    p_out = PauliString.from_text(lk + ll).to_matrix()
                    plain = np.trace(p_out @ cnot @ p_in @ cnot).real / 4.0
                    starred = np.trace(p_out @ cnot @ p_in.conj() @ cnot).real / 4.0
                    key = (li, lj, lk, ll)
                    if key in support:
                        seen.add(key)
                        assert plain == pytest.approx(support[key], abs=1e-12)
                        # conjugating the input only flips per Y letter; the
                        # estimator folds the same factor into its state prep
                        assert starred == pytest.approx(support[key] * (-1) ** n_y, abs=1e-12)
                    else:
                        assert abs(plain) < 1e-12 and abs(starred) < 1e-12
    assert seen == set(support)


# ---------------------------------------------------------------------------
# composition helpers and shot providers
# ---------------------------------------------------------------------------


def test_pauli_readout_round_trip():
    # preparing the +-1 eigenstate of each letter from plain gates and
    # reading the same letter back must record the matching bit on every shot
    prep = {
        ("X", 1): ("h",), ("X", -1): ("x", "h"), ("Y", 1): ("h", "s"),
        ("Y", -1): ("h", "sdg"), ("Z", 1): (), ("Z", -1): ("x",),
    }
    for (letter, sign), gates in prep.items():
        circ = C.Circuit(1)
        for g in gates:
            circ.add(g, 0)
        readout, recs = cert.pauli_readout_circuit(circ, {0: letter})
        res = tb.run_batch(readout, 8, master_seed=2)
        assert (res.records[:, recs[0]] == (0 if sign == 1 else 1)).all()
        # the readout is appended to a copy; the circuit itself is untouched
        assert len(circ.instructions) == len(gates) and circ.n_records == 0
    with pytest.raises(ValueError):
        cert.pauli_readout_circuit(C.Circuit(1), {0: "Q"})


def test_state_source_basics():
    circ = C.ghz_dynamic(4)
    src = cert.CircuitStateSource(circ)
    assert src.n_data == 4
    ones = src.parities([PauliString(4)], 5, [0])[0]
    assert ones.shape == (5,) and (ones == 1.0).all()
    assert src.parities([], 5, []).shape == (0, 5)
    with pytest.raises(ValueError):
        src.parities([PauliString(3)], 5, [0])
    # <ZZZZ> and <XXXX> are +1 on GHZ_4
    for text in ("ZZZZ", "XXXX"):
        par = src.parities([PauliString.from_text(text)], 64, [3])[0]
        assert (par == 1.0).all()
    # <ZIII> averages to zero
    par = src.parities([PauliString.from_text("ZIII")], 4096, [5])[0]
    assert abs(par.mean()) < 0.1


def _readout_parities(circ, data, pauli, shots, seed, noise):
    """Per-shot parities the long way: a readout circuit per operator."""
    basis = {data[q]: pauli.letter(q) for q in pauli.support}
    if not basis:
        return np.ones(shots)
    readout, recs = cert.pauli_readout_circuit(circ, basis)
    res = tb.run_batch(readout, shots, master_seed=seed, noise=noise)
    bits = res.records[:, [recs[q] for q in sorted(basis)]].sum(axis=1) % 2
    return 1.0 - 2.0 * bits


def _check_parities(src, ops, shots, seeds):
    """Reads ``ops`` on ``src`` in one call and checks every row against a
    read of its operator alone.  A row the reference state fixes (e = +-1)
    must equal, shot for shot, the parity its readout circuit records.  A
    row it does not fix (e = 0) must hold +-1 values that the noise does
    not change and that a read from a shot offset continues; the mean of
    those rows must lie within 4 sigma of 0.  Returns the parities and e."""
    got = src.parities(ops, shots, seeds)
    assert got.shape == (len(ops), shots)
    c = src.circuit
    x, z = pauli_bits(ops, c.n_qubits, qubits=src.data)
    e = tb.compile(c).reference.bit_expectations(x, z)
    quiet = cert.CircuitStateSource(c, src.data).parities(ops, shots, seeds)
    half = shots // 2
    for k, (op, seed) in enumerate(zip(ops, seeds)):
        np.testing.assert_array_equal(src.parities([op], shots, [seed])[0], got[k])
        if e[k]:
            np.testing.assert_array_equal(got[k], _readout_parities(c, src.data, op, shots, seed, src.noise))
            continue
        assert set(got[k]) <= {-1.0, 1.0}
        np.testing.assert_array_equal(got[k], quiet[k])
        read = (x[k : k + 1], z[k : k + 1])
        tail = tb.run_batch(c, shots - half, master_seed=[seed], noise=src.noise, shot_offset=half, read=read)
        np.testing.assert_array_equal(tail[0], got[k, half:])
    coins = got[e == 0]
    assert coins.size and abs(coins.mean()) < 4 / np.sqrt(coins.size)
    return got, e


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("n", [6, 67])
def test_batched_parities_match_readout_circuits_per_shot(mode, n):
    """The one-batch source reads every shot's parity of an operator the
    state fixes from its end frame; each must equal the parity a readout
    circuit records for that shot, noisy sites and two frame words (n = 67)
    included.  Operators the state does not fix (e = 0) read fair coins."""
    circ = C.ghz_dynamic(n, mode=mode)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.03, lambda_meas=0.05))
    rng = np.random.default_rng(n)
    group = cert.ghz_stabilizer_group(n)
    ops = [group[int(rng.integers(1 << min(n, 62)))].mod_phase() for _ in range(5)]
    ops += [group[(1 << n) - 1].mod_phase(), PauliString(n)]
    ops += [PauliString.from_text("Z" + "I" * (n - 1)), PauliString.from_text("I" * (n - 2) + "XY")]
    seeds = [int(s) for s in rng.integers(0, 2**63, size=len(ops))]
    shots = 24
    for data in (tuple(range(n)), tuple(reversed(range(n)))):
        got, e = _check_parities(cert.CircuitStateSource(circ, data_qubits=data, noise=sites), ops, shots, seeds)
        assert e.tolist().count(0) == 2
    # the operators the GHZ state does not fix really are random here
    assert set(got[-2]) == {-1.0, 1.0}

    # m seeds and zero shots, as a zero-shot replay of a batched call makes
    empty = tb.run_batch(circ, 0, master_seed=seeds, noise=sites)
    assert empty.records.shape == (0, circ.n_records)
    assert empty.readout_flips(*pauli_bits(ops, n)).shape == (len(ops), 0)


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
def test_batched_parities_fold_in_the_reference_correction(mode):
    """A deterministic 1 fires the corrections of the reference run itself,
    in either schedule (a deferred correction is applied as a fed-forward
    one is), and the records must see it.  On 3 qubits, and on 70 with the
    pair at qubits 0 and 68 and the deterministic record on 69, so the
    corrections reach past qubit 64; there the frame rows of 1, 63, 65 and
    100 shots hold no bits past the last shot."""
    for n in (3, 70):
        pair = (0, n - 2, n - 1)  # the Bell pair and the qubit held in |1>

        def on(text):
            letters = ["I"] * n
            for q, letter in zip(pair, text):
                letters[q] = letter
            return PauliString.from_text("".join(letters))

        circ = C.Circuit(n)
        circ.meta = {"mode": mode}
        circ.add("h", 0, start=0.0)
        circ.add("x", n - 1, start=0.0)
        circ.add("cx", 0, n - 2, start=1.0)
        rec = circ.measure(n - 1, start=1.0)
        circ.add("cpauli", 0, start=3.0, pauli="Z", parity=(rec,))
        circ.add("cpauli", n - 2, start=3.0, pauli="X", parity=(rec,))
        sites = [_site(2, on("XII"), 0.2), _site(6, on("IZI"), 0.3)]
        ops = [on(t) for t in ("XXI", "ZZI", "YYI", "ZII", "IIZ", "XYZ")]
        seeds = [5, 6, 7, 8, 9, 10]
        _, e = _check_parities(cert.CircuitStateSource(circ, noise=sites), ops, 32, seeds)
        assert e.tolist() == [-1, -1, -1, 0, -1, 0]
        noiseless = cert.CircuitStateSource(circ).parities(ops[:3], 4, seeds[:3])
        # corrected state: -XX, -ZZ (hence -YY)
        np.testing.assert_array_equal(noiseless, -np.ones((3, 4)))
        if n < 64:
            continue
        for shots in (1, 63, 65, 100):
            res = tb.run_batch(circ, shots, master_seed=seeds[0], noise=sites)
            past = np.arange(64 * res.fx.shape[1]) >= shots
            for rows in (res.fx, res.fz):
                assert not tb._unpack_rows(rows, 64 * rows.shape[1])[:, past].any()


def _record_read_chunks(monkeypatch):
    """Patches ``Program.read``'s helpers to record, for each draw of a
    chunk of operators, (operators in the chunk, words of shots drawn)."""
    chunks = []
    anticommuting, fired = tb.Program._anticommuting, tb.CounterRandom.fired

    def chunk(self, sx, *args):
        chunks.append([sx.shape[0], 0])
        return anticommuting(self, sx, *args)

    def drawn(self, streams, thresholds, ids, seeds=None):
        if seeds is not None:  # a pair-list draw of Program.read
            chunks[-1][1] = max(chunks[-1][1], -(-ids.size // 64))
        return fired(self, streams, thresholds, ids, seeds)

    monkeypatch.setattr(tb.Program, "_anticommuting", chunk)
    monkeypatch.setattr(tb.CounterRandom, "fired", drawn)
    return chunks


def test_batched_parities_split_into_bounded_calls(monkeypatch):
    """Parities are read in one ``run_batch`` call, whatever the shots,
    and ``Program.read`` bounds its own memory by ``_READ_BYTES``: it reads
    the operators a chunk at a time, and an operator too large alone a
    range of whole 64-shot words at a time, so that no chunk holds more
    than (operators x draws) x (65 + 8 words) bytes.  An operator the state
    does not fix (e = 0) takes no part in the chunks.  No split changes a
    value."""
    circ = C.ghz_dynamic(5)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_cnot=0.05, lambda_meas=0.1))
    src = cert.CircuitStateSource(circ, noise=sites)
    group = cert.ghz_stabilizer_group(5)
    ops = [group[k].mod_phase() for k in (3, 7, 12, 31, 0)] + [PauliString.from_text("ZIIII")]  # e = 0 on GHZ
    seeds = [11, 12, 13, 14, 15, 16]
    all_shots = (16, 100, 300)
    whole = {shots: src.parities(ops, shots, seeds) for shots in all_shots}
    draws = tb.compile(circ, sites).streams.size
    calls = []
    run_batch = tb.run_batch

    def counted(circuit, shots, *args, **kwargs):
        calls.append(kwargs.get("read") is not None)
        return run_batch(circuit, shots, *args, **kwargs)

    monkeypatch.setattr(tb, "run_batch", counted)
    chunks = _record_read_chunks(monkeypatch)
    # budgets of a few operators a chunk, then of one operator whose shots
    # are drawn a word at a time
    for budget in (2 * draws * 73 + 7, 3 * draws * 81, draws * 73):
        monkeypatch.setattr(tb, "_READ_BYTES", budget)
        for shots in all_shots:
            calls.clear()
            chunks.clear()
            np.testing.assert_array_equal(src.parities(ops, shots, seeds), whole[shots])
            assert calls == [True]
            assert sum(m for m, _ in chunks) == len(ops) - 1 and len(chunks) > 1
            for m, words in chunks:
                assert words <= -(-shots // 64) and m * draws * (65 + 8 * words) <= budget
    assert max(words for _, words in chunks) == 1  # 300 shots, five words, a word at a time
    with pytest.raises(ValueError):
        src.parities(ops, 4, seeds[:2])


def test_widened_copies_keep_the_schedule():
    """The Choi-widened circuits of the sampler and of the dense oracle
    keep the circuit's meta, so ``tally`` prices them on the same
    schedule as the bare circuit: a deferred correction waits for no
    feed-forward step."""
    seen = []
    for mode in ("feed_forward", "post_process"):
        circ = C.long_range_cnot_dynamic(3, mode=mode)
        wide = cert.choi_state_source(circ, (0, 4)).circuit
        assert wide.meta == circ.meta and wide.meta is not circ.meta
        assert C.tally(wide).feed_forward_steps == C.tally(circ).feed_forward_steps
        seen.append(C.tally(wide).feed_forward_steps)
    assert seen[0] > 0 and seen[1] == 0
    circ = C.long_range_cnot_dynamic(1, mode="post_process")
    built = []
    real = sv.Circuit

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "Circuit", recording)
        sv.process_fidelity(circ, sv.cnot_matrix(), (0, 2))
    assert [c.meta for c in built] == [circ.meta]
    assert C.tally(built[0]).feed_forward_steps == 0


def test_choi_source_validation():
    base = C.Circuit(2)
    base.add("cx", 0, 1, start=0.0)
    with pytest.raises(ValueError):
        cert.choi_state_source(base, data_in=(0, 1), data_out=(0,))
    src = cert.choi_state_source(base, data_in=(0, 1))
    assert src.n_data == 4 and src.circuit.n_qubits == 4
    with pytest.raises(ValueError):
        src.parities([PauliString.from_text("XX")], 4, [0])


def test_state_sources_reject_repeated_or_outside_data_qubits():
    """A repeated data qubit would read one qubit for two (a Choi source
    with ``data_out=(0, 0)`` read F = 0.5), and one outside the circuit
    failed in numpy's indexing; both are refused, naming the qubits."""
    circ = C.long_range_cnot_dynamic(2)
    with pytest.raises(ValueError, match=r"data qubits \[0\] repeated"):
        cert.choi_state_source(circ, (0, 3), (0, 0))
    with pytest.raises(ValueError, match=r"data qubits \[9\] outside the circuit's qubits 0..3"):
        cert.CircuitStateSource(circ, data_qubits=(0, 1, 2, 3, 9))
    with pytest.raises(ValueError, match=r"data qubits \[-1\] outside"):
        cert.CircuitStateSource(circ, data_qubits=(-1, 0))
    assert cert.choi_state_source(circ, (0, 3), (3, 0)).data == (3, 0, 4, 5)


@pytest.mark.parametrize(
    "variant,mode", [("dynamic", "feed_forward"), ("dynamic", "post_process"), ("II", "feed_forward")]
)
def test_choi_source_matches_readout_circuits_per_shot(variant, mode):
    """Every Choi stabilizer reads the same parity shot for shot from the
    end frames as from a readout circuit on the widened circuit, and
    operators the Choi state does not fix read fair coins; the widened
    circuit fires the same noise on the same shots as the circuit itself."""
    circ, data_in, data_out = cli._cnot_circuit(variant, 3, 3.65, mode)
    assert (data_out is not None) == (variant == "II")
    sites = N.attach_noise(circ, N.NoiseParams(lambda_idle=0.03, lambda_cnot=0.05, lambda_meas=0.05, mu=3.65))
    src = cert.choi_state_source(circ, data_in, data_out, noise=sites)
    ops = [s.mod_phase() for s in cert.cnot_choi_stabilizers()]
    ops += [PauliString.from_text(t) for t in ("ZIII", "IXZI", "YYYY")]
    rng = np.random.default_rng(3)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=len(ops))]
    shots = 32
    got, e = _check_parities(src, ops, shots, seeds)
    assert (e[:16] != 0).all() and (e[16:] == 0).all()
    assert set(got[-3]) == {-1.0, 1.0}  # ZIII is random on a Choi state
    assert (got[:16] != 1.0).any()  # the noise does flip stabilizers

    shift = len(src.circuit.instructions) - len(circ.instructions)
    wide = tb.run_batch(src.circuit, 64, master_seed=9, noise=src.noise)
    own = tb.run_batch(circ, 64, master_seed=9, noise=sites)
    where = lambda res, d: [(e.before_index - d, e.pauli.key()) for e in res.sites]
    assert where(wide, shift) == where(own, 0)
    np.testing.assert_array_equal(wide.fired, own.fired)
    assert own.fired.any()


# ---------------------------------------------------------------------------
# GHZ fidelity estimator
# ---------------------------------------------------------------------------


def test_ghz_noiseless_is_exactly_one():
    src = cert.CircuitStateSource(C.ghz_dynamic(6))
    est, se = cert.estimate_ghz_fidelity(src, 6, 20, shots_per_sample=4, seed=1)
    assert est == 1.0 and se == 0.0


def test_ghz_modes_agree_noiselessly():
    ff = cert.CircuitStateSource(C.ghz_dynamic(4))
    pp = cert.CircuitStateSource(C.ghz_dynamic(4, mode="post_process"))
    for seed in (0, 1):
        assert cert.estimate_ghz_fidelity(ff, 4, 12, 4, seed=seed) == cert.estimate_ghz_fidelity(
            pp, 4, 12, 4, seed=seed
        )


def test_ghz_saturated_flip_is_half():
    """A bit-flip channel at full strength on one qubit halves the fidelity;
    an always-applied flip zeroes it.  The dense engine pins both values and
    the sampler reproduces the first."""
    circ = C.ghz_unitary(4)
    ghz = sv.ghz_state(4)
    saturated = _end_site(circ, "XIII", 0.5)
    always = _end_site(circ, "XIII", 1.0)
    assert sv.average_state_fidelity(circ, ghz, sites=[saturated]) == pytest.approx(0.5, abs=1e-12)
    assert sv.average_state_fidelity(circ, ghz, sites=[always]) == pytest.approx(0.0, abs=1e-12)
    src = cert.CircuitStateSource(circ, noise=[saturated])
    est, se = cert.estimate_ghz_fidelity(src, 4, 400, shots_per_sample=8, seed=4)
    assert se > 0.0
    assert abs(est - 0.5) < 3 * se


def test_ghz_noisy_dynamic_matches_dense_average():
    circ = C.ghz_dynamic(4)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_cnot=0.06, lambda_meas=0.1))
    exact = sv.average_state_fidelity(circ, sv.ghz_state(4), sites=sites)
    src = cert.CircuitStateSource(circ, noise=sites)
    est, se = cert.estimate_ghz_fidelity(src, 4, 300, shots_per_sample=16, seed=0)
    assert se > 0.0
    assert abs(est - exact) < 3 * se


def test_ghz_estimate_can_go_negative():
    # GHZ with Z on qubit 0 has exact fidelity 0 and fixes every GHZ
    # stabilizer (the ones with X letters at the opposite sign); a
    # five-sample estimate lands below zero on this seed and is returned
    # as-is (no clipping to [0, 1])
    circ = C.ghz_unitary(4)
    circ.add("z", 0, start=circ.makespan)
    assert sv.average_state_fidelity(circ, sv.ghz_state(4)) == pytest.approx(0.0, abs=1e-12)
    src = cert.CircuitStateSource(circ)
    est, se = cert.estimate_ghz_fidelity(src, 4, 5, shots_per_sample=2, seed=1)
    assert est < 0.0


def test_ghz_estimator_validation():
    src = cert.CircuitStateSource(C.ghz_dynamic(4))
    with pytest.raises(ValueError):
        cert.estimate_ghz_fidelity(src, 6, 4)  # provider size mismatch
    with pytest.raises(ValueError):
        cert.estimate_ghz_fidelity(src, 4, 0)
    with pytest.raises(ValueError):
        cert.estimate_ghz_fidelity(src, 4, 4, shots_per_sample=0)


# ---------------------------------------------------------------------------
# CNOT gate-fidelity estimator
# ---------------------------------------------------------------------------


def test_cnot_noiseless_teleported_is_exactly_one():
    src = cert.choi_state_source(C.long_range_cnot_dynamic(3, mu=1.0), data_in=(0, 4))
    est, se = cert.estimate_cnot_gate_fidelity(src, 24, shots_per_sample=4, seed=5)
    assert est == 1.0 and se == 0.0


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
def test_cnot_noiseless_is_exactly_one_at_99_ancillas(mode):
    circ = C.long_range_cnot_dynamic(99, mu=3.65, mode=mode)
    src = cert.choi_state_source(circ, data_in=(0, 100))
    est, se = cert.estimate_cnot_gate_fidelity(src, 64, shots_per_sample=8, seed=11)
    assert est == 1.0 and se == 0.0


@pytest.mark.parametrize("variant", ["dynamic", "Ia", "Ib", "Ic", "II"])
def test_cnot_variants_match_dense_at_readme_rates(variant):
    circ, data_in, data_out = cli._cnot_circuit(variant, 2, 3.65, "feed_forward")
    sites = N.attach_noise(circ, N.NoiseParams(lambda_idle=0.03, lambda_cnot=0.02, lambda_meas=0.03, mu=3.65))
    exact_gate = N.gate_fidelity_from_process(
        sv.process_fidelity(circ, sv.cnot_matrix(), data=data_in, sites=sites, data_out=data_out), 4
    )
    src = cert.choi_state_source(circ, data_in, data_out, noise=sites)
    est, se = cert.estimate_cnot_gate_fidelity(src, 1000, shots_per_sample=16, seed=21)
    assert se > 0.0
    assert abs(est - exact_gate) < 3 * se


class _FrameSource:
    """A state source whose parities are read off sampled end frames
    (``BatchResult.readout_flips``), one ``run_batch`` per sample: the
    path the error-map read replaced, kept as its oracle."""

    def __init__(self, src):
        self.src, self.n_data = src, src.n_data

    def parities(self, paulis, shots, seeds):
        c = self.src.circuit
        x, z = pauli_bits(paulis, c.n_qubits, qubits=self.src.data)
        out = np.empty((len(paulis), shots))
        for k, seed in enumerate(seeds):
            res = tb.run_batch(c, shots, master_seed=int(seed), noise=self.src.noise)
            e = res.reference.bit_expectations(x[k : k + 1], z[k : k + 1])[0]
            assert e != 0
            out[k] = e * np.where(res.readout_flips(x[k : k + 1], z[k : k + 1])[0], -1.0, 1.0)
        return out


def test_cnot_estimate_unchanged_by_batch_splits(monkeypatch):
    """The map-read estimate equals the one read off sampled frames, and
    no chunking of the read (``_READ_BYTES``) changes it."""
    circ = C.long_range_cnot_dynamic(2, mu=1.0)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_cnot=0.08, lambda_meas=0.1))
    src = cert.choi_state_source(circ, data_in=(0, 3), noise=sites)
    whole = cert.estimate_cnot_gate_fidelity(src, 40, shots_per_sample=10, seed=4)
    assert cert.estimate_cnot_gate_fidelity(_FrameSource(src), 40, shots_per_sample=10, seed=4) == whole
    draws = tb.compile(src.circuit, src.noise).streams.size
    chunks = _record_read_chunks(monkeypatch)
    # 25, 7 and 1 operators a chunk, of the 40 (one word of shots each)
    for ops in (25, 7, 1):
        budget = ops * draws * 73
        monkeypatch.setattr(tb, "_READ_BYTES", budget)
        chunks.clear()
        assert cert.estimate_cnot_gate_fidelity(src, 40, shots_per_sample=10, seed=4) == whole
        assert max(m for m, _ in chunks) == ops and len(chunks) == -(-40 // ops)


def test_estimators_draw_every_shot_inside_run_batch(monkeypatch):
    """Both estimators sample through ``tableau.run_batch`` alone, and
    exactly m x shots shots of it: the sampler's entry points
    (``Program.sample`` and ``Program.read``) run only inside it, and no
    call defers its draws past its return.  A benchmark that counts shots
    and sampler time by wrapping ``run_batch`` relies on both.  Every
    parity takes the one read path, operators the state does not fix
    (e = 0) included: one ``run_batch`` call with ``read`` a ``parities``
    call, and no frame is ever sampled (``Program.sample``)."""
    shots, inside, outside, ran = [], [0], [], []
    run_batch = tb.run_batch

    def counted(circuit, n, *args, **kwargs):
        inside[0] += 1
        try:
            result = run_batch(circuit, n, *args, **kwargs)
        finally:
            inside[0] -= 1
        shots.append((n, kwargs.get("read") is not None))
        return result

    def guarded(name):
        method = getattr(tb.Program, name)

        def call(self, *args, **kwargs):
            ran.append(name)
            if not inside[0]:
                outside.append(name)
            return method(self, *args, **kwargs)

        return call

    def one_path():
        return all(read for _, read in shots) and "sample" not in ran and not outside

    monkeypatch.setattr(tb, "run_batch", counted)
    for name in ("sample", "read"):
        monkeypatch.setattr(tb.Program, name, guarded(name))
    params = N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.03, lambda_meas=0.05, mu=1.0)
    ghz = C.ghz_dynamic(6, mu=1.0)
    src = cert.CircuitStateSource(ghz, noise=N.attach_noise(ghz, params))
    cert.estimate_ghz_fidelity(src, 6, 30, shots_per_sample=24, seed=2)
    assert sum(n for n, _ in shots) == 30 * 24 and one_path()
    shots.clear()
    # e = +1, +1, 0, 0 on GHZ_6
    mixed = [PauliString.from_text(t) for t in ("XXXXXX", "ZZIIII", "ZIIIII", "IXIYII")]
    src.parities(mixed, 24, [1, 2, 3, 4])
    assert shots == [(4 * 24, True)] and one_path()
    shots.clear()
    src.parities(mixed[2:], 24, [3, 4])  # e = 0 alone
    assert shots == [(2 * 24, True)] and one_path()
    shots.clear()
    for variant in ("dynamic", "Ia", "II"):
        circ, data_in, data_out = cli._cnot_circuit(variant, 3, 1.0, "feed_forward")
        choi = cert.choi_state_source(circ, data_in, data_out, noise=N.attach_noise(circ, params))
        cert.estimate_cnot_gate_fidelity(choi, 25, shots_per_sample=16, seed=3)
        assert sum(n for n, _ in shots) == 25 * 16 and one_path()
        shots.clear()
        # e = +1, 0, +1 on the Choi state of CNOT
        choi.parities([PauliString.from_text(t) for t in ("XXXI", "ZIII", "ZIZI")], 16, [5, 6, 7])
        assert shots == [(3 * 16, True)] and one_path()
        shots.clear()
    assert "read" in ran


def test_unfixed_operators_are_left_out_of_the_circuit_read(monkeypatch):
    """An operator the reference does not fix (e = 0) hashes no draw of
    the circuit: ``run_batch`` hands ``Program.read`` only the operators
    the reference fixes, and no readout circuit is compiled."""
    circ = C.ghz_dynamic(5)
    src = cert.CircuitStateSource(circ, noise=N.attach_noise(circ, N.NoiseParams(lambda_cnot=0.05, lambda_meas=0.1)))
    reads, compiled = [], []
    read, compile_ = tb.Program.read, tb.compile

    def counted(self, sx, sz, *args, **kwargs):
        reads.append((self.n_records, sx.shape[0]))
        return read(self, sx, sz, *args, **kwargs)

    monkeypatch.setattr(tb.Program, "read", counted)
    monkeypatch.setattr(tb, "compile", lambda c, *args: compiled.append(c) or compile_(c, *args))
    ops = [cert.ghz_stabilizer_group(5)[7].mod_phase(), PauliString.from_text("ZIIII")]
    src.parities(ops, 16, [1, 2])
    assert reads == [(circ.n_records, 1)] and compiled == [circ]


def test_cnot_saturated_floor_is_two_fifths():
    base = C.Circuit(2)
    base.add("cx", 0, 1, start=0.0)
    sites = [_end_site(base, "ZI", 0.5), _end_site(base, "IX", 0.5)]
    exact = sv.process_fidelity(base, sv.cnot_matrix(), data=(0, 1), sites=sites)
    assert exact == pytest.approx(0.25, abs=1e-12)
    assert N.gate_fidelity_from_process(exact, 4) == pytest.approx(0.4, abs=1e-12)
    src = cert.choi_state_source(base, data_in=(0, 1), noise=sites)
    est, se = cert.estimate_cnot_gate_fidelity(src, 400, shots_per_sample=25, seed=0)
    assert se > 0.0
    assert abs(est - 0.4) < 3 * se


def test_cnot_dephased_control_matches_dense():
    base = C.Circuit(2)
    base.add("cx", 0, 1, start=0.0)
    sites = [_end_site(base, "ZI", N.omega(0.1))]
    exact_gate = N.gate_fidelity_from_process(
        sv.process_fidelity(base, sv.cnot_matrix(), data=(0, 1), sites=sites), 4
    )
    src = cert.choi_state_source(base, data_in=(0, 1), noise=sites)
    est, se = cert.estimate_cnot_gate_fidelity(src, 300, shots_per_sample=16, seed=0)
    assert abs(est - exact_gate) < 3 * se


def test_cnot_noisy_teleported_matches_dense():
    circ = C.long_range_cnot_dynamic(2, mu=1.0)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_cnot=0.08, lambda_meas=0.1))
    exact_gate = N.gate_fidelity_from_process(
        sv.process_fidelity(circ, sv.cnot_matrix(), data=(0, 3), sites=sites), 4
    )
    src = cert.choi_state_source(circ, data_in=(0, 3), noise=sites)
    est, se = cert.estimate_cnot_gate_fidelity(src, 300, shots_per_sample=16, seed=0)
    assert abs(est - exact_gate) < 3 * se


def test_cnot_estimate_can_go_negative():
    base = C.Circuit(2)
    base.add("cx", 0, 1, start=0.0)
    src = cert.choi_state_source(base, data_in=(0, 1), noise=[_end_site(base, "XZ", 1.0)])
    est, se = cert.estimate_cnot_gate_fidelity(src, 8, shots_per_sample=2, seed=7)
    assert est < 0.0


def test_cnot_estimator_validation():
    base = C.Circuit(2)
    base.add("cx", 0, 1, start=0.0)
    narrow = cert.choi_state_source(base, data_in=(0,))
    with pytest.raises(ValueError):
        cert.estimate_cnot_gate_fidelity(narrow, 4)
    src = cert.choi_state_source(base, data_in=(0, 1))
    with pytest.raises(ValueError):
        cert.estimate_cnot_gate_fidelity(src, 0)


# ---------------------------------------------------------------------------
# estimator statistics
# ---------------------------------------------------------------------------


def test_ghz_estimator_unbiased_over_repetitions():
    circ = C.ghz_dynamic(4)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_cnot=0.06, lambda_meas=0.1))
    exact = sv.average_state_fidelity(circ, sv.ghz_state(4), sites=sites)
    src = cert.CircuitStateSource(circ, noise=sites)
    reps = np.array(
        [cert.estimate_ghz_fidelity(src, 4, 16, shots_per_sample=8, seed=s)[0] for s in range(200)]
    )
    spread = reps.std(ddof=1)
    assert abs(reps.mean() - exact) < 3 * spread / np.sqrt(len(reps))
    assert abs(reps.mean() - exact) < 3 * spread


def test_cnot_estimator_unbiased_over_repetitions():
    circ = C.long_range_cnot_dynamic(2, mu=1.0)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_cnot=0.08, lambda_meas=0.1))
    exact_gate = N.gate_fidelity_from_process(
        sv.process_fidelity(circ, sv.cnot_matrix(), data=(0, 3), sites=sites), 4
    )
    src = cert.choi_state_source(circ, data_in=(0, 3), noise=sites)
    reps = np.array(
        [cert.estimate_cnot_gate_fidelity(src, 12, shots_per_sample=6, seed=s)[0] for s in range(200)]
    )
    spread = reps.std(ddof=1)
    assert abs(reps.mean() - exact_gate) < 3 * spread / np.sqrt(len(reps))
    assert abs(reps.mean() - exact_gate) < 3 * spread


def _hash_pm1(seed, shots):
    x = np.uint64(seed) + np.arange(1, shots + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return 1.0 - 2.0 * (x >> np.uint64(63)).astype(float)


class _SaturatedFlipSource:
    """Synthetic provider with the exact per-shot statistics of GHZ_3 under a
    saturated bit flip on qubit 0: anticommuting operators give fair +-1
    coins, the rest are deterministic."""

    n_data = 3

    def parities(self, paulis, shots, seeds):
        return np.array([_hash_pm1(s, shots) if p.z_bit(0) else np.ones(shots) for p, s in zip(paulis, seeds)])


def test_ghz_error_scales_as_inverse_sqrt_m():
    src = _SaturatedFlipSource()
    stds = {}
    for m in (64, 256, 1024):
        vals = np.array(
            [
                cert.estimate_ghz_fidelity(src, 3, m, shots_per_sample=4, seed=1000 * m + r)[0]
                for r in range(120)
            ]
        )
        stds[m] = vals.std(ddof=1)
    assert 1.6 < stds[64] / stds[256] < 2.4
    assert 1.6 < stds[256] / stds[1024] < 2.4


# ---------------------------------------------------------------------------
# determinism and sample records
# ---------------------------------------------------------------------------


def test_estimates_are_deterministic_in_seed():
    circ = C.ghz_dynamic(4)
    sites = N.attach_noise(circ, N.NoiseParams(lambda_cnot=0.06, lambda_meas=0.1))
    src = cert.CircuitStateSource(circ, noise=sites)
    a = cert.estimate_ghz_fidelity(src, 4, 24, shots_per_sample=8, seed=9)
    b = cert.estimate_ghz_fidelity(src, 4, 24, shots_per_sample=8, seed=9)
    c = cert.estimate_ghz_fidelity(src, 4, 24, shots_per_sample=8, seed=10)
    assert a == b and a != c

    src = cert.choi_state_source(C.long_range_cnot_dynamic(2, mu=1.0), data_in=(0, 3), noise=[])
    x = cert.estimate_cnot_gate_fidelity(src, 12, shots_per_sample=4, seed=3)
    y = cert.estimate_cnot_gate_fidelity(src, 12, shots_per_sample=4, seed=3)
    assert x == y


def test_sample_records_as_json_lines():
    circ = C.ghz_dynamic(4)
    src = cert.CircuitStateSource(circ)
    sink = io.StringIO()
    est, _ = cert.estimate_ghz_fidelity(src, 4, 6, shots_per_sample=4, seed=2, sink=sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 6
    docs = [json.loads(line) for line in lines]
    assert [d["sample_index"] for d in docs] == list(range(6))
    for d in docs:
        assert set(d) == {"sample_index", "operator", "ideal_value", "measured_value", "shots"}
        assert d["shots"] == 4 and d["ideal_value"] == 1
        assert set(d["operator"].lstrip("+-")) <= set("IXYZ")
    assert est == pytest.approx(np.mean([d["measured_value"] for d in docs]))

    # a callable sink collects the same records
    got = []
    cert.estimate_ghz_fidelity(src, 4, 6, shots_per_sample=4, seed=2, sink=got.append)
    assert got == docs

    src = cert.choi_state_source(C.long_range_cnot_dynamic(1, mu=1.0), data_in=(0, 2))
    sink = io.StringIO()
    cert.estimate_cnot_gate_fidelity(src, 5, shots_per_sample=4, seed=2, sink=sink)
    docs = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert len(docs) == 5
    for d in docs:
        assert set(d["operator"]) == {"input", "output"}
        assert d["ideal_value"] in (-1, 1)
