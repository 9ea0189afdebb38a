"""Dense engine checks: gates, measurement branching, fidelities, Choi math."""

from itertools import permutations

import numpy as np
import pytest

from dyncirc import circuits as C
from dyncirc import statevector as sv
from dyncirc.circuits import Circuit
from dyncirc.pauli import PauliString


class Site:
    """Minimal noise-site stand-in for exact enumeration tests."""

    def __init__(self, before_index, pauli, omega):
        self.before_index = before_index
        self.pauli = pauli
        self.omega = omega


def test_zero_and_basis_states():
    psi = sv.zero_state(3)
    assert psi[0] == 1.0 and np.count_nonzero(psi) == 1
    phi = sv.basis_state(3, 0b110)
    assert phi[6] == 1.0


def test_capacity_cap():
    with pytest.raises(ValueError):
        sv.zero_state(15)


def test_apply_unitary_rejects_non_unitary():
    bad = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]], dtype=complex)
    with pytest.raises(ValueError):
        sv.apply_unitary(sv.zero_state(1), bad, (0,))
    # within tolerance passes
    ok = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-12]], dtype=complex)
    sv.apply_unitary(sv.zero_state(1), ok, (0,))


def test_ccz_truth_table():
    psi = sv.basis_state(3, 0b110)
    out = sv.apply_gate(psi, "ccz", 0, 1, 2)
    assert np.allclose(out, psi)
    psi = sv.basis_state(3, 0b111)
    out = sv.apply_gate(psi, "ccz", 0, 1, 2)
    assert np.allclose(out, -psi)


def test_hadamard_layer_uniform():
    psi = sv.zero_state(4)
    for q in range(4):
        psi = sv.apply_gate(psi, "h", q)
    assert np.allclose(psi, np.full(16, 0.25))


def test_norm_tracked_through_random_circuits():
    rng = np.random.default_rng(11)
    psi = sv.zero_state(5)
    names = ["h", "s", "x", "z", "t", "tdg"]
    for _ in range(200):
        if rng.random() < 0.3:
            q = rng.choice(5, size=2, replace=False)
            psi = sv.apply_gate(psi, "cx", int(q[0]), int(q[1]))
        else:
            psi = sv.apply_gate(psi, str(rng.choice(names)), int(rng.integers(5)))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_state_fidelity_basics():
    z = sv.zero_state(1)
    one = sv.basis_state(1, 1)
    plus = sv.apply_gate(z, "h", 0)
    assert sv.state_fidelity(z, z) == pytest.approx(1.0)
    assert sv.state_fidelity(z, one) == pytest.approx(0.0)
    assert sv.state_fidelity(z, plus) == pytest.approx(0.5)


def test_apply_pauli_matches_matrix():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                        sign=int(rng.choice([1, -1])))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        assert np.allclose(sv.apply_pauli(psi, p), p.to_matrix() @ psi)


def test_collapse_probabilities():
    psi = sv.apply_gate(sv.zero_state(2), "h", 0)  # |+>|0>
    p0, st0 = sv.collapse(psi, 0, 0)
    p1, st1 = sv.collapse(psi, 0, 1)
    assert p0 == pytest.approx(0.5) and p1 == pytest.approx(0.5)
    assert np.allclose(st0, sv.basis_state(2, 0b00))
    assert np.allclose(st1, sv.basis_state(2, 0b10))
    assert sv.collapse(psi, 1, 0)[0] == pytest.approx(1.0)
    assert sv.collapse(psi, 1, 1) == (0.0, None)


@pytest.mark.parametrize("outcome", [2, -1, 0.5])
def test_collapse_rejects_an_outcome_that_is_not_a_bit(outcome):
    with pytest.raises(ValueError, match="outcome is 0 or 1"):
        sv.collapse(sv.zero_state(2), 0, outcome)


# ---------------------------------------------------------------------------
# kernels against full Kronecker-product matrices
# ---------------------------------------------------------------------------

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def embed(n, ops):
    """Kronecker product over qubits 0..n-1 (qubit 0 leftmost) of ``ops[q]``, identity elsewhere."""
    m = np.ones((1, 1), dtype=complex)
    for q in range(n):
        m = np.kron(m, ops.get(q, np.eye(2, dtype=complex)))
    return m


def full_gate_matrix(n, name, qubits):
    mat = sv.GATES[name]
    if mat.shape == (2, 2):
        return embed(n, {qubits[0]: mat})
    if name == "cx":
        c, t = qubits
        return embed(n, {c: P0}) + embed(n, {c: P1, t: sv.GATES["x"]})
    if name == "ccz":
        return np.eye(1 << n) - 2 * embed(n, dict.fromkeys(qubits, P1))
    raise AssertionError(f"no reference matrix for gate {name!r}")


def random_state(rng, n):
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", range(1, 7))
def test_gate_kernels_match_kronecker_matrices(n):
    rng = np.random.default_rng(1000 + n)
    for name, mat in sv.GATES.items():
        k = mat.shape[0].bit_length() - 1
        for qubits in permutations(range(n), k):  # cx both ways, ccz every order
            psi = random_state(rng, n)
            want = full_gate_matrix(n, name, qubits) @ psi
            assert np.abs(sv.apply_gate(psi, name, *qubits) - want).max() < 1e-12
    for q in range(n):
        u = random_unitary(rng)
        psi = random_state(rng, n)
        assert np.abs(sv.apply_unitary(psi, u, (q,)) - embed(n, {q: u}) @ psi).max() < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_collapse_matches_explicit_projector(n):
    rng = np.random.default_rng(2000 + n)
    for q in range(n):
        psi = random_state(rng, n)
        for outcome in (0, 1):
            kept = embed(n, {q: (P0, P1)[outcome]}) @ psi
            p_want = float(np.vdot(kept, kept).real)
            p, st = sv.collapse(psi, q, outcome)
            assert abs(p - p_want) < 1e-12
            assert np.abs(st - kept / np.sqrt(p_want)).max() < 1e-12


def test_kernels_reject_bad_qubits():
    psi = sv.zero_state(3)
    for qubits in ((0, 0), (1, 3), (-1, 2)):
        with pytest.raises(ValueError):
            sv.apply_gate(psi, "cx", *qubits)
    with pytest.raises(ValueError):
        sv.apply_gate(psi, "h", 3)
    with pytest.raises(ValueError):
        sv.apply_gate(psi, "h", 0, 1)
    with pytest.raises(ValueError):
        sv.apply_gate(psi, "ccz", 0, 1)


def test_n_of_rejects_sizes_that_are_not_powers_of_two():
    assert sv.n_of(np.zeros(1)) == 0 and sv.n_of(np.zeros(64)) == 6
    for size in (0, 3, 6, 12):
        with pytest.raises(ValueError, match=str(size)):
            sv.n_of(np.zeros(size))


def test_gate_norm_check_raises():
    with pytest.raises(ValueError, match="norm drifted"):
        sv.apply_gate(2.0 * sv.zero_state(2), "h", 0)


def test_overlap_through_ancillas_vs_partial_trace():
    rng = np.random.default_rng(5)
    n, keep = 4, (1, 3)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    tgt = rng.normal(size=4) + 1j * rng.normal(size=4)
    tgt /= np.linalg.norm(tgt)
    got = sv.overlap_through_ancillas(tgt, psi, keep)
    # oracle: explicit reduced density matrix
    t = psi.reshape(2, 2, 2, 2)
    t = np.moveaxis(t, keep, (0, 1))  # keep axes first
    m = t.reshape(4, 4)
    rho = m @ m.conj().T
    want = float(np.real(tgt.conj() @ rho @ tgt))
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# branch executor
# ---------------------------------------------------------------------------


def bell_circuit():
    c = Circuit(2)
    c.add("h", 0, start=0.0)
    c.add("cx", 0, 1, start=0.0)
    return c


def test_bell_measurements_correlated():
    c = bell_circuit()
    c.measure(0, start=1.0)
    c.measure(1, start=1.0)
    branches = sv.run_branches(c)
    dist = sv.outcome_distribution(branches)
    assert dist == pytest.approx({(0, 0): 0.5, (1, 1): 0.5})


def test_deterministic_measurement_single_branch():
    c = Circuit(1)
    c.measure(0, start=0.0)
    branches = sv.run_branches(c)
    assert len(branches) == 1
    assert branches[0].bits == {0: 0}


def test_reset_returns_to_zero():
    c = Circuit(1)
    c.add("h", 0, start=0.0)
    c.add("reset", 0, start=0.0)
    for b in sv.run_branches(c):
        assert np.allclose(b.state, sv.zero_state(1))


SIX_EIGENSTATES = [
    ("z", 0), ("z", 1), ("x", 0), ("x", 1), ("y", 0), ("y", 1),
]


def prep_eigenstate(psi, q, basis, a):
    """|basis,+> for a=0 or |basis,-> for a=1 on qubit q."""
    if a == 1:
        psi = sv.apply_gate(psi, "x", q)
    if basis == "x":
        psi = sv.apply_gate(psi, "h", q)
    elif basis == "y":
        psi = sv.apply_gate(psi, "h", q)
        psi = sv.apply_gate(psi, "s", q)
    return psi


@pytest.mark.parametrize("basis,a", SIX_EIGENSTATES)
def test_teleportation_identity(basis, a):
    # one-Bell-pair teleportation with X/Z corrections returns the input state
    c = Circuit(3)
    c.add("h", 1, start=0.0)
    c.add("cx", 1, 2, start=0.0)
    c.add("cx", 0, 1, start=1.0)
    c.add("h", 0, start=2.0)
    m0 = c.measure(0, start=2.0)
    m1 = c.measure(1, start=2.0)
    c.add("cpauli", 2, start=3.0, pauli="X", parity=(m1,))
    c.add("cpauli", 2, start=3.0, pauli="Z", parity=(m0,))
    init = prep_eigenstate(sv.zero_state(3), 0, basis, a)
    want = prep_eigenstate(sv.zero_state(1), 0, basis, a)
    for b in sv.run_branches(c, initial=init):
        assert sv.overlap_through_ancillas(want, b.state, (2,)) == pytest.approx(1.0)


def test_post_process_mode_matches_feed_forward_distribution():
    # teleport then measure the output in X: classical stats must agree exactly
    c = Circuit(3)
    c.add("h", 1, start=0.0)
    c.add("cx", 1, 2, start=0.0)
    c.add("cx", 0, 1, start=1.0)
    c.add("h", 0, start=2.0)
    m0 = c.measure(0, start=2.0)
    m1 = c.measure(1, start=2.0)
    c.add("cpauli", 2, start=3.0, pauli="X", parity=(m1,))
    c.add("cpauli", 2, start=3.0, pauli="Z", parity=(m0,))
    c.add("h", 2, start=3.0)
    c.measure(2, start=3.0)
    init = prep_eigenstate(sv.zero_state(3), 0, "x", 1)  # teleport |->
    d_ff = sv.outcome_distribution(sv.run_branches(c, mode="feed_forward", initial=init))
    d_pp = sv.outcome_distribution(sv.run_branches(c, mode="post_process", initial=init))
    assert set(d_ff) == set(d_pp)
    for k in d_ff:
        assert d_ff[k] == pytest.approx(d_pp[k], abs=1e-12)


@pytest.mark.parametrize("size", [8, 2, 3])
def test_run_branches_rejects_initial_state_of_wrong_size(size):
    # a 2-qubit circuit needs 4 amplitudes: not one qubit more, fewer, or a
    # size that is not a power of two
    with pytest.raises(ValueError, match=f"{size} amplitudes.*needs 4"):
        sv.run_branches(bell_circuit(), initial=np.ones(size) / np.sqrt(size))


@pytest.mark.parametrize("op", ["measure", "h"])
def test_run_branches_rejects_an_unnormalised_initial_state(op):
    # a lone measure would return one branch of probability 4, an h would
    # fail later on its norm check: both are refused up front
    c = Circuit(1)
    if op == "measure":
        c.measure(0, start=0.0)
    else:
        c.add("h", 0, start=0.0)
    with pytest.raises(ValueError, match="initial state has norm 2.0"):
        sv.run_branches(c, initial=np.array([2.0, 0.0]))
    ok = np.array([1.0, 1e-7]) / np.linalg.norm([1.0, 1e-7])
    assert sum(b.prob for b in sv.run_branches(c, initial=ok)) == pytest.approx(1.0, abs=1e-12)


def test_empty_parity_never_fires():
    c = Circuit(1)
    c.measure(0, start=0.0)
    c.add("cpauli", 0, start=1.0, pauli="X", parity=())
    b, = sv.run_branches(c)
    assert np.allclose(b.state, sv.zero_state(1))


# ---------------------------------------------------------------------------
# exact noise enumeration and process fidelity
# ---------------------------------------------------------------------------


def test_enumerate_noise_probabilities_sum_to_one():
    sites = [
        Site(0, PauliString.from_text("XI"), 0.25),
        Site(1, PauliString.from_text("IZ"), 0.4),
        Site(0, PauliString.from_text("YY"), 0.0),  # skipped
    ]
    cfgs = sv.enumerate_noise(sites)
    assert len(cfgs) == 4
    assert sum(p for p, _ in cfgs) == pytest.approx(1.0)


def test_process_fidelity_ideal_is_one():
    c = Circuit(2)
    c.add("cx", 0, 1, start=0.0)
    assert sv.process_fidelity(c, sv.cnot_matrix(), (0, 1)) == pytest.approx(1.0, abs=1e-12)


def test_process_fidelity_saturated_two_pauli_noise_quarter():
    # identity circuit followed by fully mixed Z-on-0 and X-on-1 flips
    c = Circuit(2)
    c.add("barrier", start=0.0)
    sites = [
        Site(1, PauliString.from_text("ZI"), 0.5),
        Site(1, PauliString.from_text("IX"), 0.5),
    ]
    F = sv.process_fidelity(c, np.eye(4, dtype=complex), (0, 1), sites=sites)
    assert F == pytest.approx(0.25, abs=1e-12)


def test_process_fidelity_single_z_rate():
    # CNOT preceded by a Z flip on the control at rate 0.1:
    # F_proc = 1 - omega = (1 + e^{-0.2})/2
    lam = 0.1
    omega = (1 - np.exp(-2 * lam)) / 2
    c = Circuit(2)
    c.add("cx", 0, 1, start=0.0)
    sites = [Site(0, PauliString.from_text("ZI"), omega)]
    F = sv.process_fidelity(c, sv.cnot_matrix(), (0, 1), sites=sites)
    assert F == pytest.approx((1 + np.exp(-0.2)) / 2, abs=1e-12)


def test_average_state_fidelity_with_flips():
    # An always-on X on qubit 0 sends GHZ_3 to an orthogonal state; the
    # saturated (omega = 1/2) bit flip leaves fidelity exactly 1/2.
    from dyncirc.circuits import ghz_unitary

    c = ghz_unitary(3)
    end = len(c.instructions)
    always = [Site(end, PauliString.single(3, 0, "X"), 1.0)]
    assert sv.average_state_fidelity(c, sv.ghz_state(3), sites=always) == pytest.approx(0.0, abs=1e-12)
    saturated = [Site(end, PauliString.single(3, 0, "X"), 0.5)]
    assert sv.average_state_fidelity(c, sv.ghz_state(3), sites=saturated) == pytest.approx(0.5, abs=1e-12)


def test_circuit_unitary_of_cnot():
    c = Circuit(2)
    c.add("cx", 0, 1, start=0.0)
    assert np.allclose(sv.circuit_unitary(c), sv.cnot_matrix())


# ---------------------------------------------------------------------------
# the branch stack against a per-branch loop of the one-state functions
# ---------------------------------------------------------------------------


def per_branch_reference(circuit, mode, insertions, initial):
    """``run_branches`` as one loop over branches, each a full state, built
    only from the public one-state functions."""
    n = circuit.n_qubits
    post = mode == "post_process"
    branches = [sv.Branch(1.0, {}, initial, PauliString(n) if post else None)]

    def inject(k):
        for p in insertions.get(k, ()):
            for b in branches:
                b.state = sv.apply_pauli(b.state, p.mod_phase())

    for k, ins in enumerate(circuit.instructions):
        inject(k)
        q = ins.qubits[0]
        if ins.op in sv.GATES:
            for b in branches:
                b.state = sv.apply_gate(b.state, ins.op, *ins.qubits)
                if post:
                    b.pending = b.pending.conjugated(ins.op, *ins.qubits)
        elif ins.op in ("measure", "reset"):
            new = []
            for b in branches:
                for outcome in (0, 1):
                    p, st = sv.collapse(b.state, q, outcome)
                    if st is None:
                        continue
                    bits = dict(b.bits)
                    if ins.op == "measure":
                        bits[ins.record] = outcome ^ (b.pending.x_bit(q) if post else 0)
                    elif outcome:
                        st = sv.apply_pauli(st, PauliString.single(n, q, "X"))
                    new.append(sv.Branch(b.prob * p, bits, st, b.pending))
            branches = new
        elif ins.op == "cpauli":
            corr = PauliString.single(n, q, ins.pauli)
            for b in branches:
                if sum(b.bits[r] for r in ins.parity) % 2:
                    if post:
                        b.pending = (b.pending * corr).mod_phase()
                    else:
                        b.state = sv.apply_pauli(b.state, corr)
    inject(len(circuit.instructions))
    return branches


CLIFFORD_1Q = ["h", "s", "sdg", "x", "y", "z"]


def random_dynamic_circuit(rng, n, mode):
    """Gates, measurements (re-measuring a qubit is allowed), resets and
    feed-forward Paulis on random parities of the records written so far;
    in post-process mode only Clifford gates, which the frame can cross."""
    ones = CLIFFORD_1Q + ([] if mode == "post_process" else ["t", "tdg"])
    c = Circuit(n)
    for step in range(int(rng.integers(10, 25))):
        kind = rng.choice(["1q", "cx", "ccz", "measure", "reset", "cpauli"],
                          p=[0.3, 0.2, 0.05, 0.2, 0.05, 0.2])
        t = float(step)
        if kind == "1q":
            c.add(str(rng.choice(ones)), int(rng.integers(n)), start=t)
        elif kind == "cx":
            a, b = rng.choice(n, size=2, replace=False)
            c.add("cx", int(a), int(b), start=t)
        elif kind == "ccz" and n >= 3 and mode == "feed_forward":
            c.add("ccz", *map(int, rng.choice(n, size=3, replace=False)), start=t)
        elif kind == "measure":
            c.measure(int(rng.integers(n)), start=t)
        elif kind == "reset":
            c.add("reset", int(rng.integers(n)), start=t)
        elif kind == "cpauli":
            parity = tuple(int(r) for r in range(c.n_records) if rng.random() < 0.5)
            c.add("cpauli", int(rng.integers(n)), start=t, pauli=str(rng.choice(["X", "Z"])), parity=parity)
    return c


def random_insertions(rng, circuit):
    end = len(circuit.instructions)
    ins = {}
    for _ in range(int(rng.integers(0, 4))):
        n = circuit.n_qubits
        p = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)), sign=int(rng.choice([1, -1])))
        ins.setdefault(int(rng.integers(end + 1)), []).append(p)
    return ins


@pytest.mark.parametrize("seed", range(40))
def test_branch_stack_matches_per_branch_loop(seed):
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(2, 6))
    mode = ("feed_forward", "post_process")[seed % 2]
    circ = random_dynamic_circuit(rng, n, mode)
    insertions = random_insertions(rng, circ)
    initial = random_state(rng, n) if seed % 4 >= 2 else sv.zero_state(n)
    got = sv.run_branches(circ, mode=mode, insertions=insertions, initial=initial)
    want = per_branch_reference(circ, mode, insertions, initial)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.bits == w.bits
        assert abs(g.prob - w.prob) < 1e-12
        assert np.abs(g.corrected_state() - w.corrected_state()).max() < 1e-12



@pytest.mark.parametrize("letters", ["X", "Z", "XZ"])
@pytest.mark.parametrize("gate", CLIFFORD_1Q + ["cx", "xc"])
def test_post_process_frame_crosses_each_clifford(gate, letters):
    # a fired correction on qubit 1, then one Clifford on it, then a
    # measurement of both qubits: records and corrected states agree with
    # the per-branch loop, whose frame is a PauliString
    rng = np.random.default_rng(7)
    c = Circuit(3)
    c.add("h", 0, start=0.0)
    r = c.measure(0, start=1.0)
    for letter in letters:
        c.add("cpauli", 1, start=2.0, pauli=letter, parity=(r,))
    qubits = {"cx": (1, 2), "xc": (2, 1)}.get(gate, (1,))
    c.add("cx" if gate == "xc" else gate, *qubits, start=3.0)
    c.measure(1, start=4.0)
    c.measure(2, start=4.0)
    initial = random_state(rng, 3)
    got = sv.run_branches(c, mode="post_process", initial=initial)
    want = per_branch_reference(c, "post_process", {}, initial)
    assert [g.bits for g in got] == [w.bits for w in want]
    for g, w in zip(got, want):
        assert np.abs(g.corrected_state() - w.corrected_state()).max() < 1e-12



@pytest.mark.parametrize("gate", ["t", "tdg", "ccz"])
def test_post_process_frame_refuses_a_non_clifford_on_a_pending_qubit(gate):
    c = Circuit(4)
    c.add("h", 0, start=0.0)
    r = c.measure(0, start=1.0)
    c.add("cpauli", 2, start=2.0, pauli="Z", parity=(r,))
    c.add(gate, *((0, 1, 3) if gate == "ccz" else (1,)), start=3.0)
    sv.run_branches(c, mode="post_process")  # no pending letter on these qubits
    c.add(gate, *((1, 2, 3) if gate == "ccz" else (2,)), start=4.0)
    with pytest.raises(ValueError, match=f"correction frame through non-Clifford {gate}"):
        sv.run_branches(c, mode="post_process")


def test_random_circuits_reach_qubits_outside_the_register():
    # the property check above exercises what the stack does differently:
    # a gate, a Pauli, a re-measurement or a reset on a qubit that has left
    # the register after its measurement or reset
    hit = {"gate": 0, "pauli": 0, "measure": 0, "reset": 0}
    for seed in range(40):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, 6))
        circ = random_dynamic_circuit(rng, n, ("feed_forward", "post_process")[seed % 2])
        out = set()
        for ins in circ.instructions:
            q = set(ins.qubits)
            if ins.op in sv.GATES:
                hit["gate"] += bool(q & out)
                out -= q
            elif ins.op == "cpauli":
                hit["pauli"] += bool(q & out)
            else:
                hit[ins.op] += bool(q & out)
                out |= q
    assert min(hit.values()) > 0, hit


def test_process_fidelity_of_the_largest_cnot_chain_at_the_cap():
    # 12 chain qubits and 2 Choi references: the 14-qubit cap, with 1024
    # measurement branches
    f = sv.process_fidelity(C.long_range_cnot_dynamic(10), sv.cnot_matrix(), data=(0, 11))
    assert abs(f - 1.0) < 1e-10


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
def test_ghz_fidelity_at_the_cap(mode):
    f = sv.average_state_fidelity(C.ghz_dynamic(14, mode=mode), sv.ghz_state(14), mode=mode)
    assert abs(f - 1.0) < 1e-10
