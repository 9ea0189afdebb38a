"""Noise-model tests.

The oracles here are dense superoperators in the column-stacking convention
(vec(A rho B) = (B^T (x) A) vec(rho)): closed-form channel matrices are
checked against exact Lindbladian exponentials (scipy.linalg.expm) and
against the frame sampler, never against the module's own arithmetic.
"""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

import dyncirc.circuits as C
import dyncirc.noise as N
import dyncirc.statevector as sv
import dyncirc.tableau as tb
from dyncirc.pauli import PauliString

X1 = PauliString.from_text("X")
Z1 = PauliString.from_text("Z")


# ---------------------------------------------------------------------------
# dense superoperator oracles
# ---------------------------------------------------------------------------


def _conj_super(m):
    """Superoperator of rho -> M rho M^dagger."""
    return np.kron(m.conj(), m)


def _channel_super(ch):
    d = 2**ch.n
    s = np.eye(d * d, dtype=complex)
    for p, rate in ch.items():
        w = N.omega(rate)
        s = ((1 - w) * np.eye(d * d) + w * _conj_super(p.to_matrix())) @ s
    return s


def _lindblad_super(jumps):
    """Superoperator generator sum_i L rho L^dag - (1/2){L^dag L, rho}."""
    dim = jumps[0].shape[0]
    g = np.zeros((dim * dim, dim * dim), dtype=complex)
    eye = np.eye(dim)
    for L in jumps:
        ldl = L.conj().T @ L
        g += np.kron(L.conj(), L) - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    return g


def _twirl_super(s, n):
    d = 2**n
    out = np.zeros_like(s)
    for x in range(1 << n):
        for z in range(1 << n):
            pm = _conj_super(PauliString(n, x, z).to_matrix())
            out += pm @ s @ pm
    return out / (d * d)


def _proc_fid_identity(s):
    """Process fidelity of a channel (superoperator) against the identity."""
    val = np.trace(s) / s.shape[0]
    assert abs(val.imag) < 1e-12
    return val.real


def _random_channel(rng, n, max_terms=6, scale=0.4):
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        x = int(rng.integers(1 << n))
        z = int(rng.integers(1 << n))
        if x == 0 and z == 0:
            x = 1
        terms.append((PauliString(n, x, z), float(rng.uniform(0, scale))))
    return N.PauliLindbladChannel(terms, n=n)


# ---------------------------------------------------------------------------
# error weight and channel container
# ---------------------------------------------------------------------------


def test_omega_values():
    assert N.omega(0.0) == 0.0
    assert abs(N.omega(math.log(2) / 2) - 0.25) < 1e-15
    assert N.omega(1e9) == 0.5
    with pytest.raises(ValueError):
        N.omega(-1e-9)


def test_channel_term_rules():
    with pytest.raises(ValueError):
        N.PauliLindbladChannel([(PauliString(2), 0.1)])
    with pytest.raises(ValueError):
        N.PauliLindbladChannel([(X1, -0.1)])
    with pytest.raises(ValueError):
        N.PauliLindbladChannel()  # no terms and no explicit n
    ch = N.PauliLindbladChannel([(X1, 0.1), (X1.with_sign(-1), 0.2), (Z1, 0.25)])
    assert len(ch) == 2  # signs are stripped, so the X terms merged
    assert ch.rate_of(X1) == pytest.approx(0.3, abs=1e-15)
    assert ch.total_rate == pytest.approx(0.55, abs=1e-15)
    both = ch * N.PauliLindbladChannel([(Z1, 0.05)])
    assert both.rate_of(Z1) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        ch * N.PauliLindbladChannel(n=2)


def test_same_pauli_rates_add_as_superoperators():
    rng = np.random.default_rng(7)
    for _ in range(6):
        x, z = int(rng.integers(1, 4)), int(rng.integers(4))
        p = PauliString(2, x, z)
        l1, l2 = rng.uniform(0.05, 0.8, size=2)
        s1 = _channel_super(N.PauliLindbladChannel.single(p, l1))
        s2 = _channel_super(N.PauliLindbladChannel.single(p, l2))
        s12 = _channel_super(N.PauliLindbladChannel.single(p, l1 + l2))
        assert np.allclose(s1 @ s2, s12, atol=1e-10)
    a = _channel_super(N.PauliLindbladChannel.single(PauliString.from_text("XY"), 0.3))
    b = _channel_super(N.PauliLindbladChannel.single(PauliString.from_text("ZI"), 0.2))
    assert np.allclose(a @ b, b @ a, atol=1e-12)


# ---------------------------------------------------------------------------
# physical conversions
# ---------------------------------------------------------------------------


def _idle_channel(t, t1=None, t2=None):
    """The one-qubit channel of ``NoiseParams(t1=t1, t2=t2).idle_rates(t)``,
    the twirled damping/dephasing rates the pipeline attaches to idles."""
    rates = N.NoiseParams(t1=t1, t2=t2).idle_rates(t)
    return N.PauliLindbladChannel([(PauliString.from_text(letter), rate) for letter, rate in rates], n=1)


def test_damping_to_pauli_rates_and_edges():
    ch = _idle_channel(2.0, 4.0, 8.0)
    assert ch.rate_of(X1) == pytest.approx(2.0 / 16.0)
    assert ch.rate_of(PauliString.from_text("Y")) == pytest.approx(2.0 / 16.0)
    assert ch.rate_of(Z1) == pytest.approx(2.0 / 16.0)
    pure = _idle_channel(2.0, 4.0)
    assert len(pure) == 2 and pure.rate_of(Z1) == 0.0
    assert len(_idle_channel(0.0, 4.0, 8.0)) == 0
    for bad in ((1.0, 0.0, 1.0), (1.0, 1.0, -2.0), (-1.0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            _idle_channel(*bad)


def test_damping_twirl_matches_exact_superoperator():
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    g_damp = _lindblad_super([lower])
    s_exact = expm(0.2 * g_damp)
    s_model = _channel_super(_idle_channel(0.2, 1.0))
    assert np.allclose(_twirl_super(s_exact, 1), s_model, atol=1e-10)
    assert abs(_proc_fid_identity(_twirl_super(s_exact, 1)) - _proc_fid_identity(s_model)) < 1e-10


def test_combined_damping_dephasing_twirl():
    t, t1, t2 = 1.3, 5.0, 7.0
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    g = (t / t1) * _lindblad_super([lower]) + (t / t2) * 0.5 * (_conj_super(z) - np.eye(4))
    s_model = _channel_super(_idle_channel(t, t1, t2))
    assert np.allclose(_twirl_super(expm(g), 1), s_model, atol=1e-10)


# ---------------------------------------------------------------------------
# fidelity bound
# ---------------------------------------------------------------------------


def test_fidelity_lower_bound_random_channels():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        ch = _random_channel(rng, n)
        f = _proc_fid_identity(_channel_super(ch))
        assert f >= ch.process_fidelity_lower_bound() - 1e-12


def test_fidelity_lower_bound_tight_at_small_rates():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        ch = _random_channel(rng, n, scale=4e-4)
        f = _proc_fid_identity(_channel_super(ch))
        bound = ch.process_fidelity_lower_bound()
        assert f >= bound - 1e-14
        assert abs(f / bound - 1.0) <= 5 * ch.total_rate**2


def test_single_term_process_fidelity_equality():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        x = int(rng.integers(1 << n))
        z = int(rng.integers(1 << n))
        if x == 0 and z == 0:
            x = 1
        lam = float(rng.uniform(0, 2.0))
        f = _proc_fid_identity(_channel_super(N.PauliLindbladChannel.single(PauliString(n, x, z), lam)))
        assert abs(f - (1 + math.exp(-2 * lam)) / 2) < 1e-12


def test_product_fidelity_equality_without_cancellation():
    # supports that cannot multiply to the identity: exact product formula
    for terms in (
        [(PauliString.from_text("ZI"), 0.4), (PauliString.from_text("IX"), 0.7)],
        [(X1, 0.3), (Z1, 0.9)],
    ):
        ch = N.PauliLindbladChannel(terms)
        f = _proc_fid_identity(_channel_super(ch))
        want = math.prod(1 - N.omega(r) for _, r in terms)
        assert abs(f - want) < 1e-12
    # X, Y, Z on one qubit: the all-three-fire branch lands back on the
    # identity, adding the product of the three weights on top
    rates = (0.3, 0.5, 0.7)
    ch = N.PauliLindbladChannel(list(zip((X1, PauliString.from_text("Y"), Z1), rates)))
    f = _proc_fid_identity(_channel_super(ch))
    ws = [N.omega(r) for r in rates]
    assert abs(f - (math.prod(1 - w for w in ws) + math.prod(ws))) < 1e-12
    assert f > math.prod(1 - w for w in ws) + 1e-3


def test_saturated_single_pauli_floor():
    # an infinite-rate two-term channel on distinct qubits: fidelity 1/4,
    # which converts to gate fidelity 2/5
    ch = N.PauliLindbladChannel([(PauliString.from_text("ZI"), 1e9), (PauliString.from_text("IX"), 1e9)])
    f = _proc_fid_identity(_channel_super(ch))
    assert abs(f - 0.25) < 1e-9
    assert abs(N.gate_fidelity_from_process(0.25, 4) - 0.4) < 1e-15


# ---------------------------------------------------------------------------
# propagation, read off the frame sampler
# ---------------------------------------------------------------------------


def _propagated(circ, pauli, k=0):
    """Where one error before instruction ``k`` ends up: run_batch with the
    error firing on its one shot, against the clean run.  Returns the
    change to the end frame (sign-free) and the set of flipped records."""
    clean = tb.run_batch(circ, 1, master_seed=3)
    noisy = tb.run_batch(circ, 1, master_seed=3, noise=[N.NoiseSite(k, pauli, 1.0)])

    def bits(rows):  # bit 0 of each qubit's row: the one shot
        return sum((int(w) & 1) << q for q, w in enumerate(rows[:, 0]))

    frame = PauliString(circ.n_qubits, bits(noisy.fx ^ clean.fx), bits(noisy.fz ^ clean.fz))
    flipped = frozenset(int(r) for r in np.flatnonzero(noisy.records[0] != clean.records[0]))
    return frame, flipped


def test_propagate_conjugates_through_cx():
    circ = C.Circuit(2)
    circ.add("cx", 0, 1, start=0.0)
    frame, flipped = _propagated(circ, PauliString.from_text("XI"))
    assert str(frame) == "+XX" and flipped == frozenset()


def test_propagate_drop_on_reset_and_record_flip():
    circ = C.Circuit(2)
    circ.mark_input(0)
    rec = circ.measure(1, start=0.0)
    circ.add("reset", 1, start=1.0)
    circ.add("cpauli", 0, start=1.0, pauli="X", parity=(rec,))
    # Z on the measured qubit commutes with the readout: dropped entirely
    frame, flipped = _propagated(circ, PauliString.from_text("IZ"))
    assert frame.is_identity() and flipped == frozenset()
    # X flips the record, which toggles the conditioned correction
    frame, flipped = _propagated(circ, PauliString.from_text("IX"))
    assert str(frame) == "+XI" and flipped == frozenset({rec})


def test_propagate_start_index_and_errors():
    circ = C.Circuit(1)
    circ.add("h", 0, start=0.0)
    assert str(_propagated(circ, X1)[0]) == "+Z"
    assert str(_propagated(circ, X1, 1)[0]) == "+X"
    with pytest.raises(ValueError, match="index"):
        _propagated(circ, X1, 5)
    with pytest.raises(ValueError, match="size"):
        _propagated(circ, PauliString.from_text("XX"))


def test_propagate_rejects_nonclifford_on_support():
    circ = C.Circuit(2)
    circ.add("h", 0, start=0.0)
    circ.add("h", 1, start=0.0)
    circ.add("t", 0, start=1.0)
    with pytest.raises(ValueError, match="not stabilizer-simulable"):
        _propagated(circ, PauliString.from_text("XI"))
    # untouched errors pass by a non-Clifford gate: on the dense oracle, Z
    # on qubit 1 before the T on qubit 0 is Z on qubit 1 after it
    iz = PauliString.from_text("IZ")
    (noisy,) = sv.run_branches(circ, insertions={2: [iz]})
    (clean,) = sv.run_branches(circ)
    assert sv.state_fidelity(noisy.state, sv.apply_pauli(clean.state, iz)) == pytest.approx(1.0, abs=1e-12)


def test_propagate_matches_frame_sampler_per_shot():
    """End-of-circuit prediction vs the vectorised engine: injecting one
    error and diffing against the clean run must land exactly on the
    propagated Pauli and its record flips, for 1000 random injections.
    The prediction is the test suite's own single-error propagator."""
    from test_tableau import check_bookkeeping_case

    check_bookkeeping_case(C.long_range_cnot_dynamic, 4, "feed_forward", 1000, 424242, 77)


# ---------------------------------------------------------------------------
# parameters and attachment
# ---------------------------------------------------------------------------


def test_noise_params_json_and_validation():
    p = N.NoiseParams.from_json(
        '{"lambda_idle": 0.03, "lambda_cnot": 0.02, "lambda_meas": 0.03, "mu": 3.65}'
    )
    assert (p.lambda_idle, p.lambda_cnot, p.lambda_meas, p.mu) == (0.03, 0.02, 0.03, 3.65)
    assert p.t1 is None and p.t2 is None
    assert N.NoiseParams.from_json(p.to_json()) == p
    assert N.NoiseParams.from_json("{}") == N.NoiseParams()
    with pytest.raises(ValueError):
        N.NoiseParams.from_json('{"lambda_cx": 0.1}')
    with pytest.raises(ValueError):
        N.NoiseParams(lambda_idle=-0.1)
    with pytest.raises(ValueError):
        N.NoiseParams(t1=0.0)
    for field, value in (("lambda_idle", "x"), ("mu", None), ("lambda_cnot", True), ("lambda_meas", [0.1]),
                         ("lambda_idle", math.nan), ("mu", math.inf), ("t1", "10"), ("t2", False)):
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            N.NoiseParams(**{field: value})
    assert N.NoiseParams(lambda_idle=1, mu=np.float64(3.65), t1=np.int64(10)).t2 is None
    with pytest.warns(UserWarning):
        N.NoiseParams(t1=10.0, t2=25.0)


def test_effective_idle_rate():
    assert N.NoiseParams(lambda_idle=0.013).effective_lambda_idle == 0.013
    p = N.NoiseParams(lambda_idle=0.5, t1=10.0, t2=16.0)
    assert p.effective_lambda_idle == pytest.approx(1 / 20 + 1 / 32, abs=1e-15)
    assert N.NoiseParams(t1=10.0).effective_lambda_idle == pytest.approx(0.05, abs=1e-15)


def test_attach_noise_sites_layout():
    mu = 2.0
    circ = C.long_range_cnot_dynamic(3, mu=mu)
    params = N.NoiseParams(lambda_idle=0.05, lambda_cnot=0.02, lambda_meas=0.03, mu=mu)
    sites = N.attach_noise(circ, params)
    assert sites == sorted(sites, key=lambda s: s.before_index)
    assert sites == N.attach_noise(circ, params)  # deterministic

    cx_at = [k for k, ins in enumerate(circ.instructions) if ins.op == "cx"]
    gate = [s for s in sites if s.omega == N.omega(0.02)]
    assert [s.before_index for s in gate] == [k + 1 for k in cx_at]
    for s, k in zip(gate, cx_at):
        c, t = circ.instructions[k].qubits
        assert s.pauli.letter(c) == "Z" and s.pauli.letter(t) == "X" and s.pauli.weight == 2

    meas_at = [k for k, ins in enumerate(circ.instructions) if ins.op == "measure"]
    meas = [s for s in sites if s.omega == N.omega(0.03)]
    assert [s.before_index for s in meas] == meas_at
    assert all(
        s.pauli.letter(circ.instructions[k].qubits[0]) == "X" and s.pauli.weight == 1
        for s, k in zip(meas, meas_at)
    )

    idle = [s for s in sites if s not in gate and s not in meas]
    assert all(str(s.pauli).lstrip("+-").strip("I") == "Z" for s in idle)
    recovered = sum(-math.log(1 - 2 * s.omega) / (2 * 0.05) for s in idle)
    assert recovered == pytest.approx(C.tally(circ).t_idle, abs=1e-9)
    assert C.tally(circ).t_idle == 2 * mu + 2


def test_attach_noise_damping_and_empty():
    circ = C.long_range_cnot_dynamic(2, mu=1.0)
    assert N.attach_noise(circ, N.NoiseParams()) == []
    with_t1 = N.attach_noise(circ, N.NoiseParams(t1=50.0))
    letters = {str(s.pauli).lstrip("+-").strip("I") for s in with_t1}
    assert letters == {"X", "Y"}
    with_both = N.attach_noise(circ, N.NoiseParams(t1=50.0, t2=60.0))
    assert len(with_both) == 3 * len(with_t1) // 2
    with pytest.raises(ValueError):
        N.attach_noise(circ, N.NoiseParams(), cnot_pauli="II")
    with pytest.raises(ValueError):
        N.attach_noise(circ, N.NoiseParams(), cnot_pauli="XQZ")


def test_attached_noise_runs_and_degrades_records():
    # X before every measurement at a strong rate shows up as flipped parity
    # outcomes at roughly the expected frequency
    circ = C.long_range_cnot_dynamic(1, mu=1.0)
    params = N.NoiseParams(lambda_meas=0.5)
    sites = N.attach_noise(circ, params)
    shots = 20_000
    clean = tb.run_batch(circ, shots, master_seed=5)
    noisy = tb.run_batch(circ, shots, master_seed=5, noise=sites)
    flip_rate = (clean.records != noisy.records).mean()
    assert abs(flip_rate - N.omega(0.5)) < 0.01


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

FIG_PARAMS = N.NoiseParams(lambda_idle=0.03, lambda_cnot=0.02, lambda_meas=0.03, mu=3.65)


def test_budget_headline_example():
    b = N.budget("cnot_dynamic", 10, FIG_PARAMS)
    assert b.lam_tot == pytest.approx((2 * 3.65 + 2) * 0.03 + 11 * 0.02 + 10 * 0.03, abs=1e-12)
    assert b.lam_tot == pytest.approx(0.799, abs=1e-12)
    assert b.fidelity_lower_bound == pytest.approx(0.4498, abs=1e-4)


def test_budget_simple_families():
    p = N.NoiseParams(lambda_idle=0.4, lambda_cnot=0.11, lambda_meas=0.2)
    for n in (2, 4, 8):
        assert N.budget("cnot_Ic", n, p).lam_tot == pytest.approx((4 * n + 1) * 0.11, abs=1e-12)
    assert N.budget("ghz_unitary", 4, p).lam_tot == pytest.approx(3 * 0.11, abs=1e-12)


def test_budget_errors():
    with pytest.raises(ValueError):
        N.budget("cnot_baroque", 4, FIG_PARAMS)
    for fam, bad_size in (
        ("cnot_Ib", 3),
        ("cnot_Ic", 0),
        ("cnot_II", 5),
        ("cnot_II_normed", 4),
        ("ghz_unitary", 7),
        ("ghz_dynamic", 2),
        ("cnot_dynamic", 0),
    ):
        with pytest.raises(ValueError):
            N.budget(fam, bad_size, FIG_PARAMS)


def _same_tally(a, b):
    assert (a.n_cnot, a.n_meas, a.feed_forward_steps) == (b.n_cnot, b.n_meas, b.feed_forward_steps)
    assert a.t_idle == pytest.approx(b.t_idle, rel=1e-12, abs=1e-12)
    assert a.depth == pytest.approx(b.depth, rel=1e-12, abs=1e-12)


def test_budget_tallies_match_scheduler():
    for mu in (1.0, 3.65):
        p = N.NoiseParams(mu=mu)
        for n in range(1, 9):
            _same_tally(N.budget("cnot_dynamic", n, p).tally, C.tally(C.long_range_cnot_dynamic(n, mu=mu)))
        for n in range(4, 13, 2):
            _same_tally(N.budget("ghz_dynamic", n, p).tally, C.tally(C.ghz_dynamic(n, mu=mu)))
    for n in range(1, 9):
        _same_tally(N.budget("cnot_Ia", n, FIG_PARAMS).tally, C.tally(C.long_range_cnot_unitary("Ia", n)))
    for n in range(2, 11, 2):
        _same_tally(N.budget("cnot_Ib", n, FIG_PARAMS).tally, C.tally(C.long_range_cnot_unitary("Ib", n)))
        _same_tally(N.budget("cnot_Ic", n, FIG_PARAMS).tally, C.tally(C.long_range_cnot_unitary("Ic", n)))
    for n in range(2, 9, 2):
        _same_tally(N.budget("cnot_II", n, FIG_PARAMS).tally, C.tally(C.long_range_cnot_unitary("II", n)))
    for n in range(4, 13, 2):
        _same_tally(N.budget("ghz_unitary", n, FIG_PARAMS).tally, C.tally(C.ghz_unitary(n)))


def test_budget_normed_swap_matches_rescaling():
    # the swap variant re-expressed on the ancilla-chain scale: size 2*nt+3
    for nt in (2, 4, 6):
        got = N.budget("cnot_II_normed", 2 * nt + 3, FIG_PARAMS).tally
        want = N.budget("cnot_II", nt, FIG_PARAMS).tally
        assert got == want


def test_gate_fidelity_from_process():
    assert N.gate_fidelity_from_process(1.0, 4) == 1.0
    assert N.gate_fidelity_from_process(0.25, 4) == 0.4
    with pytest.raises(ValueError):
        N.gate_fidelity_from_process(1.2, 4)
    with pytest.raises(ValueError):
        N.gate_fidelity_from_process(0.5, 1)


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------


def test_crossover_cnot_window():
    pt = N.crossover_point(
        FIG_PARAMS, dynamic="cnot_dynamic", unitaries=("cnot_Ia", "cnot_Ib", "cnot_Ic"), n_start=2
    )
    assert pt.n_cross == 10
    assert pt.fidelity == pytest.approx(math.exp(-0.799), abs=1e-12)
    with_swap = N.crossover_point(
        FIG_PARAMS,
        dynamic="cnot_dynamic",
        unitaries=("cnot_Ia", "cnot_Ib", "cnot_Ic", "cnot_II_normed"),
        n_start=2,
    )
    assert with_swap.n_cross == 12


def _ghz_boundary(lam_cnot, mu=3.65, lam_idle=0.001):
    """Largest lam_meas (by bisection) whose GHZ crossover still has F > 0.5."""
    lo, hi = 0.0, 0.2
    for _ in range(50):
        mid = (lo + hi) / 2
        p = N.NoiseParams(lambda_idle=lam_idle, lambda_cnot=lam_cnot, lambda_meas=mid, mu=mu)
        pt = N.crossover_point(p)
        if pt.fidelity is not None and pt.fidelity > 0.5:
            lo = mid
        else:
            hi = mid
    return lo


def test_crossover_ghz_boundaries():
    b1 = _ghz_boundary(0.01)
    assert 0.0024 <= b1 <= 0.0036  # the quoted working point, +-20%
    # at the second quoted working point the crossover is comfortably a
    # usable witness...
    p = N.NoiseParams(lambda_idle=0.001, lambda_cnot=0.001, lambda_meas=0.012, mu=3.65)
    pt = N.crossover_point(p)
    assert pt.fidelity is not None and pt.fidelity > 0.5
    assert pt.fidelity == pytest.approx(0.7108, abs=2e-4)
    # ...because the boundary itself sits substantially higher (regression
    # pin; the closed forms place it near 0.0198)
    b2 = _ghz_boundary(0.001)
    assert 0.0190 <= b2 <= 0.0206


def test_crossover_degenerate_and_none():
    # free measurements and instant feed-forward: quadratic idle loses early
    p = N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.001, lambda_meas=0.0, mu=0.0)
    pt = N.crossover_point(p)
    assert pt.n_cross == 6
    hopeless = N.NoiseParams(lambda_idle=0.001, lambda_cnot=0.01, lambda_meas=5.0, mu=3.65)
    assert N.crossover_point(hopeless, n_max=2000).n_cross is None
    with pytest.raises(ValueError):
        N.crossover_point(p, dynamic="ghz_dramatic")


def test_crossover_map_grid():
    base = N.NoiseParams(lambda_idle=0.001, mu=3.65)
    pts = N.crossover_map(base, [0.01, 0.001], [0.001, 0.003])
    assert [(p.lam_cnot, p.lam_meas) for p in pts] == [
        (0.01, 0.001),
        (0.01, 0.003),
        (0.001, 0.001),
        (0.001, 0.003),
    ]
    for p in pts:
        single = N.crossover_point(
            N.NoiseParams(lambda_idle=0.001, lambda_cnot=p.lam_cnot, lambda_meas=p.lam_meas, mu=3.65)
        )
        assert (p.n_cross, p.fidelity) == (single.n_cross, single.fidelity)
