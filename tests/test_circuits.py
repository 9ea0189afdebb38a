"""Builders and cost tallies.

Semantic checks (does the circuit implement its target?) run against the
dense engine at small sizes; the large-size and whole-table assertions live
in the acceptance suite.  Cost checks freeze the closed forms the scheduler
must reproduce, with mu left symbolic by testing two different values.
"""

import json
import pathlib

import numpy as np
import pytest

from dyncirc import circuits as C
from dyncirc import statevector as sv

GOLDEN = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# IR and validation
# ---------------------------------------------------------------------------


def test_empty_circuit_tally_is_zero():
    t = C.tally(C.Circuit(3))
    assert (t.t_idle, t.n_cnot, t.n_meas, t.depth, t.feed_forward_steps) == (0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "op, qubits",
    [("h", (0, 1)), ("h", ()), ("reset", (0, 1)), ("measure", (0, 1)), ("x", (0, 0)), ("cpauli", (0, 1)),
     ("cx", (0,)), ("cx", (1, 1)), ("cx", (0, 1, 2)), ("ccz", (0, 1)), ("ccz", (0, 1, 1))],
)
def test_add_rejects_the_wrong_number_of_qubits(op, qubits):
    # an engine applies a one-qubit op to its first qubit only, while the
    # tally counts every listed qubit as busy
    c = C.Circuit(3)
    with pytest.raises(ValueError, match=rf"^{op} needs \d distinct qubits, got"):
        c.add(op, *qubits, start=0.0)
    assert c.instructions == []


def test_add_accepts_each_op_at_its_arity():
    c = C.Circuit(3)
    for op, qubits in [("h", (2,)), ("cx", (0, 1)), ("ccz", (2, 0, 1)), ("barrier", ()), ("barrier", (0, 1, 2))]:
        c.add(op, *qubits, start=0.0)
    assert [i.qubits for i in c.instructions] == [(2,), (0, 1), (2, 0, 1), (), (0, 1, 2)]


def test_validate_rejects_double_booking():
    c = C.Circuit(3)
    c.add("cx", 0, 1, start=0.0)
    c.add("cx", 1, 2, start=0.5)
    with pytest.raises(ValueError, match="double-booked"):
        c.validate()


def test_validate_rejects_unwritten_record():
    c = C.Circuit(1)
    c.add("cpauli", 0, start=0.0, pauli="X", parity=(0,))
    with pytest.raises(ValueError, match="unwritten"):
        c.validate()


def test_validate_names_only_the_unwritten_record_of_an_extension():
    # the second parity extends the first, so only its new records are
    # checked; the error still names exactly the one that is missing
    c = C.Circuit(2)
    r0 = c.measure(0, start=0.0)
    r1 = c.measure(0, start=1.0)
    c.add("cpauli", 1, start=2.0, pauli="X", parity=(r0,))
    c.add("cpauli", 1, start=2.0, pauli="Z", parity=(r0, r1, r1 + 1))
    with pytest.raises(ValueError, match=r"unwritten records \[2\]$"):
        c.validate()


def test_validate_rejects_a_record_written_twice():
    # folded parities rely on a record keeping its value once written
    c = C.Circuit(1)
    r = c.measure(0, start=0.0)
    c.add("measure", 0, start=1.0, record=r)
    with pytest.raises(ValueError, match="written twice"):
        c.validate()


def test_tally_validates_once(monkeypatch):
    calls = []
    validate = C.Circuit.validate
    monkeypatch.setattr(C.Circuit, "validate", lambda self: calls.append(self) or validate(self))
    circ = C.ghz_dynamic(8)
    C.tally(circ)
    assert calls == [circ]
    bad = C.Circuit(3)
    bad.add("cx", 0, 1, start=0.0)
    bad.add("cx", 1, 2, start=0.5)
    with pytest.raises(ValueError, match="double-booked"):
        C.tally(bad)


def test_validate_rejects_unordered_instructions():
    c = C.Circuit(1)
    c.add("h", 0, start=1.0)
    c.add("x", 0, start=0.0)
    with pytest.raises(ValueError, match="time-ordered"):
        c.validate()


def test_builders_produce_valid_schedules():
    mu = 3.65
    circs = [
        C.long_range_cnot_dynamic(6, mu=mu),
        C.long_range_cnot_dynamic(7, mu=mu, mode="post_process"),
        C.long_range_cnot_unitary("Ia", 5),
        C.long_range_cnot_unitary("Ib", 6),
        C.long_range_cnot_unitary("Ic", 6),
        C.long_range_cnot_unitary("II", 6),
        C.ghz_unitary(9),
        C.ghz_dynamic(10, mu=mu),
        C.ghz_dynamic(9, mu=mu),
        C.ccz_dynamic(4, mu=mu),
    ]
    for c in circs:
        c.validate()


def test_golden_json_round_trip():
    c = C.long_range_cnot_dynamic(3, mu=2.0)
    want = (GOLDEN / "cnot_dynamic_n3.json").read_text()
    assert c.to_json() + "\n" == want
    doc = json.loads(want)
    assert doc["n_qubits"] == 5 and doc["n_records"] == 3
    assert [i["op"] for i in doc["instructions"]].count("cx") == 4


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        C.long_range_cnot_unitary("Id", 3)
    with pytest.raises(ValueError):
        C.long_range_cnot_unitary("Ia", 0)
    with pytest.raises(ValueError):
        C.long_range_cnot_dynamic(0)
    with pytest.raises(ValueError):
        C.ghz_unitary(1)
    with pytest.raises(ValueError):
        C.ghz_dynamic(8, mode="psychic")
    with pytest.raises(ValueError):
        C.ccz_dynamic(0)


# ---------------------------------------------------------------------------
# known-zero content analysis (units)
# ---------------------------------------------------------------------------


def test_untouched_ancilla_accrues_no_idle():
    c = C.Circuit(2)
    c.add("cx", 0, 1, start=0.0)
    c.add("h", 0, start=5.0)  # stretch the makespan via a gap on qubit 0
    c.add("cx", 0, 1, start=5.0)
    t = C.tally(c)
    # qubit 0 idles only after it first leaves |0> (the first cx writes
    # nothing: control is known-zero, target expression stays zero)
    assert t.t_idle == 0.0


def test_idle_counted_for_held_data():
    c = C.Circuit(2)
    c.mark_input(0)
    c.add("cx", 0, 1, start=0.0)
    c.add("cx", 0, 1, start=4.0)
    # qubit 0: input from 0, busy [0,1) and [4,5) -> idle 3
    # qubit 1: holds a copy over [1,4) -> idle 3; zeroed after the uncopy
    assert C.tally(c).t_idle == pytest.approx(6.0)


def test_x_gate_breaks_known_zero():
    c = C.Circuit(1)
    c.add("x", 0, start=0.0)
    c.add("x", 0, start=3.0)  # back to |0>
    c.add("barrier", start=5.0)
    assert C.tally(c).t_idle == pytest.approx(3.0)


def test_reset_restores_known_zero():
    c = C.Circuit(1)
    c.add("h", 0, start=0.0)
    c.add("reset", 0, start=2.0)
    c.add("barrier", start=6.0)
    assert C.tally(c).t_idle == pytest.approx(2.0)


def test_conditioned_x_cancels_measured_content():
    # measure-then-correct leaves the qubit provably in |0>
    c = C.Circuit(2)
    c.mark_input(0)
    c.add("cx", 0, 1, start=0.0)
    r = c.measure(1, start=1.0)
    c.add("cpauli", 1, start=1.0, pauli="X", parity=(r,))
    c.add("barrier", start=4.0)
    t = C.tally(c)
    # qubit 1 is zero again right after the correction; qubit 0 idles [1,4)
    assert t.t_idle == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# cost closed forms (mu kept symbolic by trying two values)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu", [1.0, 3.65])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_dynamic_cnot_costs(n, mu):
    t = C.tally(C.long_range_cnot_dynamic(n, mu=mu))
    assert t.t_idle == pytest.approx(2 * mu + 2)
    assert t.n_cnot == n + 1
    assert t.n_meas == n
    assert t.depth == pytest.approx(2 + mu)
    assert t.feed_forward_steps == 1


def test_dynamic_cnot_example_row():
    t = C.tally(C.long_range_cnot_dynamic(5, mu=3.65))
    assert (t.t_idle, t.n_cnot, t.n_meas, t.depth) == (2 * 3.65 + 2, 6, 5, 2 + 3.65)


@pytest.mark.parametrize("n", range(1, 11))
def test_fanout_ladder_costs(n):
    t = C.tally(C.long_range_cnot_unitary("Ia", n))
    assert t.t_idle == n * n + 2 * n
    assert t.n_cnot == 2 * n + 1
    assert t.n_meas == 0
    assert t.depth == 2 * n + 1


def test_fanout_example_row():
    t = C.tally(C.long_range_cnot_unitary("Ia", 4))
    assert (t.t_idle, t.n_cnot, t.depth) == (24, 9, 9)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_relay_costs_even(n):
    t = C.tally(C.long_range_cnot_unitary("Ib", n))
    assert t.t_idle == n * n / 4 + n
    assert t.n_cnot == 3 * n + 1
    assert t.depth == 2 * n + 1


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_shuttle_costs_even(n):
    t = C.tally(C.long_range_cnot_unitary("Ic", n))
    assert t.t_idle == 0
    assert t.n_cnot == 4 * n + 1
    assert t.depth == 2 * n + 1


@pytest.mark.parametrize("n", [3, 5, 7])
def test_shuttle_odd_sizes_cannot_reach_zero_idle(n):
    # With an odd chain the two payloads cannot meet symmetrically: one side
    # travels one hop further, leaving the shorter side waiting 2 time units
    # before the middle gate and 2 after.  Gate count is unchanged.
    t = C.tally(C.long_range_cnot_unitary("Ic", n))
    assert t.t_idle == 4
    assert t.n_cnot == 4 * n + 1
    assert t.depth == 2 * n + 3


@pytest.mark.parametrize("nm", [2, 4, 6, 8, 10])
def test_swap_displacement_costs_even(nm):
    t = C.tally(C.long_range_cnot_unitary("II", nm))
    # Conservation fixes the idle total: (nm+2) occupied qubits over a
    # makespan of 3*nm/2 + 1, minus 2 qubit-units per CNOT.
    assert t.t_idle == (nm + 2) * (1.5 * nm + 1) - 2 * (3 * nm + 1)
    assert t.t_idle == 1.5 * nm * nm - 2 * nm
    assert t.n_cnot == 3 * nm + 1
    assert t.depth == 1.5 * nm + 1


def test_swap_displacement_example_row():
    t = C.tally(C.long_range_cnot_unitary("II", 4))
    assert (t.n_cnot, t.depth) == (13, 7)


def test_swap_displacement_output_map():
    c = C.long_range_cnot_unitary("II", 4)
    assert c.output_map == {0: 2, 5: 3, 1: 0, 2: 1, 3: 4, 4: 5}


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_ghz_unitary_costs_even(n):
    t = C.tally(C.ghz_unitary(n))
    assert t.t_idle == n * n / 4 - 1.5 * n + 2
    assert t.n_cnot == n - 1
    assert t.n_meas == 0
    assert t.depth == n / 2


def test_ghz_unitary_example():
    t = C.tally(C.ghz_unitary(4))
    assert (t.t_idle, t.n_cnot) == (0, 3)


@pytest.mark.parametrize("mu", [1.0, 3.65])
@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_ghz_dynamic_costs_even(n, mu):
    t = C.tally(C.ghz_dynamic(n, mu=mu))
    assert t.t_idle == pytest.approx(1 + mu * n / 2)
    assert t.n_cnot == 3 * n // 2 - 2
    assert t.n_meas == n // 2 - 1
    assert t.depth == pytest.approx(3 + mu)


def test_ghz_dynamic_example_row():
    t = C.tally(C.ghz_dynamic(8))
    assert (t.n_cnot, t.n_meas) == (10, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ccz_costs(n):
    t = C.tally(C.ccz_dynamic(n))
    assert t.n_cnot == n + 6
    assert t.n_meas == n + 1
    assert t.feed_forward_steps == (2 if n > 1 else 1)


def test_ccz_example_row():
    t = C.tally(C.ccz_dynamic(3))
    assert (t.n_meas, t.n_cnot, t.feed_forward_steps) == (4, 9, 2)


def test_post_process_removes_measurement_idle():
    mu = 3.65
    t = C.tally(C.long_range_cnot_dynamic(5, mu=mu, mode="post_process"))
    assert t.t_idle == pytest.approx(2.0)
    assert t.depth == pytest.approx(2.0)
    assert t.feed_forward_steps == 0
    t = C.tally(C.ghz_dynamic(8, mu=mu, mode="post_process"))
    assert t.t_idle == pytest.approx(1.0)
    assert t.feed_forward_steps == 0


# ---------------------------------------------------------------------------
# semantics vs the dense engine (small sizes)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["feed_forward", "post_process"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dynamic_cnot_is_exact_cnot(n, mode):
    c = C.long_range_cnot_dynamic(n, mu=1.0, mode=mode)
    F = sv.process_fidelity(c, sv.cnot_matrix(), (0, n + 1), mode=mode)
    assert F == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("variant,size", [
    ("Ia", 1), ("Ia", 3), ("Ib", 2), ("Ib", 3), ("Ib", 4),
    ("Ic", 2), ("Ic", 3), ("Ic", 4),
])
def test_unitary_variants_are_exact_cnot(variant, size):
    c = C.long_range_cnot_unitary(variant, size)
    F = sv.process_fidelity(c, sv.cnot_matrix(), (0, size + 1))
    assert F == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nm", [1, 2, 3, 4])
def test_swap_variant_is_cnot_plus_permutation(nm):
    c = C.long_range_cnot_unitary("II", nm)
    n_tot = nm + 2
    U = sv.circuit_unitary(c)
    ref = C.Circuit(n_tot)
    ref.add("cx", 0, nm + 1, start=0.0)
    CN = sv.circuit_unitary(ref)
    om = c.output_map
    P = np.zeros((1 << n_tot, 1 << n_tot))
    for i in range(1 << n_tot):
        j = 0
        for q in range(n_tot):
            j |= ((i >> (n_tot - 1 - q)) & 1) << (n_tot - 1 - om[q])
        P[j, i] = 1.0
    assert np.abs(U - P @ CN).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_ghz_builders_hit_target_state(n):
    Fu = sv.average_state_fidelity(C.ghz_unitary(n), sv.ghz_state(n))
    assert Fu == pytest.approx(1.0, abs=1e-12)
    Fd = sv.average_state_fidelity(C.ghz_dynamic(n, mu=1.0), sv.ghz_state(n))
    assert Fd == pytest.approx(1.0, abs=1e-12)
    Fp = sv.average_state_fidelity(
        C.ghz_dynamic(n, mu=1.0, mode="post_process"), sv.ghz_state(n), mode="post_process"
    )
    assert Fp == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_ccz_is_exact(n):
    c = C.ccz_dynamic(n, mu=1.0)
    F = sv.process_fidelity(c, sv.ccz_matrix(), (0, n + 1, n + 2))
    assert F == pytest.approx(1.0, abs=1e-12)


def test_ccz_phase_only_on_all_ones():
    # |110> control pattern keeps its sign; |111> flips
    c = C.ccz_dynamic(1, mu=1.0)
    n = c.n_qubits  # 4: data 0, hub 1, data 2, 3
    for pattern, sign in ((0b110, 1.0), (0b111, -1.0)):
        bits = 0
        data_vals = [(pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1]
        for dq, v in zip((0, 2, 3), data_vals):
            bits |= v << (n - 1 - dq)
        init = sv.basis_state(n, bits)
        target = sv.basis_state(n, bits)
        for b in sv.run_branches(c, initial=init):
            ov = np.vdot(target, b.state)
            assert abs(ov - sign) < 1e-12
