"""Builders and cost tallies.

Semantic checks (does the circuit implement its target?) run against the
dense engine at small sizes; the large-size and whole-table assertions live
in the acceptance suite.  Cost checks freeze the closed forms the scheduler
must reproduce, with mu left symbolic by testing two different values.
"""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncirc import circuits as C
from dyncirc import noise as N
from dyncirc import statevector as sv
from dyncirc import tableau as tb
from dyncirc.pauli import PauliString
from known_zero import idle_reference

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


@pytest.mark.parametrize(
    "ins",
    [C.Instruction("x", (5,), 0.5), C.Instruction("h", (-1,), 0.0), C.Instruction("frob", (0,), 0.0),
     C.Instruction("cx", (0,), 0.0, 1.0), C.Instruction("cx", (1, 1), 0.0, 1.0), C.Instruction("h", (0, 1), 0.0),
     C.Instruction("ccz", (0, 1), 0.0)],
)
def test_validate_checks_instructions_placed_directly(ins):
    # callers may append to ``instructions`` without going through add();
    # validation then raises what add() would have raised
    with pytest.raises(ValueError) as from_add:
        C.Circuit(2).add(ins.op, *ins.qubits, start=ins.start, duration=ins.duration)
    c = C.Circuit(2)
    c.instructions.append(ins)
    for call in (c.validate, lambda: C.tally(c), lambda: N.attach_noise(c, N.NoiseParams(lambda_cnot=0.1))):
        with pytest.raises(ValueError) as from_validate:
            call()
        assert str(from_validate.value) == str(from_add.value)


def test_validate_rejects_a_zero_duration_op_inside_a_busy_window():
    c = C.Circuit(2)
    c.add("cx", 0, 1, start=0.0)
    c.add("h", 0, start=0.5)
    with pytest.raises(ValueError, match=r"qubit 0 double-booked: \[0.0,1.0\) vs \[0.5,0.5\)"):
        c.validate()
    # at either edge of the window it is not inside it
    for t in (0.0, 1.0):
        c = C.Circuit(2)
        c.add("cx", 0, 1, start=0.0)
        c.add("h", 0, start=t)
        c.validate()


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
    for gate in ("x", "y"):  # y flips the computational basis as x does
        c = C.Circuit(1)
        c.add(gate, 0, start=0.0)
        c.add(gate, 0, start=3.0)  # back to |0>
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
# schedule analysis: per-segment reference, noise sites, memo
# ---------------------------------------------------------------------------


def _attach_reference(circuit, params, cnot_pauli):
    """Noise sites built from Pauli products, each idle window's site index
    found by scanning its qubit's instructions, merged over every index."""
    n = circuit.n_qubits
    n_ins = len(circuit.instructions)
    gate, meas, idle = {}, {}, {}
    for k, ins in enumerate(circuit.instructions):
        if ins.op == "cx" and params.lambda_cnot > 0:
            p = PauliString(n)
            for q, letter in zip(ins.qubits, cnot_pauli):
                if letter != "I":
                    p = (p * PauliString.single(n, q, letter)).mod_phase()
            gate.setdefault(k + 1, []).append(N.NoiseSite(k + 1, p, N.omega(params.lambda_cnot)))
        if ins.op == "measure" and params.lambda_meas > 0:
            p = PauliString.single(n, ins.qubits[0], "X")
            meas.setdefault(k, []).append(N.NoiseSite(k, p, N.omega(params.lambda_meas)))
    for q, a, b in idle_reference(circuit):
        touching = [i for i, ins in enumerate(circuit.instructions) if q in ins.qubits]
        k = next((i for i in touching if circuit.instructions[i].start >= b - 1e-9), n_ins)
        for letter, rate in params.idle_rates(b - a):
            idle.setdefault(k, []).append(N.NoiseSite(k, PauliString.single(n, q, letter), N.omega(rate)))
    out = []
    for k in range(n_ins + 1):
        out += gate.get(k, []) + idle.get(k, []) + meas.get(k, [])
    return out


def test_idle_window_runs_on_across_a_boundary_inside_it():
    # reset then h at t = 2: the content is known-zero for no time, so the
    # two segments either side of t = 2 make one window
    c = C.Circuit(2)
    c.add("h", 0, start=0.0)
    c.add("x", 1, start=1.0)
    c.add("reset", 0, start=2.0)
    c.add("h", 0, start=2.0)
    c.add("barrier", start=5.0)
    assert list(c.validate().idle) == idle_reference(c) == [(0, 0.0, 5.0), (1, 1.0, 5.0)]


_MUS = (0.0, 1e-3, 1.0, 3.65, 7.3)
_SITE_PARAMS = [
    ("ZX", N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.02, lambda_meas=0.03)),
    ("XX", N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.02, lambda_meas=0.03)),
    ("IZ", N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.02, lambda_meas=0.03)),
    ("ZX", N.NoiseParams(lambda_cnot=0.02, lambda_meas=0.03, t1=50.0, t2=60.0)),
]


def _family_circuits(family):
    """Every builder of ``family`` at n = 1..40, at each of _MUS where the
    builder takes mu (post-process mode ignores it)."""
    for n in range(1, 41):
        if family in ("Ia", "Ib", "Ic", "II"):
            yield C.long_range_cnot_unitary(family, n)
        elif family == "ghz_unitary":
            if n >= 2:
                yield C.ghz_unitary(n)
        elif family.endswith("_post_process"):
            if family.startswith("cnot"):
                yield C.long_range_cnot_dynamic(n, mode="post_process")
            elif n >= 2:
                yield C.ghz_dynamic(n, mode="post_process")
        else:
            for mu in _MUS:
                if family == "cnot_dynamic":
                    yield C.long_range_cnot_dynamic(n, mu=mu)
                elif family == "ccz_dynamic":
                    yield C.ccz_dynamic(n, mu=mu)
                elif n >= 2:
                    yield C.ghz_dynamic(n, mu=mu)


@pytest.mark.parametrize(
    "family",
    ["cnot_dynamic", "cnot_dynamic_post_process", "Ia", "Ib", "Ic", "II", "ghz_unitary", "ghz_dynamic",
     "ghz_dynamic_post_process", "ccz_dynamic"],
)
def test_schedule_analysis_matches_the_per_segment_reference(family):
    for circ in _family_circuits(family):
        want = idle_reference(circ)
        assert list(circ.validate().idle) == want
        assert C.tally(circ).t_idle == sum(b - a for _, a, b in want)
        for cnot_pauli, params in _SITE_PARAMS:
            assert N.attach_noise(circ, params, cnot_pauli) == _attach_reference(circ, params, cnot_pauli)


_OPS = st.sampled_from(["h", "x", "y", "s", "cx", "measure", "reset", "cpauli", "barrier", "input"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_OPS, st.integers(0, 2), st.integers(0, 2), st.integers(0, 8), st.sampled_from([0, 0, 1, 2])),
                max_size=14))
def test_schedule_analysis_matches_the_reference_on_random_schedules(steps):
    """Random valid schedules on three qubits, with starts and durations on
    a half-unit grid, so that windows touch, zero events fall inside and
    at the edges of busy windows, and the list holds zero-duration ops at
    the same time as longer ones."""
    circ = C.Circuit(3)
    recs = []
    for op, a, b, start, dur in sorted(steps, key=lambda s: s[3]):
        kw = {"start": start / 2, "duration": dur / 2}
        if op == "cx":
            if a == b:
                continue
            circ.add("cx", a, b, **kw)
        elif op == "measure":
            recs.append(circ.measure(a, **kw))
        elif op == "cpauli":
            circ.add("cpauli", a, pauli="XZ"[b % 2], parity=tuple(recs[-1 - b % 2 :]), start=kw["start"])
        elif op == "barrier":
            circ.add("barrier", *range(a), **kw)
        else:
            circ.add(op, a, **kw)
    try:
        want = idle_reference(circ)
    except ValueError:
        with pytest.raises(ValueError):
            circ.validate()
        return
    assert list(circ.validate().idle) == want
    for cnot_pauli, params in _SITE_PARAMS[::3]:
        assert N.attach_noise(circ, params, cnot_pauli) == _attach_reference(circ, params, cnot_pauli)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 50.0), st.integers(1, 40))
def test_tally_idle_matches_the_closed_form_for_every_mu(mu, n):
    """The 1e-12 / 1e-9 schedule tolerances hold for any feed-forward
    duration: the scheduler's idle time is the budget's closed form."""
    p = N.NoiseParams(mu=mu)
    cases = [("cnot_dynamic", n, C.long_range_cnot_dynamic(n, mu=mu))]
    if n >= 2:
        cases.append(("ghz_dynamic", 2 * n, C.ghz_dynamic(2 * n, mu=mu)))
    for family, size, circ in cases:
        want = N.budget(family, size, p).tally.t_idle
        assert math.isclose(C.tally(circ).t_idle, want, rel_tol=1e-9)


def test_schedule_analysis_runs_once_per_state_of_the_circuit(monkeypatch):
    calls = []
    analyse = C._analyse_schedule
    monkeypatch.setattr(C, "_analyse_schedule", lambda circ: calls.append(circ) or analyse(circ))
    params = N.NoiseParams(lambda_idle=0.01, lambda_cnot=0.02, lambda_meas=0.03)
    circ = C.ghz_dynamic(64)
    t = C.tally(circ)
    sites = N.attach_noise(circ, params)
    assert (list(circ.validate().idle), C.tally(circ)) == (idle_reference(circ), t)
    assert len(calls) == 1

    def changed(expect_depth):
        before = len(calls)
        t = C.tally(circ)
        assert t.depth == expect_depth and t.t_idle == sum(b - a for _, a, b in idle_reference(circ))
        assert N.attach_noise(circ, params) == _attach_reference(circ, params, "ZX")
        assert len(calls) == before + 1
        return t

    end = circ.makespan
    circ.add("barrier", start=end + 2.0)  # every live qubit idles 2 longer
    assert changed(end + 2.0).t_idle == pytest.approx(t.t_idle + 2.0 * 64)
    circ.measure(0, start=end + 2.0, duration=1.0)
    assert changed(end + 3.0).n_meas == t.n_meas + 1
    circ.instructions[-1] = dataclasses.replace(circ.instructions[-1], duration=2.0)
    changed(end + 4.0)
    circ.instructions.extend([C.Instruction("barrier", (), end + 5.0), C.Instruction("x", (1,), end + 4.0)])
    for _ in range(2):  # not time-ordered: every call raises
        with pytest.raises(ValueError, match="time-ordered"):
            C.tally(circ)
        with pytest.raises(ValueError, match="time-ordered"):
            N.attach_noise(circ, params)
    circ.instructions.sort(key=lambda ins: ins.start)
    changed(end + 5.0)
    assert sites != N.attach_noise(circ, params)

    # run_batch validates through the walk tally and attach_noise paid for
    circ = C.long_range_cnot_dynamic(6, mu=3.65)
    before = len(calls)
    C.tally(circ)
    sites = N.attach_noise(circ, params)
    tb.run_batch(circ, 8, master_seed=3, noise=sites)
    assert calls[before:] == [circ]
    circ.add("x", 0, start=circ.makespan)
    tb.run_batch(circ, 8, master_seed=3, noise=sites)
    assert calls[before:] == [circ, circ]


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
