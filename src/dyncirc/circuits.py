"""Circuit IR, schedulers, and builders for long-range CNOT / GHZ / CCZ circuits.

A :class:`Circuit` is an ordered instruction list with an explicit time
schedule in CNOT-gate-time units.  Durations: a CNOT takes 1.0, a measurement
block takes ``mu`` (the measurement + feed-forward ratio), single-qubit gates
and classical corrections take 0.  Engines execute instructions in *list*
order; the schedule exists for cost accounting and is validated separately.

Instruction ops:

- ``input``    -- marks a qubit as carrying caller data from t=0 (alive, not |0>)
- ``h s x z t tdg cx ccz`` -- gates (t/tdg/ccz are non-Clifford; dense engine only)
- ``measure``  -- Z measurement into a numbered classical record
- ``reset``    -- return a qubit to |0> (engines lower it to measure + X)
- ``cpauli``   -- Pauli X or Z applied iff the XOR of referenced records is 1
- ``barrier``  -- scheduling no-op

Idle-time accounting follows a conservative known-zero analysis: each qubit's
computational-basis content is tracked as a GF(2) affine expression over
opaque labels (minted by ``input`` and ``h``); a qubit accrues idle time only
while its expression is provably not the constant 0 and it is not inside any
scheduled instruction.  This makes un-computed ancillas free, matching the
convention that a qubit parked in |0> contributes no idle error.

:meth:`Circuit.validate` checks the schedule, folds that content and finds
the idle windows in one walk, kept until the circuit changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

CNOT_TIME = 1.0

GATE_OPS = frozenset({"h", "s", "sdg", "x", "y", "z", "t", "tdg", "cx", "ccz"})
ALL_OPS = GATE_OPS | {"input", "measure", "reset", "cpauli", "barrier"}
# qubits an op acts on, where not 1 (a barrier takes any number)
_ARITY = {"cx": 2, "ccz": 3}
_ONE_QUBIT_OPS = ALL_OPS - {"cx", "ccz", "barrier"}

# the schedules a dynamic builder makes: corrections fed forward (each waits
# mu for its records) or deferred to post-processing (no wait)
MODES = ("feed_forward", "post_process")


def _check_operands(op: str, qubits: tuple[int, ...], n_qubits: int) -> None:
    """Raise ValueError unless ``op`` is known and acts on its number of
    distinct qubits, all in range."""
    if op not in ALL_OPS:
        raise ValueError(f"unknown op {op!r}")
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit {q} out of range (n={n_qubits})")
    arity = len(qubits) if op == "barrier" else _ARITY.get(op, 1)
    if len(set(qubits)) != arity or len(qubits) != arity:
        raise ValueError(f"{op} needs {arity} distinct qubits, got {qubits}")


@dataclass(frozen=True)
class Instruction:
    op: str
    qubits: tuple[int, ...]
    start: float
    duration: float = 0.0
    record: int | None = None
    pauli: str | None = None
    parity: tuple[int, ...] = ()

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class InstructionTally:
    """Cost tally of a scheduled circuit, in CNOT-gate-time units."""

    t_idle: float
    n_cnot: int
    n_meas: int
    depth: float
    feed_forward_steps: int = 0


class Circuit:
    """Ordered, scheduled instruction list on ``n_qubits`` qubits."""

    def __init__(self, n_qubits: int, name: str = ""):
        if n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {n_qubits}")
        self.n_qubits = n_qubits
        self.name = name
        self.instructions: list[Instruction] = []
        self.n_records = 0
        self.data_qubits: tuple[int, ...] = ()
        # For builders that end with qubits permuted (swap-based variant II):
        # original index -> final chain position.  None means identity.
        self.output_map: dict[int, int] | None = None
        self.meta: dict = {}
        # (key, ScheduleAnalysis) of the last walk, see validate
        self._schedule: tuple | None = None

    # -- construction ---------------------------------------------------------

    def add(
        self,
        op: str,
        *qubits: int,
        start: float | None = None,
        duration: float | None = None,
        record: int | None = None,
        pauli: str | None = None,
        parity: tuple[int, ...] = (),
    ) -> Instruction:
        _check_operands(op, qubits, self.n_qubits)
        if duration is None:
            duration = CNOT_TIME if op == "cx" else 0.0
        if start is None:
            start = max((i.end for i in self.instructions if set(i.qubits) & set(qubits)), default=0.0)
        ins = Instruction(op, tuple(qubits), float(start), float(duration), record, pauli, tuple(parity))
        self.instructions.append(ins)
        return ins

    def measure(self, q: int, start: float | None = None, duration: float = 0.0) -> int:
        """Append a Z measurement; returns the classical record index."""
        rec = self.n_records
        self.n_records += 1
        self.add("measure", q, start=start, duration=duration, record=rec)
        return rec

    def mark_input(self, *qubits: int) -> None:
        for q in qubits:
            self.add("input", q, start=0.0)
        self.data_qubits = tuple(sorted(set(self.data_qubits) | set(qubits)))

    @property
    def makespan(self) -> float:
        return max((i.end for i in self.instructions), default=0.0)

    # -- validation and schedule analysis -------------------------------------

    def validate(self) -> ScheduleAnalysis:
        """Check schedule sanity and return the :class:`ScheduleAnalysis`,
        both from one walk over the instructions: every op known and on its
        number of distinct qubits in range (as :meth:`add` checks),
        time-ordered list, no qubit overlap (an instruction, even one of
        zero duration, may not start inside another's busy window on the
        same qubit), records written before read.  The result is kept with
        a snapshot of the instructions, record count and qubit count, so
        the walk runs again only after one of those changes; a circuit that
        fails validation raises on every call."""
        key = (tuple(self.instructions), self.n_records, self.n_qubits)
        memo = self._schedule
        if memo is None or memo[0] != key:
            memo = self._schedule = (key, _analyse_schedule(self))
        return memo[1]

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "n_qubits": self.n_qubits,
            "n_records": self.n_records,
            "data_qubits": list(self.data_qubits),
            "output_map": None if self.output_map is None else {str(k): v for k, v in sorted(self.output_map.items())},
            "meta": self.meta,
            "instructions": [
                {
                    "op": i.op,
                    "qubits": list(i.qubits),
                    "start": i.start,
                    "duration": i.duration,
                    **({"record": i.record} if i.record is not None else {}),
                    **({"pauli": i.pauli} if i.pauli is not None else {}),
                    **({"parity": list(i.parity)} if i.parity else {}),
                }
                for i in self.instructions
            ],
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    def __repr__(self) -> str:
        return f"<Circuit {self.name or '?'} n={self.n_qubits} ops={len(self.instructions)}>"


# ---------------------------------------------------------------------------
# the schedule walk: validation, known-zero content, idle windows; cost tally
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleAnalysis:
    """What the walk over a valid circuit's schedule finds: ``idle`` holds
    the merged (qubit, start, end) windows that accrue idle cost, by qubit
    and then time; ``closers[i]`` is the index of the instruction that
    closes ``idle[i]``, the first one on its qubit that starts at its end
    (the instruction count when none does).  ``parities`` holds one
    ``(base, reads)`` per ``cpauli``, in list order: its parity is that of
    records ``reads`` XOR, when ``base`` is not None, that of ``cpauli``
    ``base``, the one before it.  A parity is folded so when the one before
    is a non-empty prefix of it, as a record is written once and keeps its
    value: the constant-depth GHZ chain's corrections read growing prefixes
    of one record list, so each reads one new record instead of all."""

    makespan: float
    idle: tuple[tuple[int, float, float], ...]
    closers: tuple[int, ...]
    parities: tuple[tuple[int | None, tuple[int, ...]], ...]


def _analyse_schedule(circ: Circuit) -> ScheduleAnalysis:
    """Validate ``circ`` and find its idle windows in one walk over the
    instruction list.

    Each qubit's content is a GF(2) affine form in one int: bit 0 is the
    constant, each higher bit an opaque label.  ``input`` and ``h`` mint a
    fresh label, ``x`` and ``y`` flip the constant, ``cx`` XORs the
    control's form onto the target's, a measurement snapshots the form into
    its record and a ``cpauli`` X XORs on its parity's form, folded from the
    one before (``parities``); other ops leave the form alone.

    While a qubit's form is not 0, an idle run is open from the latest end
    of a busy window on it (time 0 at first).  The run closes at the start
    of the qubit's next instruction of positive duration, at the end of
    the instruction that makes the form 0, or at the makespan; a
    zero-duration instruction that leaves the form non-zero does not cut
    it.  A run shorter than 1e-12 is dropped, and one that starts within
    1e-12 of the kept run before it extends that run.  A window ending at
    b is closed by the first instruction on its qubit, after the closer of
    the window before, that starts at or after b - 1e-9."""
    n = circ.n_qubits
    instructions = circ.instructions
    makespan = float("-inf") if instructions else 0.0
    prev_start = float("-inf")
    written: dict[int, int] = {}  # record -> the form measured into it
    prev_parity, prev_value = None, 0
    parities: list[tuple[int | None, tuple[int, ...]]] = []
    labels = 0
    form = [0] * n
    free = [0.0] * n  # latest end of a busy window on each qubit
    opened: list[float | None] = [None] * n  # start of the open idle run
    runs: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    busy: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    touching: list[list[int]] = [[] for _ in range(n)]  # instruction indices

    for k, ins in enumerate(instructions):
        op, qubits, start, duration = ins.op, ins.qubits, ins.start, ins.duration
        # the common one-qubit case inline, anything else in full
        if op not in _ONE_QUBIT_OPS or len(qubits) != 1 or not 0 <= qubits[0] < n:
            _check_operands(op, qubits, n)
        if start + 1e-12 < prev_start:
            raise ValueError(f"instruction list not time-ordered at {ins}")
        prev_start = start
        end = start + duration
        if end > makespan:
            makespan = end
        new = None  # the new form of the last qubit, where this op sets it
        if op == "cx":
            new = form[qubits[0]] ^ form[qubits[1]]
        elif op == "h" or op == "input":
            labels += 1
            new = 1 << labels
        elif op == "x" or op == "y":
            new = form[qubits[0]] ^ 1
        elif op == "reset":
            new = 0
        elif op == "measure":
            if ins.record is None:
                raise ValueError("measure without record index")
            if ins.record in written:
                raise ValueError(f"record {ins.record} written twice")
            written[ins.record] = form[qubits[0]]
        elif op == "cpauli":
            if ins.pauli not in ("X", "Z"):
                raise ValueError(f"cpauli supports X or Z, got {ins.pauli!r}")
            # a folded prefix was checked at the cpauli before
            folded = bool(prev_parity) and ins.parity[: len(prev_parity)] == prev_parity
            reads = ins.parity[len(prev_parity) :] if folded else ins.parity
            missing = {r for r in reads if r not in written}
            if missing:
                raise ValueError(f"cpauli reads unwritten records {sorted(missing)}")
            value = prev_value if folded else 0
            for r in reads:
                value ^= written[r]
            prev_parity, prev_value = ins.parity, value
            parities.append((len(parities) - 1 if folded else None, reads))
            if ins.pauli == "X":
                new = form[qubits[0]] ^ value

        for q in qubits:
            for s, e in busy[q]:
                if start < e - 1e-12 and s < end - 1e-12:
                    raise ValueError(f"qubit {q} double-booked: [{s},{e}) vs [{start},{end})")
            touching[q].append(k)
            if duration > 0:
                busy[q].append((start, end))
                free[q] = max(free[q], end)
                if opened[q] is not None:
                    if opened[q] < start:
                        runs[q].append((opened[q], start))
                    opened[q] = free[q]
        if new is not None:
            q = qubits[-1]
            if not new and opened[q] is not None:
                if opened[q] < end:
                    runs[q].append((opened[q], end))
                opened[q] = None
            elif new and opened[q] is None:
                opened[q] = max(end, free[q])
            form[q] = new
    if circ.n_records != len(written):
        raise ValueError("record counter out of sync with measure instructions")

    idle: list[tuple[int, float, float]] = []
    closers: list[int] = []
    for q in range(n):
        if opened[q] is not None:
            runs[q].append((opened[q], makespan))
        kept: list[list[float]] = []
        for a, b in runs[q]:
            if b - a < 1e-12:
                continue
            if kept and abs(kept[-1][1] - a) < 1e-12:
                kept[-1][1] = b
            else:
                kept.append([a, b])
        ks, ki = touching[q], 0
        for a, b in kept:
            while ki < len(ks) and instructions[ks[ki]].start < b - 1e-9:
                ki += 1
            idle.append((q, a, b))
            closers.append(ks[ki] if ki < len(ks) else len(instructions))
    return ScheduleAnalysis(makespan, tuple(idle), tuple(closers), tuple(parities))


def tally(circ: Circuit) -> InstructionTally:
    """Cost tally: idle time (known-zero excluded), CNOT and measurement
    counts, schedule makespan, and the number of distinct feed-forward steps.
    Idle time and makespan come from :meth:`Circuit.validate`, which walks
    the circuit once per state of it."""
    sched = circ.validate()
    n_cnot = sum(1 for i in circ.instructions if i.op == "cx")
    n_meas = sum(1 for i in circ.instructions if i.op == "measure")
    if circ.meta.get("mode") == "post_process":
        ff_steps = 0
    else:
        ff_steps = len({i.start for i in circ.instructions if i.op == "cpauli"})
    t_idle = sum(b - a for _, a, b in sched.idle)
    return InstructionTally(t_idle, n_cnot, n_meas, sched.makespan, ff_steps)


# ---------------------------------------------------------------------------
# builders: long-range CNOT
# ---------------------------------------------------------------------------


def _measurement_duration(mode: str, mu: float) -> float:
    """How long a measurement block of a dynamic builder takes: mu when its
    corrections are fed forward, 0 when they are deferred."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return 0.0 if mode == "post_process" else float(mu)


def long_range_cnot_dynamic(n_ancillas: int, mu: float = 1.0, mode: str = "feed_forward") -> Circuit:
    """Constant-depth long-range CNOT from qubit 0 to qubit n+1 across a chain
    of n ancillas, using one Bell-pair layer, mid-circuit measurements, and
    parity-conditioned X/Z corrections (:func:`_teleported_cnot`).
    ``mode`` (one of :data:`MODES`) is the schedule only: a post-process
    circuit has the same instructions, measured in no time.
    """
    n = n_ancillas
    if n < 1:
        raise ValueError(f"need n_ancillas >= 1, got {n}")
    meas_dur = _measurement_duration(mode, mu)
    circ = Circuit(n + 2, name=f"cnot_dynamic_n{n}")
    circ.meta = {"family": "cnot_dynamic", "n_ancillas": n, "mu": mu, "mode": mode}
    circ.mark_input(0, n + 1)
    _teleported_cnot(circ, n, meas_dur)
    return circ


def _teleported_cnot(circ: Circuit, n: int, meas_dur: float) -> float:
    """Add a constant-depth CNOT from qubit 0 to qubit n + 1 across the
    chain of ancillas 1..n, starting at time 0, and reset the ancillas;
    return the time of its feed-forward corrections.

    Layer structure: Hadamards on odd-position ancillas prepare Bell pairs
    within the chain; two CNOT layers stitch the pairs to the endpoints; odd
    ancillas are read out in Z, even ancillas in X (via H); the X correction
    on the target takes the parity of all Z outcomes and the Z correction on
    the control the parity of all X outcomes."""
    control, target = 0, n + 1
    for q in range(1, n + 1, 2):
        circ.add("h", q, start=0.0)
    # layer 1: pair up ancillas (odd -> even); odd n pairs the last ancilla
    # with the target instead
    for q in range(1, n, 2):
        circ.add("cx", q, q + 1, start=0.0)
    if n % 2 == 1:
        circ.add("cx", n, target, start=0.0)
    # layer 2: stitch remaining neighbours (even -> odd), endpoints included
    circ.add("cx", control, 1, start=1.0)
    for q in range(2, n, 2):
        circ.add("cx", q, q + 1, start=1.0)
    if n % 2 == 0:
        circ.add("cx", n, target, start=1.0)

    z_recs, x_recs = [], []  # ancillas measured in Z resp. X basis
    for q in range(1, n + 1):
        if q % 2 == 0:
            circ.add("h", q, start=2.0)
        rec = circ.measure(q, start=2.0, duration=meas_dur)
        (z_recs if q % 2 == 1 else x_recs).append(rec)

    t_ff = 2.0 + meas_dur
    circ.add("cpauli", target, start=t_ff, pauli="X", parity=tuple(z_recs))
    circ.add("cpauli", control, start=t_ff, pauli="Z", parity=tuple(x_recs))
    for q in range(1, n + 1):
        circ.add("reset", q, start=t_ff)
    return t_ff


def _move(circ: Circuit, a: int, b: int, t: float) -> None:
    """Relay a computational-basis payload from a to b (b must be |0>)."""
    circ.add("cx", a, b, start=t)
    circ.add("cx", b, a, start=t + 1.0)


def _cnot_unitary_fanout(n: int) -> Circuit:
    circ = Circuit(n + 2, name=f"cnot_Ia_n{n}")
    circ.meta = {"family": "cnot_Ia", "n_ancillas": n}
    circ.mark_input(0, n + 1)
    for i in range(n):  # copy the control down the chain
        circ.add("cx", i, i + 1, start=float(i))
    circ.add("cx", n, n + 1, start=float(n))
    for j in range(n):  # uncopy in reverse
        circ.add("cx", n - 1 - j, n - j, start=float(n + 1 + j))
    return circ


def _cnot_unitary_relay(n: int) -> Circuit:
    # control copies spread over the near half while the target payload is
    # relayed to the middle and back
    c_len = n // 2
    t_len = n - c_len
    circ = Circuit(n + 2, name=f"cnot_Ib_n{n}")
    circ.meta = {"family": "cnot_Ib", "n_ancillas": n}
    circ.mark_input(0, n + 1)
    for j in range(t_len):
        _move(circ, n + 1 - j, n - j, 2.0 * j)
    spread_start = 2.0 * t_len - c_len
    for i in range(c_len):
        circ.add("cx", i, i + 1, start=spread_start + i)
    mid = 2.0 * t_len
    circ.add("cx", c_len, c_len + 1, start=mid)
    for i in reversed(range(c_len)):
        circ.add("cx", i, i + 1, start=mid + 1.0 + (c_len - 1 - i))
    for j in range(t_len):
        _move(circ, c_len + 1 + j, c_len + 2 + j, mid + 1.0 + 2.0 * j)
    # keep the instruction list time-sorted for engines and analysis
    circ.instructions.sort(key=lambda ins: ins.start)
    return circ


def _cnot_unitary_shuttle(n: int) -> Circuit:
    # both payloads are relayed to the middle, interact once, and return
    c_len = n // 2
    t_len = n - c_len
    circ = Circuit(n + 2, name=f"cnot_Ic_n{n}")
    circ.meta = {"family": "cnot_Ic", "n_ancillas": n}
    circ.mark_input(0, n + 1)
    for j in range(c_len):
        _move(circ, j, j + 1, 2.0 * j)
    for j in range(t_len):
        _move(circ, n + 1 - j, n - j, 2.0 * j)
    mid = 2.0 * t_len
    circ.add("cx", c_len, c_len + 1, start=mid)
    for j in range(c_len):
        _move(circ, c_len - j, c_len - j - 1, mid + 1.0 + 2.0 * j)
    for j in range(t_len):
        _move(circ, c_len + 1 + j, c_len + 2 + j, mid + 1.0 + 2.0 * j)
    circ.instructions.sort(key=lambda ins: ins.start)
    return circ


def _cnot_unitary_swap(n_mid: int) -> Circuit:
    # SWAP the endpoints' payloads toward each other through occupied
    # intermediate qubits; no return trip -- the chain ends permuted and the
    # builder reports the output positions
    s_c = n_mid // 2
    s_t = n_mid - s_c
    circ = Circuit(n_mid + 2, name=f"cnot_II_n{n_mid}")
    circ.meta = {"family": "cnot_II", "n_mid": n_mid}
    circ.mark_input(*range(n_mid + 2))  # intermediates are occupied bystanders

    def swap(a: int, b: int, t: float) -> None:
        circ.add("cx", a, b, start=t)
        circ.add("cx", b, a, start=t + 1.0)
        circ.add("cx", a, b, start=t + 2.0)

    for i in range(s_c):
        swap(i, i + 1, 3.0 * i)
    for i in range(s_t):
        swap(n_mid + 1 - i, n_mid - i, 3.0 * i)
    mid = 3.0 * max(s_c, s_t)
    circ.add("cx", s_c, s_c + 1, start=mid)
    circ.instructions.sort(key=lambda ins: ins.start)

    out = {0: s_c, n_mid + 1: s_c + 1}
    for q in range(1, s_c + 1):
        out[q] = q - 1  # bystanders displaced outward, control side
    for q in range(s_c + 1, n_mid + 1):
        out[q] = q + 1  # target side
    circ.output_map = out
    return circ


_CNOT_VARIANTS = {
    "Ia": _cnot_unitary_fanout,
    "Ib": _cnot_unitary_relay,
    "Ic": _cnot_unitary_shuttle,
    "II": _cnot_unitary_swap,
}


def long_range_cnot_unitary(variant: str, size: int) -> Circuit:
    """Unitary long-range CNOT over a chain.

    Variants: "Ia" fan-out/fan-in copy ladder; "Ib" half-spread with target
    relay; "Ic" relay both endpoints to the middle and back; "II" SWAP the
    payloads through occupied intermediates with no return trip (``size``
    counts intermediate qubits; the output is permuted, see ``output_map``).
    """
    if variant not in _CNOT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick from {sorted(_CNOT_VARIANTS)}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return _CNOT_VARIANTS[variant](size)


# ---------------------------------------------------------------------------
# builders: GHZ
# ---------------------------------------------------------------------------


def ghz_unitary(n: int) -> Circuit:
    """GHZ_n by a CNOT tree grown from the middle of the chain outward."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    circ = Circuit(n, name=f"ghz_unitary_n{n}")
    circ.meta = {"family": "ghz_unitary", "n": n}
    m = (n - 1) // 2
    circ.add("h", m, start=0.0)
    for q in range(m + 1, n):  # rightward chain
        circ.add("cx", q - 1, q, start=float(q - m - 1))
    for q in range(m - 1, -1, -1):  # leftward chain, offset one layer
        circ.add("cx", q + 1, q, start=float(m - q))
    circ.instructions.sort(key=lambda ins: ins.start)
    return circ


def ghz_dynamic(n: int, mu: float = 1.0, mode: str = "feed_forward") -> Circuit:
    """GHZ_n in constant depth: Bell pairs on odd/even neighbours, parity
    measurements on interior even qubits, conditioned X corrections, reset and
    re-entangle.  Even n follows the closed-form cost rows; odd n appends one
    extra copy layer for the last qubit.  ``mode`` picks the schedule, as in
    :func:`long_range_cnot_dynamic`."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    meas_dur = _measurement_duration(mode, mu)
    circ = Circuit(n, name=f"ghz_dynamic_n{n}")
    circ.meta = {"family": "ghz_dynamic", "n": n, "mu": mu, "mode": mode}

    if n == 2:
        circ.add("h", 0, start=0.0)
        circ.add("cx", 0, 1, start=0.0)
        return circ

    m = n if n % 2 == 0 else n - 1  # even core size
    half = m // 2
    for i in range(half - 1):
        circ.add("h", 2 * i + 1, start=0.0)
    circ.add("h", m - 1, start=1.0)  # its first gate is in layer 2
    for i in range(half - 1):
        circ.add("cx", 2 * i + 1, 2 * i + 2, start=0.0)
    for i in range(half - 1):
        circ.add("cx", 2 * i + 3, 2 * i + 2, start=1.0)

    recs = []
    for i in range(half - 1):
        recs.append(circ.measure(2 * i + 2, start=2.0, duration=meas_dur))

    t_ff = 2.0 + meas_dur
    for i in range(half - 1):
        circ.add("cpauli", 2 * i + 3, start=t_ff, pauli="X", parity=tuple(recs[: i + 1]))
    for i in range(half - 1):
        circ.add("reset", 2 * i + 2, start=t_ff)

    circ.add("cx", 1, 0, start=t_ff)
    for i in range(half - 1):
        circ.add("cx", 2 * i + 3, 2 * i + 2, start=t_ff)

    if n % 2 == 1:  # stretch: copy onto the appended last qubit
        circ.add("cx", n - 2, n - 1, start=t_ff + 1.0)
    circ.instructions.sort(key=lambda ins: ins.start)
    return circ


# ---------------------------------------------------------------------------
# builder: CCZ teleportation
# ---------------------------------------------------------------------------


def ccz_dynamic(n_ancillas: int, mu: float = 1.0) -> Circuit:
    """CCZ between qubit 0 (far end) and the last two chain qubits.

    The far control's value is teleported onto a hub qubit next to the other
    two controls; a T-ladder on the hub and its neighbours synthesizes the
    doubly-controlled phase; the hub is then disposed of by two X-basis
    measurements whose outcomes feed the final Z corrections.  Data qubits are
    0 (far control), n+1 and n+2 (near controls); qubit n is the hub and
    1..n-1 form the relay bus.
    """
    n = n_ancillas
    if n < 1:
        raise ValueError(f"need n_ancillas >= 1, got {n}")
    circ = Circuit(n + 3, name=f"ccz_dynamic_n{n}")
    circ.meta = {"family": "ccz_dynamic", "n_ancillas": n, "mu": mu, "mode": "feed_forward"}
    a, hub, b, c = 0, n, n + 1, n + 2
    circ.mark_input(a, b, c)
    circ.add("t", a, start=0.0)
    circ.add("t", b, start=0.0)
    circ.add("t", c, start=0.0)

    # stage 1: teleported CNOT a -> hub across the bus (direct when empty)
    if n == 1:
        circ.add("cx", a, hub, start=0.0)
        t_ladder = 1.0
    else:
        t_ladder = _teleported_cnot(circ, n - 1, mu)

    # stage 2: phase ladder; hub cycles through a+b, a+c, a+b+c (mod 2)
    t0 = t_ladder
    circ.add("cx", b, hub, start=t0)
    circ.add("tdg", hub, start=t0 + 1.0)
    circ.add("cx", c, b, start=t0 + 1.0)
    circ.add("tdg", b, start=t0 + 2.0)
    circ.add("cx", b, hub, start=t0 + 2.0)
    circ.add("tdg", hub, start=t0 + 3.0)
    circ.add("cx", c, b, start=t0 + 3.0)
    circ.add("cx", b, hub, start=t0 + 4.0)
    circ.add("t", hub, start=t0 + 5.0)

    # stage 3: dispose of the hub (holds a+b+c) via two X-basis reads
    circ.add("h", hub, start=t0 + 5.0)
    u1 = circ.measure(hub, start=t0 + 5.0, duration=mu)
    circ.add("reset", hub, start=t0 + 5.0 + mu)
    circ.add("cx", b, hub, start=t0 + 5.0 + mu)
    circ.add("h", hub, start=t0 + 6.0 + mu)
    u2 = circ.measure(hub, start=t0 + 6.0 + mu, duration=mu)
    circ.add("reset", hub, start=t0 + 6.0 + 2 * mu)
    t_ff2 = t0 + 6.0 + 2 * mu
    circ.add("cpauli", a, start=t_ff2, pauli="Z", parity=(u1,))
    circ.add("cpauli", b, start=t_ff2, pauli="Z", parity=(u1, u2))
    circ.add("cpauli", c, start=t_ff2, pauli="Z", parity=(u1,))
    return circ
