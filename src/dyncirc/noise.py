"""Stochastic-Pauli noise model: channels, physical-parameter conversions,
error propagation through dynamic Clifford circuits, and closed-form error
budgets with crossover search.

Conventions used throughout:

- A single-term channel with rate ``lam`` applies its Pauli with probability
  ``omega(lam) = (1 - exp(-2*lam)) / 2``; composing equal-Pauli terms adds
  their rates, and distinct-Pauli terms commute.
- ``exp(-total rate)`` lower-bounds the process fidelity of the composite
  channel against the identity, which is what turns instruction tallies
  (idle time, CNOT count, measurement count) into fidelity curves:
  ``lam_tot = t_idle*lam_idle + n_cnot*lam_cnot + n_meas*lam_meas``.
- Time is measured in CNOT-gate-time units everywhere, matching the circuit
  schedules.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping

from . import circuits as C
from .circuits import Circuit, InstructionTally
from .pauli import PauliString

__all__ = [
    "omega",
    "PauliLindbladChannel",
    "NoiseParams",
    "NoiseSite",
    "ErrorBudget",
    "CrossoverPoint",
    "damping_to_pauli",
    "depolarizing_rate",
    "depolarizing_channel",
    "twirl_coefficient",
    "propagate",
    "PropagatedError",
    "attach_noise",
    "budget",
    "BUDGET_FAMILIES",
    "gate_fidelity_from_process",
    "crossover_point",
    "crossover_map",
]


def omega(lam: float) -> float:
    """Error weight of a rate-``lam`` single-Pauli channel: (1-e^{-2 lam})/2."""
    if lam < 0:
        raise ValueError(f"noise rate must be nonnegative, got {lam}")
    return 0.5 * (1.0 - math.exp(-2.0 * lam))


class PauliLindbladChannel:
    """A product of single-Pauli noise terms, stored as Pauli -> rate.

    Terms are keyed by the sign-stripped Pauli; the identity carries no term
    and rates are nonnegative.  Composition (``*``) merges equal Paulis by
    adding rates.
    """

    def __init__(
        self,
        terms: Mapping[PauliString, float] | Iterable[tuple[PauliString, float]] = (),
        n: int | None = None,
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms: dict[PauliString, float] = {}
        self.n = n
        for p, rate in items:
            if self.n is None:
                self.n = p.n
            self._add(p, float(rate))
        if self.n is None:
            raise ValueError("empty channel needs an explicit qubit count n")

    def _add(self, p: PauliString, rate: float) -> None:
        if p.n != self.n:
            raise ValueError(f"term on {p.n} qubits in a channel on {self.n}")
        if rate < 0:
            raise ValueError(f"noise rate must be nonnegative, got {rate}")
        p = p.mod_phase()
        if p.is_identity():
            raise ValueError("identity Pauli cannot carry a noise term")
        self._terms[p] = self._terms.get(p, 0.0) + rate

    @classmethod
    def single(cls, p: PauliString, rate: float) -> "PauliLindbladChannel":
        return cls([(p, rate)])

    def items(self) -> Iterator[tuple[PauliString, float]]:
        return iter(self._terms.items())

    def rate_of(self, p: PauliString) -> float:
        return self._terms.get(p.mod_phase(), 0.0)

    @property
    def total_rate(self) -> float:
        return sum(self._terms.values())

    def process_fidelity_lower_bound(self) -> float:
        """exp(-sum of rates); the composite channel's fidelity never drops
        below this."""
        return math.exp(-self.total_rate)

    def __len__(self) -> int:
        return len(self._terms)

    def __mul__(self, other: "PauliLindbladChannel") -> "PauliLindbladChannel":
        if not isinstance(other, PauliLindbladChannel):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"cannot compose channels on {self.n} and {other.n} qubits")
        out = PauliLindbladChannel(self._terms, n=self.n)
        for p, rate in other.items():
            out._add(p, rate)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliLindbladChannel):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}: {rate:g}" for p, rate in sorted(self._terms.items(), key=lambda kv: kv[0].key()))
        return f"PauliLindbladChannel({{{inner}}}, n={self.n})"


@dataclass(frozen=True)
class NoiseSite:
    """A single-Pauli error location: fires with probability ``omega`` just
    before instruction ``before_index`` of its circuit."""

    before_index: int
    pauli: PauliString
    omega: float


@dataclass(frozen=True)
class NoiseParams:
    """Uniform per-operation noise rates.

    ``lambda_idle`` is a rate per CNOT-time of idling; ``lambda_cnot`` a rate
    per CNOT gate; ``lambda_meas`` a rate per mid-circuit measurement; ``mu``
    the measurement-plus-feed-forward duration in CNOT-time units.  If ``t1``
    (and optionally ``t2``) are given, idle noise is a twirled
    damping/dephasing mix instead of pure dephasing, and the effective idle
    rate is derived from them.
    """

    lambda_idle: float = 0.0
    lambda_cnot: float = 0.0
    lambda_meas: float = 0.0
    mu: float = 1.0
    t1: float | None = None
    t2: float | None = None

    _FIELDS = ("lambda_idle", "lambda_cnot", "lambda_meas", "mu", "t1", "t2")

    def __post_init__(self):
        for name in ("lambda_idle", "lambda_cnot", "lambda_meas", "mu"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        for name in ("t1", "t2"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.t1 is not None and self.t2 is not None and self.t2 > 2 * self.t1:
            warnings.warn(
                f"t2 = {self.t2} exceeds 2*t1 = {2 * self.t1}, which no physical "
                "qubit satisfies; proceeding anyway",
                stacklevel=2,
            )

    @classmethod
    def from_json(cls, text: str) -> "NoiseParams":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("noise parameter document must be a JSON object")
        unknown = set(doc) - set(cls._FIELDS)
        if unknown:
            raise ValueError(f"unknown noise parameter fields: {sorted(unknown)}")
        return cls(**doc)

    def to_json(self) -> str:
        doc = {k: getattr(self, k) for k in self._FIELDS if getattr(self, k) is not None}
        return json.dumps(doc, sort_keys=True)

    def idle_rates(self, t: float) -> list[tuple[str, float]]:
        """(letter, rate) idle-noise terms accumulated over ``t`` CNOT-times."""
        if t < 0:
            raise ValueError(f"idle duration must be nonnegative, got {t}")
        if t == 0:
            return []
        if self.t1 is not None or self.t2 is not None:
            out = []
            if self.t1 is not None:
                out += [("X", t / (4 * self.t1)), ("Y", t / (4 * self.t1))]
            if self.t2 is not None:
                out.append(("Z", t / (2 * self.t2)))
            return out
        return [("Z", self.lambda_idle * t)] if self.lambda_idle > 0 else []

    @property
    def effective_lambda_idle(self) -> float:
        """Idle rate per CNOT-time: derived from t1/t2 when given, else the
        explicit ``lambda_idle``."""
        if self.t1 is not None or self.t2 is not None:
            rate = 0.0
            if self.t1 is not None:
                rate += 1 / (2 * self.t1)
            if self.t2 is not None:
                rate += 1 / (2 * self.t2)
            return rate
        return self.lambda_idle


# ---------------------------------------------------------------------------
# conversions from physical noise descriptions
# ---------------------------------------------------------------------------


def damping_to_pauli(t: float, t1: float, t2: float | None = None) -> PauliLindbladChannel:
    """Single-qubit twirl of amplitude damping (plus dephasing when ``t2`` is
    given) over duration ``t``: rates {X: t/4T1, Y: t/4T1, Z: t/2T2}."""
    if t < 0:
        raise ValueError(f"duration must be nonnegative, got {t}")
    if t1 <= 0 or (t2 is not None and t2 <= 0):
        raise ValueError(f"time constants must be positive, got t1={t1}, t2={t2}")
    if t == 0:
        return PauliLindbladChannel(n=1)
    terms = [
        (PauliString.single(1, 0, "X"), t / (4 * t1)),
        (PauliString.single(1, 0, "Y"), t / (4 * t1)),
    ]
    if t2 is not None:
        terms.append((PauliString.single(1, 0, "Z"), t / (2 * t2)))
    return PauliLindbladChannel(terms)


def depolarizing_rate(n: int, q: float) -> float:
    """Uniform per-Pauli rate such that the product over all non-identity
    n-qubit Paulis keeps the input with probability ``q``."""
    if not 0 < q <= 1:
        raise ValueError(f"retention probability must be in (0, 1], got {q}")
    return -math.log(q) / 4**n


def depolarizing_channel(n: int, q: float) -> PauliLindbladChannel:
    """The full uniform channel behind :func:`depolarizing_rate`."""
    lam = depolarizing_rate(n, q)
    terms = []
    for x in range(1 << n):
        for z in range(1 << n):
            if x or z:
                terms.append((PauliString(n, x, z), lam))
    return PauliLindbladChannel(terms, n=n)


def twirl_coefficient(channel: PauliLindbladChannel, q: PauliString) -> float:
    """Eigenvalue of the channel on the Pauli ``q``:
    exp(-2 * sum of rates of terms anticommuting with q)."""
    if q.n != channel.n:
        raise ValueError(f"operator on {q.n} qubits, channel on {channel.n}")
    s = sum(rate for p, rate in channel.items() if not p.commutes(q))
    return math.exp(-2.0 * s)


# ---------------------------------------------------------------------------
# propagation to the end of a circuit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagatedError:
    """Where a single injected Pauli ends up: the end-of-circuit Pauli (sign
    stripped) and the measurement records whose outcomes it flipped."""

    pauli: PauliString
    flipped_records: frozenset[int]


def propagate(pauli: PauliString, circuit: Circuit, start_index: int = 0) -> PropagatedError:
    """Push a Pauli error forward from just before ``instructions[start_index]``
    to the end of the circuit.

    Rules: Clifford gates conjugate it; a measurement's record flips iff the
    error then has an X component on the measured qubit (the error itself is
    unchanged); a reset drops the error's factor on that qubit; a
    parity-conditioned Pauli multiplies on when the error flipped an odd
    number of the records it reads.  Non-Clifford gates are only allowed when
    the error does not touch their qubits.
    """
    if pauli.n != circuit.n_qubits:
        raise ValueError(f"operator on {pauli.n} qubits, circuit on {circuit.n_qubits}")
    if not 0 <= start_index <= len(circuit.instructions):
        raise ValueError(f"start_index {start_index} outside the instruction list")
    p = pauli.mod_phase()
    flipped: set[int] = set()
    for ins in circuit.instructions[start_index:]:
        op = ins.op
        if op in ("input", "barrier"):
            continue
        if op in C.CLIFFORD_GATES:
            p = p.conjugated(op, *ins.qubits)
        elif op in C.GATE_OPS:  # non-Clifford: t, tdg, ccz
            if any(p.letter(q) != "I" for q in ins.qubits):
                raise ValueError(f"cannot propagate a Pauli error through {op!r}")
        elif op == "measure":
            if p.x_bit(ins.qubits[0]):
                flipped.symmetric_difference_update((ins.record,))
        elif op == "reset":
            q = ins.qubits[0]
            p = PauliString(p.n, p.x_bits & ~(1 << q), p.z_bits & ~(1 << q))
        elif op == "cpauli":
            if sum(r in flipped for r in ins.parity) % 2:
                p = p.times_mod_phase(PauliString.single(p.n, ins.qubits[0], ins.pauli))
        else:  # pragma: no cover - op whitelist is enforced by Circuit.add
            raise ValueError(f"cannot propagate through op {op!r}")
    return PropagatedError(p.mod_phase(), frozenset(flipped))


# ---------------------------------------------------------------------------
# attaching noise to a scheduled circuit
# ---------------------------------------------------------------------------


def attach_noise(circuit: Circuit, params: NoiseParams, cnot_pauli: str = "ZX") -> list[NoiseSite]:
    """Noise sites for a scheduled circuit: one worst-case two-qubit Pauli
    after every CNOT, an X on every measured qubit just before its
    measurement, and per-interval idle noise (dephasing, or a damping mix
    when t1/t2 are set).  The returned list is deterministic and ordered by
    position."""
    if len(cnot_pauli) != 2 or any(ch not in "IXYZ" for ch in cnot_pauli) or cnot_pauli == "II":
        raise ValueError(f"cnot noise must be two Pauli letters, not all I; got {cnot_pauli!r}")
    n = circuit.n_qubits
    n_ins = len(circuit.instructions)
    gate_sites: dict[int, list[NoiseSite]] = {}
    meas_sites: dict[int, list[NoiseSite]] = {}
    idle_sites: dict[int, list[NoiseSite]] = {}

    if params.lambda_cnot > 0:
        om = omega(params.lambda_cnot)
        for k, ins in enumerate(circuit.instructions):
            if ins.op == "cx":
                p = PauliString.identity(n)
                for q, letter in zip(ins.qubits, cnot_pauli):
                    if letter != "I":
                        p = p.times_mod_phase(PauliString.single(n, q, letter))
                gate_sites.setdefault(k + 1, []).append(NoiseSite(k + 1, p, om))
    if params.lambda_meas > 0:
        om = omega(params.lambda_meas)
        for k, ins in enumerate(circuit.instructions):
            if ins.op == "measure":
                q = ins.qubits[0]
                meas_sites.setdefault(k, []).append(NoiseSite(k, PauliString.single(n, q, "X"), om))

    # each qubit's instruction indices in list order, so that an idle
    # interval scans only its own qubit's instructions for its site index
    touching: dict[int, list[int]] = {}
    for i, ins in enumerate(circuit.instructions):
        for q in dict.fromkeys(ins.qubits):
            touching.setdefault(q, []).append(i)
    for q, a, b in C.idle_intervals(circuit):
        rates = params.idle_rates(b - a)
        if not rates:
            continue
        k = next((i for i in touching.get(q, ()) if circuit.instructions[i].start >= b - 1e-9), n_ins)
        for letter, rate in rates:
            idle_sites.setdefault(k, []).append(NoiseSite(k, PauliString.single(n, q, letter), omega(rate)))

    out: list[NoiseSite] = []
    for k in range(n_ins + 1):
        out += gate_sites.get(k, ())
        out += idle_sites.get(k, ())
        out += meas_sites.get(k, ())
    return out


# ---------------------------------------------------------------------------
# closed-form error budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBudget:
    """Closed-form cost of a circuit family at one size, under additive rate
    accounting: lam_tot = t_idle*lam_idle + n_cnot*lam_cnot +
    n_meas*lam_meas, with exp(-lam_tot) lower-bounding process fidelity."""

    family: str
    size: int
    tally: InstructionTally
    lam_tot: float
    fidelity_lower_bound: float


def _closed_form_tally(family: str, size: int, mu: float) -> InstructionTally:
    def need(ok: bool, what: str):
        if not ok:
            raise ValueError(f"family {family!r} is not defined for size {size} ({what})")

    if family == "cnot_dynamic":
        need(size >= 1, "needs >= 1 ancilla")
        return InstructionTally(2 * mu + 2, size + 1, size, 2 + mu, 1)
    if family == "cnot_Ia":
        need(size >= 1, "needs >= 1 ancilla")
        return InstructionTally(float(size**2 + 2 * size), 2 * size + 1, 0, float(2 * size + 1), 0)
    if family == "cnot_Ib":
        need(size >= 2 and size % 2 == 0, "even ancilla count >= 2")
        return InstructionTally(size**2 / 4 + size, 3 * size + 1, 0, float(2 * size + 1), 0)
    if family == "cnot_Ic":
        need(size >= 2 and size % 2 == 0, "even ancilla count >= 2")
        return InstructionTally(0.0, 4 * size + 1, 0, float(2 * size + 1), 0)
    if family == "cnot_II":
        need(size >= 2 and size % 2 == 0, "even in-between count >= 2")
        return InstructionTally(1.5 * size**2 - 2 * size, 3 * size + 1, 0, 1.5 * size + 1, 0)
    if family == "cnot_II_normed":
        # same construction re-expressed on the ancilla-based qubit scale
        # n = 2*nt + 3; counts become real-valued under the rescaling
        need(size >= 5, "needs >= 5 qubits between the endpoints inclusive of spacing")
        nt = (size - 3) / 2
        return InstructionTally(1.5 * nt**2 - 2 * nt, 3 * nt + 1, 0, 1.5 * nt + 1, 0)
    if family == "ghz_unitary":
        need(size >= 4 and size % 2 == 0, "even qubit count >= 4")
        return InstructionTally(size**2 / 4 - 1.5 * size + 2, size - 1, 0, size / 2, 0)
    if family == "ghz_dynamic":
        need(size >= 4 and size % 2 == 0, "even qubit count >= 4")
        return InstructionTally(1 + mu * size / 2, int(1.5 * size) - 2, size // 2 - 1, 3 + mu, 1)
    raise ValueError(f"unknown budget family {family!r}; pick from {sorted(BUDGET_FAMILIES)}")


BUDGET_FAMILIES = frozenset(
    {
        "cnot_dynamic",
        "cnot_Ia",
        "cnot_Ib",
        "cnot_Ic",
        "cnot_II",
        "cnot_II_normed",
        "ghz_unitary",
        "ghz_dynamic",
    }
)


def budget(family: str, size: int, params: NoiseParams) -> ErrorBudget:
    """Closed-form error budget for one family/size; the tallies agree exactly
    with the scheduler on the built circuits (see the cross-validation tests)."""
    t = _closed_form_tally(family, size, params.mu)
    lam_tot = (
        t.t_idle * params.effective_lambda_idle
        + t.n_cnot * params.lambda_cnot
        + t.n_meas * params.lambda_meas
    )
    return ErrorBudget(family, size, t, lam_tot, math.exp(-lam_tot))


def gate_fidelity_from_process(f_proc: float, d: int) -> float:
    """Average gate fidelity from process fidelity: (d*F + 1)/(d + 1)."""
    if not 0 <= f_proc <= 1:
        raise ValueError(f"process fidelity must be in [0, 1], got {f_proc}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return (d * f_proc + 1) / (d + 1)


# ---------------------------------------------------------------------------
# crossover search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossoverPoint:
    """Smallest size where the dynamic family's bound beats the best unitary
    bound, and the dynamic bound there.  ``n_cross`` is None when no crossover
    occurs within the scanned range."""

    lam_cnot: float
    lam_meas: float
    n_cross: int | None
    fidelity: float | None


def _maybe_budget(family: str, size: int, params: NoiseParams) -> ErrorBudget | None:
    try:
        return budget(family, size, params)
    except ValueError:
        return None


def crossover_point(
    params: NoiseParams,
    dynamic: str = "ghz_dynamic",
    unitaries: tuple[str, ...] = ("ghz_unitary",),
    n_start: int = 4,
    n_step: int = 2,
    n_max: int = 10_000,
) -> CrossoverPoint:
    """Integer scan for the first size where the dynamic family's fidelity
    bound exceeds every unitary family's bound."""
    for fam in (dynamic, *unitaries):
        if fam not in BUDGET_FAMILIES:
            raise ValueError(f"unknown budget family {fam!r}; pick from {sorted(BUDGET_FAMILIES)}")
    for n in range(n_start, n_max + 1, n_step):
        d = _maybe_budget(dynamic, n, params)
        if d is None:
            continue
        bounds = [b.fidelity_lower_bound for u in unitaries if (b := _maybe_budget(u, n, params))]
        if bounds and d.fidelity_lower_bound > max(bounds):
            return CrossoverPoint(params.lambda_cnot, params.lambda_meas, n, d.fidelity_lower_bound)
    return CrossoverPoint(params.lambda_cnot, params.lambda_meas, None, None)


def crossover_map(
    params: NoiseParams,
    lam_cnot_values: Iterable[float],
    lam_meas_values: Iterable[float],
    dynamic: str = "ghz_dynamic",
    unitaries: tuple[str, ...] = ("ghz_unitary",),
    n_start: int = 4,
    n_step: int = 2,
    n_max: int = 10_000,
) -> list[CrossoverPoint]:
    """Crossover scan over a (lam_cnot, lam_meas) grid with idle rate and mu
    held fixed at the values in ``params``."""
    out = []
    for lc in lam_cnot_values:
        for lm in lam_meas_values:
            p = replace(params, lambda_cnot=lc, lambda_meas=lm)
            out.append(crossover_point(p, dynamic, unitaries, n_start, n_step, n_max))
    return out
