"""Timing and counting from outside the program.

Nothing here edits ``src/``: a ``Patcher`` swaps public module and class
attributes (``tableau.run_batch``, ``Circuit.validate``, ...) for wrappers
while a round runs and puts the originals back afterwards.  Code inside the
package looks those names up at call time, so the wrappers see every call a
workload makes.

Two consumers:

- ``Meter`` is on in every untraced round.  It times a fixed calibration
  loop every 0.2 s or so, at the start or end of a call into the package,
  which splits the round into pieces, and it sums the time spent inside
  ``run_batch`` per piece, the shots it sampled and the DFE samples drawn.
  Its wrappers cost about a microsecond per sampler call.
- ``Tracer`` records a span (name, start, end, parent) around each call into
  the seven layers and counts work at the same boundaries.  Spans stay in
  memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

import numpy as np

from dyncirc import certify, circuits, cli, noise, pauli, statevector, tableau

_BUILDERS = ("long_range_cnot_dynamic", "long_range_cnot_unitary", "ghz_dynamic", "ghz_unitary", "ccz_dynamic")
_ESTIMATORS = ("estimate_ghz_fidelity", "estimate_cnot_gate_fidelity")
# public PauliString methods that return a new instance without __init__
_PAULI_MAKERS = ("__mul__", "times_mod_phase", "__neg__", "mod_phase", "conjugated")


class Patcher:
    """Replaces attributes and restores the originals on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(current value)``.  An attribute the
        package no longer has is left alone, so that the benchmark still
        runs on a program that dropped it; its counts then read 0."""
        if attr not in owner.__dict__:
            return
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _counting_samples(add):
    """Wrapper factory for a DFE estimator: ``add(m_samples)`` on each call."""

    def make(fn):
        sig = inspect.signature(fn)

        def estimate(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            add(bound.arguments["m_samples"])
            return fn(*args, **kwargs)

        return estimate

    return make


# The host's speed changes by up to about 1.7x for stretches of seconds to
# minutes as other tenants load it.  A short fixed loop, timed next to each
# piece of work, measures that speed; CAL_REF_S is its time on an idle host.
CAL_REF_S = 1.6e-3
CAL_EVERY_S = 0.2
# calls at whose start and end the loop may run: frequent in every workload,
# and inside long sampler calls (the reference pass and the frame replay)
_EDGES = (
    (tableau, "run_batch"), (tableau.StabilizerState, "apply_clifford"), (tableau.CounterRandom, "uniform"),
    (statevector, "process_fidelity"), (statevector, "average_state_fidelity"), (noise, "attach_noise"),
)
_CAL_WORDS = np.arange(64, dtype=np.uint64)


def calibration_s() -> float:
    """Time of the calibration loop, the faster of two runs.  It builds small
    Python objects and runs many numpy operations on a 64-word array: the
    two kinds of work the package does most, and on this host they slow
    down under load about as much as the package does."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            table[(i, i + 1)] = [i, str(i)]
        words = _CAL_WORDS.copy()
        for _ in range(400):
            words ^= words >> np.uint64(3)
        best = min(best, time.perf_counter() - t0)
    return best


class Meter:
    """One untraced round, split into pieces by runs of the calibration loop.

    The loop runs at the start and the end of the round and, once
    ``CAL_EVERY_S`` has passed since it last ran, at the next start or end
    of a call to one of ``_EDGES``; its time is not counted.  Per piece the
    meter keeps its seconds, the seconds inside ``run_batch`` and the mean
    loop time at its two ends; in total the shots sampled and DFE samples
    drawn.
    """

    def __init__(self):
        self.edges: list[tuple[float, float, float]] = []  # (end of piece before, loop seconds, start of next)
        self.batch_s: Counter = Counter()
        self.shots = 0
        self.samples = 0
        self._batch_t0: float | None = None  # start of the open run_batch stretch
        self._patcher = Patcher()

    def edge(self) -> None:
        t0 = time.perf_counter()
        if self._batch_t0 is not None:
            self.batch_s[len(self.edges) - 1] += t0 - self._batch_t0
        cal = calibration_s()
        t1 = time.perf_counter()
        self.edges.append((t0, cal, t1))
        if self._batch_t0 is not None:
            self._batch_t0 = t1

    def _maybe_edge(self) -> None:
        if time.perf_counter() - self.edges[-1][2] >= CAL_EVERY_S:
            self.edge()

    def pieces(self) -> list[tuple[float, float, float]]:
        """(seconds, seconds inside run_batch, loop seconds) per piece."""
        return [
            (b[0] - a[2], self.batch_s[i], (a[1] + b[1]) / 2)
            for i, (a, b) in enumerate(zip(self.edges, self.edges[1:]))
        ]

    def __enter__(self) -> "Meter":
        def timed_batch(fn):
            def run_batch(circuit, shots, *args, **kwargs):
                self._batch_t0 = time.perf_counter()
                try:
                    return fn(circuit, shots, *args, **kwargs)
                finally:
                    self.batch_s[len(self.edges) - 1] += time.perf_counter() - self._batch_t0
                    self._batch_t0 = None
                    self.shots += shots

            return run_batch

        def edged(fn):
            def call(*args, **kwargs):
                self._maybe_edge()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._maybe_edge()

            return call

        def add_samples(m: int) -> None:
            self.samples += m

        self._patcher.wrap(tableau, "run_batch", timed_batch)
        for name in _ESTIMATORS:
            self._patcher.wrap(certify, name, _counting_samples(add_samples))
        for owner, attr in _EDGES:
            self._patcher.wrap(owner, attr, edged)
        self.edge()
        return self

    def __exit__(self, *exc) -> None:
        self.edge()
        self._patcher.restore()


class Tracer:
    """Spans and counters for one traced round.

    ``spans[i]`` is ``[name, start, end, parent]`` with ``parent`` the index
    of the enclosing span or -1.  ``batches`` keeps (circuit, shots, seed,
    noise, mode) of every ``run_batch`` call so that their fixed cost can be
    measured after the round, outside any span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.batches: list[tuple] = []
        self._stack: list[int] = []
        self._patcher = Patcher()
        self._run_batch = tableau.run_batch

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, after=None):
        """Wrapper factory: time each call as a span ``name``, then call
        ``after(args, kwargs, result)`` outside the span to count its work."""

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        return make

    def _count(self, key: str, amount=lambda _args, _kwargs, _result: 1):
        """An ``after`` hook adding ``amount(args, kwargs, result)`` to ``key``."""

        def after(args, kwargs, result):
            self.counts[key] += amount(args, kwargs, result)

        return after

    # -- installing the wrappers --------------------------------------------------

    def __enter__(self) -> "Tracer":
        c, p, span, count = self.counts, self._patcher, self._spanned, self._count
        p.wrap(cli, "main", span("cli"))

        def add_samples(m: int) -> None:
            c["certify.samples"] += m

        for name in _ESTIMATORS:
            p.wrap(certify, name, _counting_samples(add_samples))
            p.wrap(certify, name, span("certify"))
        for name in ("pauli_readout_circuit", "eigenstate_prepared_circuit"):
            p.wrap(certify, name, span("certify.readout_build", count("certify.readout_builds")))

        bind = inspect.signature(tableau.run_batch).bind

        def count_batch(args, kwargs, result):
            a = bind(*args, **kwargs).arguments
            circuit, shots = a["circuit"], a["shots"]
            sites = a.get("noise") or ()
            c["tableau.run_batch_calls"] += 1
            c["tableau.shots"] += shots
            c["tableau.shot_ops"] += shots * (len(circuit.instructions) + len(sites))
            c["tableau.errors_fired"] += sum(len(e) for e in getattr(result, "errors", ()))
            self.batches.append((circuit, shots, a.get("master_seed", 0), sites, a.get("mode", "feed_forward")))

        p.wrap(tableau, "run_batch", span("tableau", count_batch))

        p.wrap(noise, "attach_noise", span("noise.attach", count("noise.sites", lambda _a, _k, sites: len(sites))))
        p.wrap(noise, "budget", span("noise.budget", count("noise.budget_calls")))

        built = count("circuits.instructions", lambda _a, _k, circ: len(circ.instructions))
        for name in _BUILDERS:
            p.wrap(circuits, name, span("circuits.build", built))
        p.wrap(circuits.Circuit, "validate", span("circuits.validate", count("circuits.validate_calls")))
        p.wrap(circuits, "tally", span("circuits.tally"))

        for name in ("process_fidelity", "average_state_fidelity"):
            p.wrap(statevector, name, span("statevector", count("statevector.calls")))

        def count_branches(fn):
            def run_branches(*args, **kwargs):
                branches = fn(*args, **kwargs)
                c["statevector.branches"] += len(branches)
                return branches

            return run_branches

        p.wrap(statevector, "run_branches", count_branches)

        # counted, not timed: a span per Pauli product would swamp the trace
        def count_init(fn):
            def __init__(*args, **kwargs):
                c["pauli.strings"] += 1
                fn(*args, **kwargs)

            return __init__

        def count_made(fn):
            def method(*args, **kwargs):
                result = fn(*args, **kwargs)
                if isinstance(result, pauli.PauliString):
                    c["pauli.strings"] += 1
                return result

            return method

        p.wrap(pauli.PauliString, "__init__", count_init)
        for name in _PAULI_MAKERS:
            p.wrap(pauli.PauliString, name, count_made)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()

    # -- results ------------------------------------------------------------------

    def fixed_cost_s(self) -> tuple[float, float]:
        """(fixed, replay) seconds of the recorded ``run_batch`` calls, re-run
        after the round on the unwrapped sampler.  Each call runs twice back
        to back, with zero shots and with its own shots: the zero-shot time
        is the per-call cost a caller pays regardless of shots, and the
        difference is the per-shot replay.  Pairing the two keeps a change in
        machine speed between the round and this pass out of the difference."""
        fixed = replay = 0.0
        for circuit, shots, seed, sites, mode in self.batches:
            t0 = time.perf_counter()
            self._run_batch(circuit, 0, master_seed=seed, noise=sites, mode=mode)
            t1 = time.perf_counter()
            self._run_batch(circuit, shots, master_seed=seed, noise=sites, mode=mode)
            t2 = time.perf_counter()
            fixed += t1 - t0
            replay += (t2 - t1) - (t1 - t0)
        return fixed, replay

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it its children cover."""
        children: dict[int, list[int]] = {}
        for i, (_, _, _, parent) in enumerate(self.spans):
            children.setdefault(parent, []).append(i)
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for j in sorted(children.get(i, ()), key=lambda j: self.spans[j][1]):
                lo, hi = max(self.spans[j][1], reach), min(self.spans[j][2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds, self seconds) per span name."""
        total: Counter = Counter()
        own: Counter = Counter()
        for (name, start, end, _), s in zip(self.spans, self.self_times()):
            total[name] += end - start
            own[name] += s
        return dict(total), dict(own)
