"""The four benchmark workloads: inputs, timed round, and output checks.

A workload object is its set-up: constructing it imports the package (at
module import) and writes the inputs a round reads.  ``run(tag)`` is one
timed round; ``check(output)`` runs after the timed phase and returns one
pass/fail flag per operation of a round.  Every check compares against a
computation made apart from the sampler (the dense oracle, the closed-form
budget) or a property the method must have, never a stored output.

``samples_are_shots`` says that the workload's estimator draws one sample
per shot rather than one per DFE sample.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from dyncirc import circuits, cli, noise, statevector, tableau

Z_LIMIT = 4.0  # standard errors a statistical check tolerates

# README sweep configurations, except m_samples: 50 rather than 200 keeps a
# round short enough to repeat every point several times in one run.  The
# benchmark seed replaces "seed".
M_SAMPLES = 50
GHZ_CONFIG = {
    "lambda_idle": 0.002, "lambda_cnot": 0.01, "lambda_meas": 0.02, "mu": 3.65,
    "n_min": 4, "n_max": 16, "n_step": 2, "methods": ["dynamic", "unitary"],
    "shots": 64, "m_samples": M_SAMPLES, "mode": "feed_forward",
}
CNOT_CONFIG = {
    "lambda_idle": 0.03, "lambda_cnot": 0.02, "lambda_meas": 0.03, "mu": 3.65,
    "n_min": 2, "n_max": 12, "n_step": 2, "variants": ["dynamic", "Ia", "Ib", "Ic", "II"],
    "shots": 64, "m_samples": M_SAMPLES, "mode": "feed_forward",
}

# frame-n1600: rates scaled so every chain's exp(-sum lambda) bound is ~0.6
FRAME_N = 1600
FRAME_SHOTS = 1024
FRAME_CHECK_SHOTS = 16
FRAME_PARAMS = noise.NoiseParams(lambda_idle=2e-5, lambda_cnot=1e-4, lambda_meas=2e-4, mu=3.65)
FRAME_CHAINS = (("ghz_dynamic", "feed_forward"), ("ghz_dynamic", "post_process"), ("cnot_dynamic", "feed_forward"))

VERIFY_CHECKS = 37


def _params(config: dict) -> noise.NoiseParams:
    return noise.NoiseParams(**{k: config[k] for k in ("lambda_idle", "lambda_cnot", "lambda_meas", "mu")})


def _quiet(argv: list[str]) -> tuple[int, str]:
    """``dyncirc <argv>`` in this process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _z_ok(value: float, exact: float, se: float) -> bool:
    return se > 0 and abs(value - exact) <= Z_LIMIT * se


# ---------------------------------------------------------------------------
# DFE sweeps through the CLI
# ---------------------------------------------------------------------------


class Sweep:
    """A ``dyncirc`` sweep subcommand on one config, one worker."""

    command = ""
    config: dict = {}
    label_key = ""
    labels_key = ""
    sim_key = ""
    bound_key = ""
    samples_are_shots = False

    def __init__(self, seed: int, workdir):
        self.dir = Path(workdir)
        self.config_path = self.dir / f"{self.command}.config.json"
        self.config_path.write_text(json.dumps({**self.config, "seed": seed}), encoding="utf-8")
        self.expected = [
            (n, label)
            for n in range(self.config["n_min"], self.config["n_max"] + 1, self.config["n_step"])
            for label in self.config[self.labels_key]
        ]

    def run(self, tag: str) -> tuple[int, bytes]:
        out = self.dir / f"{self.command}-{tag}.csv"
        rc, _ = _quiet(
            [self.command, "--config", str(self.config_path), "--out", str(out), "--reproducible", "--workers", "1"]
        )
        return rc, out.read_bytes() if out.exists() else b""

    @staticmethod
    def digest(output) -> str:
        rc, data = output
        return f"{rc}:{hashlib.sha256(data).hexdigest()}"

    @staticmethod
    def rows(output) -> list[dict]:
        rc, data = output
        if rc != 0:
            return []
        return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))

    def std_errs(self, output) -> list[float]:
        return [float(r["std_err"]) for r in self.rows(output) if r["std_err"]]

    def points(self, output) -> int:
        return len(self.rows(output))

    def exact(self) -> dict[tuple[int, str], float]:
        """Dense-oracle values of the simulated column, keyed by (n, label)."""
        raise NotImplementedError

    def check(self, output) -> list[bool]:
        by_key = {(int(r["n"]), r[self.label_key]): r for r in self.rows(output)}
        exact = self.exact()
        flags = []
        for key in self.expected:
            row = by_key.get(key)
            if row is None or any(v == "" for v in row.values()):
                flags.append(False)
                continue
            sim, bound, se = float(row[self.sim_key]), float(row[self.bound_key]), float(row["std_err"])
            # exp(-sum lambda) never overshoots, so the estimate may sit
            # below the model line only by sampling noise
            ok = sim >= bound - Z_LIMIT * se
            if key in exact:
                ok = ok and _z_ok(sim, exact[key], se)
            flags.append(ok)
        return flags


class GhzDfe(Sweep):
    """``dyncirc ghz-sweep``: 14 points x 50 DFE samples x 64 shots."""

    command = "ghz-sweep"
    config = GHZ_CONFIG
    label_key, labels_key = "method", "methods"
    sim_key, bound_key = "simulated_F", "model_bound"

    def exact(self):
        params = _params(self.config)
        n = 4
        out = {}
        for method, circ in (
            ("dynamic", circuits.ghz_dynamic(n, mu=params.mu)),
            ("unitary", circuits.ghz_unitary(n)),
        ):
            sites = noise.attach_noise(circ, params)
            out[(n, method)] = statevector.average_state_fidelity(circ, statevector.ghz_state(n), sites=sites)
        return out


class CnotDfe(Sweep):
    """``dyncirc cnot-sweep``: 30 points (5 variants) x 50 samples x 64 shots."""

    command = "cnot-sweep"
    config = CNOT_CONFIG
    label_key, labels_key = "variant", "variants"
    sim_key, bound_key = "simulated_Fgate", "model_Fgate"

    def exact(self):
        params = _params(self.config)
        n = 2
        out = {}
        for variant in ("dynamic", "Ia"):
            if variant == "dynamic":
                circ = circuits.long_range_cnot_dynamic(n, mu=params.mu)
            else:
                circ = circuits.long_range_cnot_unitary(variant, n)
            data_out = None
            if circ.output_map is not None:
                data_out = (circ.output_map[0], circ.output_map[n + 1])
            sites = noise.attach_noise(circ, params)
            f_proc = statevector.process_fidelity(
                circ, statevector.cnot_matrix(), data=(0, n + 1), sites=sites, data_out=data_out
            )
            out[(n, variant)] = (4.0 * f_proc + 1.0) / 5.0
        return out


# ---------------------------------------------------------------------------
# frame sampler at 1600 qubits, library pipeline
# ---------------------------------------------------------------------------


# gates that take |0> to the +1 eigenstate of a letter, and that rotate a
# letter's eigenbasis to Z for readout
_PREP_GATES = {"Y": ("h", "s")}
_READ_GATES = {"X": ("h",), "Z": ()}


def _prepared_and_read(circ, sites, prep: dict[int, str], basis: dict[int, str]):
    """A copy of ``circ`` with each qubit in ``prep`` put into the +1
    eigenstate of its letter before time 0, and each qubit in ``basis``
    rotated and measured after the end; ``sites`` moved to match.  Returns
    (circuit, sites, readout record columns).  Built here from the public
    ``Circuit`` API rather than with ``certify``'s readout helpers, which
    later versions of the package may drop."""
    gates = [(g, q) for q in sorted(prep) for g in _PREP_GATES[prep[q]]]
    out = circuits.Circuit(circ.n_qubits, name=circ.name)
    out.meta = circ.meta
    for k, (g, q) in enumerate(gates):
        out.add(g, q, start=float(k - len(gates) - 1))
    out.instructions.extend(circ.instructions)
    out.n_records = circ.n_records
    t = circ.makespan
    for q in sorted(basis):
        for g in _READ_GATES[basis[q]]:
            out.add(g, q, start=t)
    cols = [out.measure(q, start=t + 1.0) for q in sorted(basis)]
    sites = [noise.NoiseSite(site.before_index + len(gates), site.pauli, site.omega) for site in sites]
    return out, sites, cols


class FrameN1600:
    """Build -> tally -> attach_noise -> readout circuit -> one run_batch, on
    three 1600-qubit chains."""

    samples_are_shots = True

    def __init__(self, seed: int, workdir):
        self.seeds = [int(s) for s in np.random.SeedSequence((seed, FRAME_N)).generate_state(len(FRAME_CHAINS), np.uint64)]

    def run(self, tag: str) -> list[dict]:
        out = []
        for (family, mode), seed in zip(FRAME_CHAINS, self.seeds):
            if family == "ghz_dynamic":
                circ = circuits.ghz_dynamic(FRAME_N, mu=FRAME_PARAMS.mu, mode=mode)
                # Z_0 Z_{n-1}: flips on any missed or wrong X correction
                # along the chain, for two readout measurements
                prep, basis, sign = {}, {0: "Z", FRAME_N - 1: "Z"}, 1
            else:
                circ = circuits.long_range_cnot_dynamic(FRAME_N, mu=FRAME_PARAMS.mu, mode=mode)
                # Y x Y eigenstate in; CNOT maps it to -X x Z, whose readout
                # depends on both the X and the Z feed-forward correction
                prep, basis, sign = {0: "Y", FRAME_N + 1: "Y"}, {0: "X", FRAME_N + 1: "Z"}, -1
            tally = circuits.tally(circ)
            sites = noise.attach_noise(circ, FRAME_PARAMS)
            circ, sites, cols = _prepared_and_read(circ, sites, prep, basis)
            res = tableau.run_batch(circ, FRAME_SHOTS, master_seed=seed, noise=sites, mode=mode)
            folded = self.folded(res.records, cols, sign)
            out.append(
                {
                    "family": family, "mode": mode, "tally": tally, "circuit": circ, "seed": seed,
                    "cols": cols, "sign": sign, "shape": res.records.shape,
                    "records_sha256": hashlib.sha256(res.records.tobytes()).hexdigest(),
                    "mean": float(folded.mean()), "std_err": float(folded.std(ddof=1) / math.sqrt(FRAME_SHOTS)),
                }
            )
        return out

    @staticmethod
    def folded(records: np.ndarray, cols: list[int], sign: int) -> np.ndarray:
        """Readout parity of each shot times the ideal sign: +1 when right."""
        return sign * (1 - 2 * (records[:, cols].sum(axis=1, dtype=np.int64) % 2))

    @staticmethod
    def digest(output) -> str:
        return ",".join(o["records_sha256"] for o in output)

    def std_errs(self, output) -> list[float]:
        return [o["std_err"] for o in output]

    def points(self, output) -> int:
        return len(output)

    def check(self, output) -> list[bool]:
        flags = []
        for o in output:
            circ, mode = o["circuit"], o["mode"]
            ok = o["shape"] == (FRAME_SHOTS, circ.n_records)
            ideal = tableau.run_batch(circ, FRAME_CHECK_SHOTS, master_seed=o["seed"], mode=mode)
            ok = ok and bool((self.folded(ideal.records, o["cols"], o["sign"]) == 1).all())
            # as the CLI models it: no feed-forward wait in post-process mode
            mu = 0.0 if mode == "post_process" else FRAME_PARAMS.mu
            b = noise.budget(o["family"], FRAME_N, dataclasses.replace(FRAME_PARAMS, mu=mu))
            t = o["tally"]
            ok = ok and (t.n_cnot, t.n_meas) == (b.tally.n_cnot, b.tally.n_meas)
            ok = ok and math.isclose(t.t_idle, b.tally.t_idle, rel_tol=1e-9)
            # <S> >= 2 Pr[no error] - 1 >= 2 F_bound - 1
            lo = 2.0 * b.fidelity_lower_bound - 1.0 - Z_LIMIT * o["std_err"]
            ok = ok and lo <= o["mean"] <= 1.0
            flags.append(ok)
        return flags


# ---------------------------------------------------------------------------
# dense + stabilizer self-check
# ---------------------------------------------------------------------------


class SelfCheck:
    """``dyncirc verify``: 37 builder checks against the dense oracle and
    the stabilizer engine."""

    samples_are_shots = False

    def __init__(self, seed: int, workdir):
        self.argv = ["verify", "--seed", str(seed)]

    def run(self, tag: str) -> tuple[int, str]:
        return _quiet(self.argv)

    @staticmethod
    def digest(output) -> str:
        return repr(output)

    def std_errs(self, output) -> list[float]:
        return []

    def points(self, output) -> int:
        return 0

    def check(self, output) -> list[bool]:
        rc, text = output
        lines = text.splitlines()
        results = [line.rsplit(None, 1)[-1] for line in lines[1:-1]]
        flags = [r == "ok" for r in results]
        summary = f"{flags.count(True)}/{VERIFY_CHECKS} checks passed"
        if rc != 0 or len(flags) != VERIFY_CHECKS or not lines or lines[-1] != summary:
            # a malformed report fails every check it should have held
            return [False] * max(len(flags), VERIFY_CHECKS)
        return flags


WORKLOADS = {
    "ghz-dfe": GhzDfe,
    "cnot-dfe": CnotDfe,
    "frame-n1600": FrameN1600,
    "self-check": SelfCheck,
}
