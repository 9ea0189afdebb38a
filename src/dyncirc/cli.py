"""Batch experiment runner: builder checks, fidelity sweeps, budgets, grids.

Subcommands
-----------
verify      noiseless equivalence checks of every circuit builder (exit 0 iff
            all pass)
cnot-sweep  closed-form bounds + Monte-Carlo gate fidelities for long-range
            CNOT constructions over a size range
ghz-sweep   closed-form bounds + Monte-Carlo state fidelities for GHZ
            preparation methods
budget      closed-form error budget for one family/size, as JSON
crossover   dynamic-vs-unitary crossover sizes over a (rate, rate) grid

Sweep artifacts are RFC 4180 CSV (CRLF line endings) plus a ``.json`` sidecar
holding the fully resolved configuration.  Per-point seeds derive from
(master seed, size, variant), so results never depend on the worker count or
evaluation order; ``--reproducible`` drops the sidecar timestamp, making
reruns byte-identical.

Rows are emitted for every requested (size, variant) pair: cells whose closed
form or builder is undefined at that size (e.g. odd sizes for the even-only
constructions) are left empty rather than dropping the row.

Config files are JSON objects holding the noise-parameter fields
(lambda_idle, lambda_cnot, lambda_meas, mu, t1, t2) alongside sweep fields::

    {"lambda_idle": 0.03, "lambda_cnot": 0.02, "lambda_meas": 0.03,
     "mu": 3.65, "n_min": 1, "n_max": 12, "n_step": 1,
     "variants": ["dynamic", "Ia", "Ib", "Ic"],
     "shots": 64, "m_samples": 200, "seed": 7, "out": "cnot.csv"}

``--seed``, ``--shots``, ``--m-samples``, ``--out`` and ``--workers``
override the corresponding config fields.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import multiprocessing as mp
import sys
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import certify as cert
from . import circuits as circuits
from . import noise as noise_mod
from . import statevector as sv
from .noise import NoiseParams, _check_real

_MODES = circuits.MODES + ("noiseless",)

_CNOT_MODEL_FAMILY = {
    "dynamic": "cnot_dynamic",
    "Ia": "cnot_Ia",
    "Ib": "cnot_Ib",
    "Ic": "cnot_Ic",
    "II": "cnot_II",
}
_GHZ_MODEL_FAMILY = {"dynamic": "ghz_dynamic", "unitary": "ghz_unitary"}

CNOT_FIELDS = ["n", "variant", "model_bound_Fproc", "model_Fgate", "simulated_Fgate", "std_err"]
GHZ_FIELDS = ["n", "method", "model_bound", "simulated_F", "std_err", "entangled_flag"]
CROSSOVER_FIELDS = ["lambda_cnot", "lambda_meas", "n_cross", "F_cross"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved sweep configuration (noise rates plus run plumbing)."""

    noise: NoiseParams = NoiseParams()
    n_min: int = 4
    n_max: int = 12
    n_step: int = 2
    variants: tuple[str, ...] = ("dynamic", "Ia", "Ib", "Ic", "II")
    methods: tuple[str, ...] = ("dynamic", "unitary")
    shots: int = 64
    m_samples: int = 100
    seed: int = 0
    mode: str = "feed_forward"
    workers: int = 1
    out: str | None = None
    # crossover-only fields
    lambda_cnot_values: tuple[float, ...] = ()
    lambda_meas_values: tuple[float, ...] = ()
    family: str = "ghz_dynamic"
    unitaries: tuple[str, ...] = ("ghz_unitary",)
    n_scan_max: int = 10_000

    def __post_init__(self):
        for name in ("n_min", "n_max", "n_step", "shots", "m_samples", "seed", "workers", "n_scan_max"):
            v = getattr(self, name)
            if type(v) is not int:
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_min < 1 or self.n_max < self.n_min or self.n_step < 1:
            raise ValueError(
                f"invalid size range n_min={self.n_min}, n_max={self.n_max}, n_step={self.n_step}"
            )
        for name in ("shots", "m_samples", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; pick from {_MODES}")
        if not self.variants or any(v not in _CNOT_MODEL_FAMILY for v in self.variants):
            raise ValueError(
                f"variants must be a nonempty subset of {sorted(_CNOT_MODEL_FAMILY)}, "
                f"got {list(self.variants)}"
            )
        if not self.methods or any(m not in _GHZ_MODEL_FAMILY for m in self.methods):
            raise ValueError(
                f"methods must be a nonempty subset of {sorted(_GHZ_MODEL_FAMILY)}, "
                f"got {list(self.methods)}"
            )
        for fam in (self.family, *self.unitaries):
            if fam not in noise_mod.BUDGET_FAMILIES:
                raise ValueError(
                    f"unknown budget family {fam!r}; pick from {sorted(noise_mod.BUDGET_FAMILIES)}"
                )
        for name in ("lambda_cnot_values", "lambda_meas_values"):
            for v in getattr(self, name):
                _check_real(f"{name} entry", v)
                if v < 0:
                    raise ValueError("grid rates must be nonnegative")
        if self.n_scan_max < self.n_min:
            raise ValueError(f"n_scan_max={self.n_scan_max} below n_min={self.n_min}")

    @classmethod
    def from_doc(cls, doc) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        doc = dict(doc)
        noise_doc = {k: doc.pop(k) for k in NoiseParams._FIELDS if k in doc}
        known = {f.name for f in dataclasses.fields(cls)} - {"noise"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key in ("variants", "methods", "unitaries", "lambda_cnot_values", "lambda_meas_values"):
            if key in doc:
                if not isinstance(doc[key], (list, tuple)):
                    raise ValueError(f"{key} must be a list, got {doc[key]!r}")
                doc[key] = tuple(doc[key])
        return cls(noise=NoiseParams(**noise_doc), **doc)

    def to_doc(self) -> dict:
        # workers is execution plumbing that never affects results, so the
        # sidecar omits it and stays byte-stable across pool sizes
        out = {"noise": json.loads(self.noise.to_json())}
        for f in dataclasses.fields(self):
            if f.name in ("noise", "workers"):
                continue
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def sizes(self) -> list[int]:
        return list(range(self.n_min, self.n_max + 1, self.n_step))


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return ExperimentConfig.from_doc(json.load(f))


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    for name in ("seed", "shots", "m_samples", "out", "workers"):
        v = getattr(args, name, None)
        if v is not None:
            updates[name] = v
    return dataclasses.replace(cfg, **updates) if updates else cfg


# ---------------------------------------------------------------------------
# deterministic seeding and worker-pool plumbing
# ---------------------------------------------------------------------------


def _point_seed(seed: int, n: int, label: str) -> int:
    """Estimator seed for one sweep point, a pure function of
    (master seed, size, variant label)."""
    a, b = np.random.SeedSequence((seed, n, zlib.crc32(label.encode()))).generate_state(2)
    return (int(a) << 32) | int(b)


def _run_points(fn, tasks, workers: int) -> list:
    if workers == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with mp.Pool(processes=workers) as pool:
        return pool.map(fn, tasks)  # ordered: rows come back in task order


def _run_mode(mode: str) -> str:
    """The schedule a sweep mode builds its dynamic circuits with:
    noiseless runs feed forward."""
    return "post_process" if mode == "post_process" else "feed_forward"


def _model_params(params: NoiseParams, mode: str) -> NoiseParams:
    if mode == "noiseless":
        return NoiseParams(mu=params.mu)
    if mode == "post_process":
        # no feed-forward wait: the mu idle contribution drops out
        return dataclasses.replace(params, mu=0.0)
    return params


# ---------------------------------------------------------------------------
# sweep points (module level so the pool can pickle them)
# ---------------------------------------------------------------------------


def _cnot_circuit(variant: str, n: int, mu: float, mode: str):
    if variant == "dynamic":
        circ = circuits.long_range_cnot_dynamic(n, mu=mu, mode=_run_mode(mode))
        return circ, (0, n + 1), None
    circ = circuits.long_range_cnot_unitary(variant, n)
    data_out = None
    if circ.output_map is not None:
        data_out = (circ.output_map[0], circ.output_map[n + 1])
    return circ, (0, n + 1), data_out


def _cnot_point(task) -> dict:
    n, variant, params, shots, m_samples, mode, point_seed = task
    row = dict.fromkeys(CNOT_FIELDS)
    row["n"], row["variant"] = n, variant
    try:
        b = noise_mod.budget(_CNOT_MODEL_FAMILY[variant], n, _model_params(params, mode))
        row["model_bound_Fproc"] = b.fidelity_lower_bound
        row["model_Fgate"] = noise_mod.gate_fidelity_from_process(b.fidelity_lower_bound, 4)
    except ValueError:
        pass
    try:
        circ, data_in, data_out = _cnot_circuit(variant, n, params.mu, mode)
    except ValueError:
        return row
    sites = () if mode == "noiseless" else noise_mod.attach_noise(circ, params)
    src = cert.choi_state_source(circ, data_in, data_out, noise=sites)
    est, se = cert.estimate_cnot_gate_fidelity(src, m_samples, shots, seed=point_seed)
    row["simulated_Fgate"], row["std_err"] = est, se
    return row


def _ghz_point(task) -> dict:
    n, method, params, shots, m_samples, mode, point_seed = task
    row = dict.fromkeys(GHZ_FIELDS)
    row["n"], row["method"] = n, method
    try:
        b = noise_mod.budget(_GHZ_MODEL_FAMILY[method], n, _model_params(params, mode))
        row["model_bound"] = b.fidelity_lower_bound
    except ValueError:
        pass
    try:
        if method == "dynamic":
            circ = circuits.ghz_dynamic(n, mu=params.mu, mode=_run_mode(mode))
        else:
            circ = circuits.ghz_unitary(n)
    except ValueError:
        return row
    sites = () if mode == "noiseless" else noise_mod.attach_noise(circ, params)
    src = cert.CircuitStateSource(circ, noise=sites)
    est, se = cert.estimate_ghz_fidelity(src, n, m_samples, shots, seed=point_seed)
    row["simulated_F"], row["std_err"] = est, se
    row["entangled_flag"] = bool(est - 2.0 * se > 0.5)
    return row


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=fieldnames)
        w.writeheader()
        for row in rows:
            w.writerow({k: _cell(row.get(k)) for k in fieldnames})


def _sidecar_path(out: str) -> Path:
    return Path(out).with_suffix(".json")


def _write_sidecar(path: str, command: str, cfg: ExperimentConfig, reproducible: bool) -> Path:
    doc = {"command": command, "config": cfg.to_doc(), "output": str(path)}
    if not reproducible:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    sidecar = _sidecar_path(path)
    sidecar.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return sidecar


def _warn_bound_violations(rows: list[dict], sim_key: str, bound_key: str) -> None:
    # exp(-lam_tot) is a lower bound; simulated values landing well below the
    # model line indicate a modeling or simulator bug, not statistics
    for row in rows:
        sim, bound, se = row.get(sim_key), row.get(bound_key), row.get("std_err")
        if sim is None or bound is None or se is None or np.isnan(se):
            continue
        if sim < bound - 3.0 * se:
            print(
                f"warning: row {row['n']},{row.get('variant', row.get('method'))}: "
                f"{sim_key}={sim:.6f} sits below the model bound {bound:.6f} - 3*std_err",
                file=sys.stderr,
            )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_cnot_dense(variant: str, size: int):
    circ, data_in, data_out = _cnot_circuit(variant, size, 1.0, "feed_forward")
    f = sv.process_fidelity(circ, sv.cnot_matrix(), data=data_in, data_out=data_out)
    return abs(f - 1.0) <= 1e-10, {"process_fidelity": f}


def _check_cnot_pauli_io(n: int, shots: int, seed: int):
    """Each of the 15 non-identity stabilizers of CNOT's Choi state reads
    its ideal sign on every shot, on the stabilizer engine; together they
    pin the Choi state, hence the channel."""
    src = cert.choi_state_source(circuits.long_range_cnot_dynamic(n), data_in=(0, n + 1))
    stabs = [s for s in cert.cnot_choi_stabilizers() if not s.is_identity()]
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, 0x696F)))
    seeds = [int(rng.integers(2**63)) for _ in stabs]
    pars = src.parities([s.mod_phase() for s in stabs], shots, seeds)
    for stab, par in zip(stabs, pars):
        if not (par == stab.sign).all():
            return False, {
                "stabilizer": str(stab),
                "expected_parity": float(stab.sign),
                "mean_parity": float(par.mean()),
            }
    return True, {"stabilizers": len(stabs)}


def _check_ghz_exact(builder, n: int, seed: int):
    src = cert.CircuitStateSource(builder(n))
    est, se = cert.estimate_ghz_fidelity(src, n, 16, shots_per_sample=4, seed=seed)
    return est == 1.0 and se == 0.0, {"estimate": est, "std_err": se}


def _check_ccz_dense(n: int):
    f = sv.process_fidelity(
        circuits.ccz_dynamic(n), sv.ccz_matrix(), data=(0, n + 1, n + 2)
    )
    return abs(f - 1.0) <= 1e-10, {"process_fidelity": f}


def cmd_verify(args) -> int:
    shots, seed = args.shots, args.seed
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    if shots < 1:
        raise ValueError(f"--shots must be >= 1, got {shots}")
    checks = []
    for n in range(1, 9):
        checks.append(
            ("cnot_dynamic", n, "dense choi == ideal cnot", lambda n=n: _check_cnot_dense("dynamic", n))
        )
    for n in (16, 32, 99):
        checks.append(
            ("cnot_dynamic", n, "15 choi stabilizer signs",
             lambda n=n: _check_cnot_pauli_io(n, shots, seed))
        )
    for variant in ("Ia", "Ib", "Ic", "II"):
        for size in (2, 3, 4):
            checks.append(
                (f"cnot_{variant}", size, "dense choi == ideal cnot",
                 lambda v=variant, s=size: _check_cnot_dense(v, s))
            )
    for n in (4, 6, 8, 10, 12):
        checks.append(
            ("ghz_dynamic", n, "sampled ghz fidelity == 1",
             lambda n=n: _check_ghz_exact(circuits.ghz_dynamic, n, seed))
        )
        checks.append(
            ("ghz_unitary", n, "sampled ghz fidelity == 1",
             lambda n=n: _check_ghz_exact(circuits.ghz_unitary, n, seed))
        )
    for n in range(1, 5):
        checks.append(("ccz_dynamic", n, "dense choi == ideal ccz", lambda n=n: _check_ccz_dense(n)))

    failures = []
    print(f"{'family':<13} {'size':>4}  {'check':<28} result")
    for family, size, label, fn in checks:
        ok, detail = fn()
        print(f"{family:<13} {size:>4}  {label:<28} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append({"family": family, "size": size, "check": label, "detail": detail})
    print(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    if failures:
        print(json.dumps(failures, indent=2), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# sweeps, budget, crossover
# ---------------------------------------------------------------------------


def _require_out(cfg: ExperimentConfig) -> str:
    if cfg.out is None:
        raise ValueError('no output path: set "out" in the config or pass --out')
    return cfg.out


def _check_sidecar(out: str, config: str) -> None:
    """Refuse an output path whose sidecar would overwrite the config file."""
    sidecar = _sidecar_path(out)
    if sidecar.resolve() == Path(config).resolve():
        raise ValueError(
            f"the sidecar of --out {out} is {sidecar}, which would overwrite the config file; "
            "pick an output path with another stem or directory"
        )


def _sweep(args, command: str, point, fields: list[str], labels: str, sim_key: str, bound_key: str) -> int:
    """Run one point per (size, label) of the config's ``labels`` field
    (variants or methods) and write the rows as CSV with a config sidecar."""
    cfg = _apply_overrides(load_config(args.config), args)
    out = _require_out(cfg)
    _check_sidecar(out, args.config)
    tasks = [
        (n, v, cfg.noise, cfg.shots, cfg.m_samples, cfg.mode, _point_seed(cfg.seed, n, v))
        for n in cfg.sizes()
        for v in getattr(cfg, labels)
    ]
    rows = _run_points(point, tasks, cfg.workers)
    _warn_bound_violations(rows, sim_key, bound_key)
    _write_csv(out, fields, rows)
    sidecar = _write_sidecar(out, command, cfg, args.reproducible)
    print(f"wrote {len(rows)} rows to {out} (config sidecar: {sidecar})")
    return 0


def cmd_cnot_sweep(args) -> int:
    return _sweep(args, "cnot-sweep", _cnot_point, CNOT_FIELDS, "variants", "simulated_Fgate", "model_Fgate")


def cmd_ghz_sweep(args) -> int:
    return _sweep(args, "ghz-sweep", _ghz_point, GHZ_FIELDS, "methods", "simulated_F", "model_bound")


def cmd_budget(args) -> int:
    params = load_config(args.config).noise if args.config else NoiseParams()
    b = noise_mod.budget(args.family, args.size, params)
    doc = {
        "family": b.family,
        "size": b.size,
        "tally": dataclasses.asdict(b.tally),
        "lam_tot": b.lam_tot,
        "fidelity_lower_bound": b.fidelity_lower_bound,
        "params": json.loads(params.to_json()),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote budget to {args.out}")
    else:
        print(text)
    return 0


def cmd_crossover(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out = _require_out(cfg)
    if not cfg.lambda_cnot_values or not cfg.lambda_meas_values:
        raise ValueError("crossover needs lambda_cnot_values and lambda_meas_values in the config")
    _check_sidecar(out, args.config)
    points = noise_mod.crossover_map(
        cfg.noise,
        cfg.lambda_cnot_values,
        cfg.lambda_meas_values,
        dynamic=cfg.family,
        unitaries=cfg.unitaries,
        n_start=cfg.n_min,
        n_step=cfg.n_step,
        n_max=cfg.n_scan_max,
    )
    rows = [
        {"lambda_cnot": p.lam_cnot, "lambda_meas": p.lam_meas, "n_cross": p.n_cross, "F_cross": p.fidelity}
        for p in points
    ]
    _write_csv(out, CROSSOVER_FIELDS, rows)
    sidecar = _write_sidecar(out, "crossover", cfg, args.reproducible)
    print(f"wrote {len(rows)} rows to {out} (config sidecar: {sidecar})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyncirc",
        description="Dynamic-circuit fidelity sweeps, budgets and crossover maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="noiseless equivalence checks for all builders")
    p.add_argument("--seed", type=int, default=0, help="seed for the stabilizer i/o checks")
    p.add_argument("--shots", type=int, default=16, help="shots per deterministic check")
    p.set_defaults(func=cmd_verify)

    def sweep_parser(name: str, help_text: str, func):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON sweep config")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--shots", type=int, default=None, help="override shots per sample")
        sp.add_argument("--m-samples", type=int, default=None, help="override operator draws per point")
        sp.add_argument("--out", default=None, help="override the output CSV path")
        sp.add_argument("--workers", type=int, default=None, help="override the worker-pool size")
        sp.add_argument(
            "--reproducible",
            action="store_true",
            help="omit the sidecar timestamp so reruns are byte-identical",
        )
        sp.set_defaults(func=func)
        return sp

    sweep_parser("cnot-sweep", "long-range CNOT fidelity sweep", cmd_cnot_sweep)
    sweep_parser("ghz-sweep", "GHZ preparation fidelity sweep", cmd_ghz_sweep)
    sweep_parser("crossover", "crossover-size grid over (lambda_cnot, lambda_meas)", cmd_crossover)

    p = sub.add_parser("budget", help="closed-form error budget for one family/size")
    p.add_argument("--family", required=True, choices=sorted(noise_mod.BUDGET_FAMILIES))
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--config", default=None, help="JSON sweep config whose noise-parameter fields are read")
    p.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    p.set_defaults(func=cmd_budget)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
