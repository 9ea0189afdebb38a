"""Acceptance gate: one test per criterion, each ending in a single
pass/fail line (the assertion message carries the full analysis when a
criterion fails).

Two criteria are expected to fail honestly, with the reasons compiled into
their messages rather than the targets being adjusted to match:

- criterion 4: three cells of the reference cost tables are unattainable by
  any schedule consistent with the neighbouring cells (conservation and
  first-touch counting arguments below); the schedulers reproduce every other
  cell exactly.
- criterion 8: the second reference crossover-boundary value is incompatible
  with the first under any single feed-forward duration; the computed
  boundary and the (disjoint) duration windows are reported, and the weaker
  sufficiency statement behind it does hold.
"""

import csv
import dataclasses
import json
import time

import numpy as np
import pytest

import dyncirc.certify as cert
import dyncirc.circuits as C
import dyncirc.cli as cli
import dyncirc.noise as N
import dyncirc.statevector as sv
from dyncirc.pauli import PauliString


def _conclude(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. long-range CNOT equivalence
# ---------------------------------------------------------------------------


def _choi_stabilizers_exact(n: int, shots: int, seed: int) -> bool:
    """Every non-identity stabilizer of CNOT's Choi state reads its ideal
    sign on every shot of the stabilizer engine; together they pin the
    Choi state, hence the channel."""
    src = cert.choi_state_source(C.long_range_cnot_dynamic(n), data_in=(0, n + 1))
    stabs = [s for s in cert.cnot_choi_stabilizers() if not s.is_identity()]
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    seeds = [int(rng.integers(2**63)) for _ in stabs]
    pars = src.parities([s.mod_phase() for s in stabs], shots, seeds)
    return all((par == s.sign).all() for s, par in zip(stabs, pars))


def test_criterion_01_long_range_cnot_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(1, 9):
        f = sv.process_fidelity(C.long_range_cnot_dynamic(n), sv.cnot_matrix(), data=(0, n + 1))
        worst = max(worst, abs(f - 1.0))
    dense_ok = worst <= 1e-12
    stab_ok = all(_choi_stabilizers_exact(n, shots=8, seed=2026) for n in (16, 32, 99))
    dt = time.monotonic() - t0
    _conclude(
        1,
        dense_ok and stab_ok and dt < 120,
        f"dense choi max|F-1|={worst:.2e} (n=1..8); 15 choi stabilizers bit-exact at "
        f"n=16,32,99: {stab_ok}; {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. GHZ builders
# ---------------------------------------------------------------------------


def _ghz_generator_certificate(circ, n: int, seed: int) -> bool:
    """Every group generator reads out +1 on every shot; n independent
    commuting generators pin the stabilizer state, so this certifies F = 1."""
    src = cert.CircuitStateSource(circ)
    group = cert.ghz_stabilizer_group(n)
    return all((src(group.generator(i), 2, seed + i) == 1.0).all() for i in range(n))


def test_criterion_02_ghz_builders():
    t0 = time.monotonic()
    stab_ok = True
    for n in (2, 3, 4, 5, 16, 33, 64, 101):
        stab_ok &= _ghz_generator_certificate(C.ghz_dynamic(n), n, seed=3 * n)
        stab_ok &= _ghz_generator_certificate(C.ghz_unitary(n), n, seed=3 * n + 1)
    worst = 0.0
    for n in range(2, 13):
        for build in (C.ghz_dynamic, C.ghz_unitary):
            f = sv.average_state_fidelity(build(n), sv.ghz_state(n))
            worst = max(worst, abs(f - 1.0))
    dense_ok = worst <= 1e-12
    dt = time.monotonic() - t0
    _conclude(
        2,
        stab_ok and dense_ok and dt < 60,
        f"stabilizer generator certificates up to n=101 (both builders): {stab_ok}; "
        f"dense max|F-1|={worst:.2e} (n=2..12); {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. CCZ teleportation
# ---------------------------------------------------------------------------


def test_criterion_03_ccz_teleportation():
    t0 = time.monotonic()
    worst, counts_ok = 0.0, True
    for n in range(1, 5):
        circ = C.ccz_dynamic(n)
        f = sv.process_fidelity(circ, sv.ccz_matrix(), data=(0, n + 1, n + 2))
        worst = max(worst, abs(f - 1.0))
        t = C.tally(circ)
        counts_ok &= t.n_meas == n + 1 and t.n_cnot == n + 6
    dt = time.monotonic() - t0
    _conclude(
        3,
        worst <= 1e-10 and counts_ok and dt < 60,
        f"dense choi max|F-1|={worst:.2e} (n=1..4); counts n+1 meas / n+6 cnot: {counts_ok}; {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. reference cost tables (EXPECTED FAIL: three unattainable cells)
# ---------------------------------------------------------------------------


def _tally_tuple(circ):
    t = C.tally(circ)
    return (t.t_idle, t.n_cnot, t.n_meas, t.depth)


def test_criterion_04_reference_cost_tables():
    mu = 3.65
    matched, diffs, skipped = 0, [], []

    def compare(label, got, want):
        nonlocal matched
        for cell, g, w in zip(("idle", "cnot", "meas", "depth"), got, want):
            if g == pytest.approx(w, rel=1e-12, abs=1e-12):
                matched += 1
            else:
                diffs.append(f"{label}.{cell}: built={g:g} reference={w:g}")

    for n in range(2, 11):
        compare(f"Ia[n={n}]", _tally_tuple(C.long_range_cnot_unitary("Ia", n)),
                (n * n + 2 * n, 2 * n + 1, 0, 2 * n + 1))
        compare(f"dynamic[n={n}]", _tally_tuple(C.long_range_cnot_dynamic(n, mu=mu)),
                (2 * mu + 2, n + 1, n, 2 + mu))
        if n % 2 == 0:
            compare(f"Ib[n={n}]", _tally_tuple(C.long_range_cnot_unitary("Ib", n)),
                    (n * n / 4 + n, 3 * n + 1, 0, 2 * n + 1))
            compare(f"Ic[n={n}]", _tally_tuple(C.long_range_cnot_unitary("Ic", n)),
                    (0, 4 * n + 1, 0, 2 * n + 1))
            # reference idle cell for the swap variant: (3/4)nt^2 - (3/2)nt
            compare(f"II[nt={n}]", _tally_tuple(C.long_range_cnot_unitary("II", n)),
                    (0.75 * n * n - 1.5 * n, 3 * n + 1, 0, 1.5 * n + 1))
            # same row rescaled to the ancilla qubit count q = 2*nt + 3
            q = 2 * n + 3
            t = N._closed_form_tally("cnot_II_normed", q, mu)
            compare(f"II_normed[q={q}]", (t.t_idle, t.n_cnot, t.n_meas, t.depth),
                    (3 / 16 * q * q - 15 / 8 * q + 45 / 16, 1.5 * q - 2, 0, 0.75 * q - 1.25))
        else:
            skipped.append(f"Ib/Ic/II n={n} (reference rows assume even sizes; "
                           f"built Ic odd-size costs: {_tally_tuple(C.long_range_cnot_unitary('Ic', n))})")

    for n in range(4, 13, 2):
        compare(f"ghz_unitary[n={n}]", _tally_tuple(C.ghz_unitary(n)),
                (n * n / 4 - 1.5 * n + 2, n - 1, 0, n - 1))
        compare(f"ghz_dynamic[n={n}]", _tally_tuple(C.ghz_dynamic(n, mu=mu)),
                (1 + mu * n / 2, 1.5 * n - 2, n / 2 - 1, 3 + mu))

    analysis = (
        "unattainable reference cells: "
        "(a) swap-variant idle - with every chain qubit occupied, total idle is fixed by "
        "conservation at (nt+2)*makespan - 2*N_cnot = 1.5*nt^2 - 2*nt for ANY schedule at the "
        "row's own gate count and depth, not 0.75*nt^2 - 1.5*nt; "
        "(b) the rescaled swap row inherits (a) and its cnot constant: the exact q = 2*nt + 3 "
        "mapping gives idle (3/8)q^2 - (13/4)q + 51/8 and cnot 1.5*q - 3.5; "
        "(c) middle-out GHZ depth - at depth n-1 the reference idle n^2/4 - 1.5n + 2 is "
        "unreachable (each two-qubit slot can first-touch at most one fresh qubit: with "
        "m = (n-2)/2 the needed fresh-qubit time 3m^2 + 3m exceeds the attainable 2m^2 + m), "
        "so the builder realizes the reference idle at depth n/2 instead"
    )
    detail = (
        f"{matched} cells match exactly; {len(diffs)} cells differ: {'; '.join(diffs)}. "
        f"skipped odd sizes: {len(skipped)} ({skipped[0]}; ...). {analysis}"
    )
    _conclude(4, not diffs, detail)


# ---------------------------------------------------------------------------
# 5. rate-sum fidelity lower bound
# ---------------------------------------------------------------------------


def _channel_superop(channel: N.PauliLindbladChannel) -> np.ndarray:
    d = 2**channel.n
    s = np.eye(d * d, dtype=complex)
    for p, lam in channel.items():
        w = N.omega(lam)
        m = p.to_matrix()
        s = ((1 - w) * np.eye(d * d) + w * np.kron(m.conj(), m)) @ s
    return s


def _superop_process_fidelity(channel: N.PauliLindbladChannel) -> float:
    return np.trace(_channel_superop(channel)).real / 4**channel.n


def test_criterion_05_rate_sum_lower_bound():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260815)
    violations = 0
    worst_gap = np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        terms = []
        while not terms:
            for _ in range(int(rng.integers(1, 5))):
                x, z = int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n))
                if x or z:
                    terms.append((PauliString(n, x, z), float(rng.uniform(0.0, 0.3))))
        chan = N.PauliLindbladChannel(terms)
        f = _superop_process_fidelity(chan)
        bound = chan.process_fidelity_lower_bound()
        if f < bound - 1e-12:
            violations += 1
        worst_gap = min(worst_gap, f - bound)

    single_ok = True
    for lam in (0.0, 1e-6, 0.01, 0.2, 1.0, 3.0):
        chan = N.PauliLindbladChannel([(PauliString.from_text("XZ"), lam)])
        f = _superop_process_fidelity(chan)
        single_ok &= abs(f - (1 + np.exp(-2 * lam)) / 2) <= 1e-10
    dt = time.monotonic() - t0
    _conclude(
        5,
        violations == 0 and single_ok,
        f"0 bound violations in 1000 random channels (min F-bound gap {worst_gap:.2e}); "
        f"single-term F == (1+e^-2x)/2 within 1e-10: {single_ok}; {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. the 0.4 gate-fidelity floor
# ---------------------------------------------------------------------------


def test_criterion_06_two_fifths_floor():
    base = C.Circuit(2)
    base.add("cx", 0, 1, start=0.0)
    end = len(base.instructions)
    sites = [
        N.NoiseSite(end, PauliString.from_text("ZI"), 0.5),
        N.NoiseSite(end, PauliString.from_text("IX"), 0.5),
    ]
    f_proc = sv.process_fidelity(base, sv.cnot_matrix(), data=(0, 1), sites=sites)
    f_gate = N.gate_fidelity_from_process(f_proc, 4)
    exact_ok = abs(f_proc - 0.25) <= 1e-12 and abs(f_gate - 0.4) <= 1e-12

    src = cert.choi_state_source(base, data_in=(0, 1), noise=sites)
    # 400 operator draws x 25 shots = 10^4 measurements
    est, se = cert.estimate_cnot_gate_fidelity(src, 400, shots_per_sample=25, seed=0)
    mc_ok = se > 0 and abs(est - 0.4) < 3 * se
    _conclude(
        6,
        exact_ok and mc_ok,
        f"dense F_proc={f_proc:.15f}, F_gate={f_gate:.15f}; Monte-Carlo at 10^4 shots: "
        f"{est:.4f} +- {se:.4f} (|dev|/se={abs(est - 0.4) / se:.2f})",
    )


# ---------------------------------------------------------------------------
# 7. model-curve ranking and crossover size
# ---------------------------------------------------------------------------

FIG_PARAMS = N.NoiseParams(lambda_idle=0.03, lambda_cnot=0.02, lambda_meas=0.03, mu=3.65)


def test_criterion_07_model_curves_and_crossover():
    unitary_chain = ("cnot_Ia", "cnot_Ib", "cnot_Ic")

    def bounds(n):
        dyn = N.budget("cnot_dynamic", n, FIG_PARAMS).fidelity_lower_bound
        uni = max(
            b.fidelity_lower_bound
            for fam in unitary_chain
            if (b := N._maybe_budget(fam, n, FIG_PARAMS))
        )
        return dyn, uni

    small_ok = all(bounds(n)[1] > bounds(n)[0] for n in (2, 4))
    large_ok = all(bounds(n)[0] > bounds(n)[1] for n in (20, 50, 100))

    # scan even sizes: the zero-idle and swap-variant model rows only exist there
    pt = N.crossover_point(FIG_PARAMS, "cnot_dynamic", unitary_chain, n_start=2, n_step=2, n_max=100)
    pt_all = N.crossover_point(
        FIG_PARAMS, "cnot_dynamic", unitary_chain + ("cnot_II_normed",), n_start=2, n_step=2, n_max=100
    )
    in_band = pt.n_cross is not None and 7 <= pt.n_cross <= 13
    in_band_all = pt_all.n_cross is not None and 7 <= pt_all.n_cross <= 13
    _conclude(
        7,
        small_ok and large_ok and in_band and in_band_all,
        f"unitary best at n=2,4: {small_ok}; dynamic best at n>=20: {large_ok}; "
        f"crossover n={pt.n_cross} vs chain variants (and n={pt_all.n_cross} including the "
        f"rescaled swap variant), both within 10+-3",
    )


# ---------------------------------------------------------------------------
# 8. GHZ crossover boundaries (EXPECTED FAIL: second reference boundary)
# ---------------------------------------------------------------------------


def _ghz_boundary(lam_cnot: float, params: N.NoiseParams) -> float:
    """Largest measurement rate whose dynamic-vs-unitary crossover still
    happens above fidelity 0.5, located by bisection."""

    def crosses(lam_meas):
        p = dataclasses.replace(params, lambda_cnot=lam_cnot, lambda_meas=lam_meas)
        pt = N.crossover_point(p, n_max=100_000)
        return pt.fidelity is not None and pt.fidelity > 0.5

    lo, hi = 0.0, 0.2
    for _ in range(50):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if crosses(mid) else (lo, mid)
    return lo


def test_criterion_08_ghz_crossover_boundaries():
    params = N.NoiseParams(lambda_idle=0.001, mu=3.65)
    b1 = _ghz_boundary(0.01, params)
    b2 = _ghz_boundary(0.001, params)
    case1_ok = 0.003 * 0.8 <= b1 <= 0.003 * 1.2
    case2_ok = 0.012 * 0.8 <= b2 <= 0.012 * 1.2

    suff = N.crossover_point(
        dataclasses.replace(params, lambda_cnot=0.001, lambda_meas=0.012), n_max=100_000
    )
    sufficiency_ok = suff.fidelity is not None and suff.fidelity > 0.5

    _conclude(
        8,
        case1_ok and case2_ok and sufficiency_ok,
        f"boundary(lambda_cnot=0.01)={b1:.5f} vs 0.003+-20%: {case1_ok}; "
        f"boundary(lambda_cnot=0.001)={b2:.5f} vs 0.012+-20%: {case2_ok}. "
        f"The two reference values are jointly unreachable: at these rates the first needs a "
        f"feed-forward duration mu in roughly [3.4, 4.6] and the second mu in roughly [9, 14], "
        f"disjoint windows, so no parameter choice satisfies both; the weaker sufficiency claim "
        f"does hold - at (0.001, 0.012) the crossover fidelity is {suff.fidelity:.4f} > 0.5: "
        f"{sufficiency_ok}",
    )


# ---------------------------------------------------------------------------
# 9. estimator statistics
# ---------------------------------------------------------------------------


def test_criterion_09_estimator_statistics():
    t0 = time.monotonic()
    ghz = C.ghz_dynamic(4)
    ghz_sites = N.attach_noise(ghz, N.NoiseParams(lambda_cnot=0.06, lambda_meas=0.1))
    ghz_exact = sv.average_state_fidelity(ghz, sv.ghz_state(4), sites=ghz_sites)
    src = cert.CircuitStateSource(ghz, noise=ghz_sites)

    cn = C.long_range_cnot_dynamic(2, mu=1.0)
    cn_sites = N.attach_noise(cn, N.NoiseParams(lambda_cnot=0.08, lambda_meas=0.1))
    cn_exact = N.gate_fidelity_from_process(
        sv.process_fidelity(cn, sv.cnot_matrix(), data=(0, 3), sites=cn_sites), 4
    )
    choi = cert.choi_state_source(cn, data_in=(0, 3), noise=cn_sites)

    reps = np.array(
        [cert.estimate_ghz_fidelity(src, 4, 16, shots_per_sample=8, seed=s)[0] for s in range(200)]
    )
    z_ghz = abs(reps.mean() - ghz_exact) / (reps.std(ddof=1) / np.sqrt(len(reps)))
    reps = np.array(
        [cert.estimate_cnot_gate_fidelity(choi, 12, shots_per_sample=6, seed=s)[0] for s in range(200)]
    )
    z_cnot = abs(reps.mean() - cn_exact) / (reps.std(ddof=1) / np.sqrt(len(reps)))
    unbiased_ok = z_ghz < 3 and z_cnot < 3

    ratios = []
    for fn in (
        lambda m, s: cert.estimate_ghz_fidelity(src, 4, m, 4, seed=s)[0],
        lambda m, s: cert.estimate_cnot_gate_fidelity(choi, m, 4, seed=s)[0],
    ):
        stds = {
            m: np.array([fn(m, 100 + 1000 * m + r) for r in range(72)]).std(ddof=1)
            for m in (64, 256, 1024)
        }
        ratios += [stds[64] / stds[256], stds[256] / stds[1024]]
    scaling_ok = all(1.6 < r < 2.4 for r in ratios)

    dt = time.monotonic() - t0
    _conclude(
        9,
        unbiased_ok and scaling_ok and dt < 300,
        f"unbiasedness z-scores ghz={z_ghz:.2f}, cnot={z_cnot:.2f} (200 repetitions vs dense "
        f"exact); std ratios per 4x sample increase {[f'{r:.2f}' for r in ratios]} all within "
        f"2.0+-20%; {dt:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. CLI determinism across worker counts
# ---------------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path, capsys):
    ghz_cfg = tmp_path / "ghz.json"
    ghz_cfg.write_text(
        json.dumps(
            {
                "lambda_idle": 0.002, "lambda_cnot": 0.01, "lambda_meas": 0.02, "mu": 3.65,
                "n_min": 4, "n_max": 8, "n_step": 2, "shots": 8, "m_samples": 16, "seed": 11,
            }
        )
    )
    cnot_cfg = tmp_path / "cnot.json"
    cnot_cfg.write_text(
        json.dumps(
            {
                "lambda_idle": 0.03, "lambda_cnot": 0.02, "lambda_meas": 0.03, "mu": 3.65,
                "n_min": 1, "n_max": 4, "n_step": 1, "variants": ["dynamic", "Ia", "Ib"],
                "shots": 8, "m_samples": 10, "seed": 12,
            }
        )
    )
    cross_cfg = tmp_path / "cross.json"
    cross_cfg.write_text(
        json.dumps(
            {
                "lambda_idle": 0.001, "mu": 3.65,
                "lambda_cnot_values": [0.001, 0.01], "lambda_meas_values": [0.003, 0.012],
                "n_min": 4, "n_step": 2, "n_scan_max": 5000,
            }
        )
    )

    identical = True
    rows_seen = {}
    for name, cfg in (("ghz-sweep", ghz_cfg), ("cnot-sweep", cnot_cfg), ("crossover", cross_cfg)):
        out = tmp_path / f"{name}.csv"
        artifacts = []
        for workers in (1, 4, 16, 1):  # trailing 1 doubles as a rerun check
            rc = cli.main(
                [name, "--config", str(cfg), "--out", str(out), "--reproducible",
                 "--workers", str(workers)]
            )
            assert rc == 0
            artifacts.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        identical &= all(a == artifacts[0] for a in artifacts[1:])
        with open(out, newline="") as f:
            rows_seen[name] = len(list(csv.DictReader(f)))
    capsys.readouterr()
    _conclude(
        10,
        identical,
        f"CSV+sidecar bytes identical across 1/4/16 workers and rerun for ghz-sweep "
        f"({rows_seen['ghz-sweep']} rows), cnot-sweep ({rows_seen['cnot-sweep']} rows), "
        f"crossover ({rows_seen['crossover']} rows)",
    )
