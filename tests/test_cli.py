"""End-to-end tests of the sweep runner: config parsing, CSV/JSON artifacts,
determinism across seeds and worker counts, and the verify table."""

import csv
import dataclasses
import json

import pytest

import dyncirc.cli as cli
import dyncirc.noise as N


def _write_cfg(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_config_from_doc_splits_noise_fields():
    cfg = cli.ExperimentConfig.from_doc(
        {
            "lambda_idle": 0.03,
            "lambda_cnot": 0.02,
            "mu": 3.65,
            "n_min": 1,
            "n_max": 6,
            "n_step": 1,
            "variants": ["dynamic", "Ia"],
            "shots": 32,
            "seed": 9,
        }
    )
    assert cfg.noise == N.NoiseParams(lambda_idle=0.03, lambda_cnot=0.02, mu=3.65)
    assert cfg.sizes() == [1, 2, 3, 4, 5, 6]
    assert cfg.variants == ("dynamic", "Ia")
    assert cfg.shots == 32 and cfg.seed == 9
    assert cfg.m_samples == 100  # default


def test_config_rejects_unknown_and_invalid_fields():
    with pytest.raises(ValueError):
        cli.ExperimentConfig.from_doc({"lambda_idel": 0.1})  # typo
    with pytest.raises(ValueError):
        cli.ExperimentConfig.from_doc([1, 2])
    with pytest.raises(ValueError):
        cli.ExperimentConfig(n_min=4, n_max=2)
    with pytest.raises(ValueError):
        cli.ExperimentConfig(shots=0)
    with pytest.raises(ValueError):
        cli.ExperimentConfig(m_samples=0)
    with pytest.raises(ValueError):
        cli.ExperimentConfig(workers=0)
    with pytest.raises(ValueError):
        cli.ExperimentConfig(mode="lazy")
    with pytest.raises(ValueError):
        cli.ExperimentConfig(variants=("dynamic", "Id"))
    with pytest.raises(ValueError):
        cli.ExperimentConfig(methods=())
    with pytest.raises(ValueError):
        cli.ExperimentConfig(family="ghz_teleported")
    with pytest.raises(ValueError):
        cli.ExperimentConfig(lambda_meas_values=(0.1, -0.1))
    with pytest.raises(ValueError):
        cli.ExperimentConfig(n_scan_max=2)


def test_config_doc_round_trip_omits_workers():
    cfg = cli.ExperimentConfig(noise=N.NoiseParams(lambda_cnot=0.01), workers=8, seed=3)
    doc = cfg.to_doc()
    assert "workers" not in doc
    assert doc["noise"] == {"lambda_cnot": 0.01, "lambda_idle": 0.0, "lambda_meas": 0.0, "mu": 1.0}
    again = cli.ExperimentConfig.from_doc({**doc.pop("noise"), **doc})
    assert again == dataclasses.replace(cfg, workers=1)


def test_point_seed_is_stable_and_spread():
    s = cli._point_seed(7, 4, "dynamic")
    assert s == cli._point_seed(7, 4, "dynamic")
    others = {cli._point_seed(7, n, v) for n in (4, 5) for v in ("dynamic", "Ia", "unitary")}
    others.add(cli._point_seed(8, 4, "dynamic"))
    assert len(others) == 7 and s in others


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_and_prints_table(capsys):
    assert cli.main(["verify", "--shots", "4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == ["family", "size", "check", "result"]
    body = lines[1:-1]
    assert all(line.endswith("ok") for line in body)
    assert lines[-1] == f"{len(body)}/{len(body)} checks passed"
    assert any(line.startswith("cnot_dynamic") and " 99 " in line for line in body)
    assert any(line.startswith("ccz_dynamic") for line in body)


def test_verify_reports_failures(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_check_ccz_dense", lambda n: (False, {"process_fidelity": 0.25}))
    assert cli.main(["verify", "--shots", "2"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    failures = json.loads(captured.err)
    assert len(failures) == 4  # one per ccz size
    assert failures[0]["family"] == "ccz_dynamic"
    assert failures[0]["detail"] == {"process_fidelity": 0.25}


# ---------------------------------------------------------------------------
# cnot-sweep
# ---------------------------------------------------------------------------


def test_cnot_sweep_artifacts(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "cfg.json",
        lambda_idle=0.03,
        lambda_cnot=0.02,
        lambda_meas=0.03,
        mu=3.65,
        n_min=1,
        n_max=3,
        n_step=1,
        variants=["dynamic", "Ia", "Ib"],
        shots=8,
        m_samples=12,
        seed=5,
    )
    out = tmp_path / "cnot.csv"
    assert cli.main(["cnot-sweep", "--config", cfg, "--out", str(out), "--reproducible"]) == 0

    raw = out.read_bytes()
    assert raw.count(b"\r\n") == 10  # header + 9 rows, RFC 4180 line endings
    rows = _read_csv(out)
    assert [r["n"] for r in rows] == ["1", "1", "1", "2", "2", "2", "3", "3", "3"]
    assert [r["variant"] for r in rows[:3]] == ["dynamic", "Ia", "Ib"]

    params = N.NoiseParams(lambda_idle=0.03, lambda_cnot=0.02, lambda_meas=0.03, mu=3.65)
    for r in rows:
        n = int(r["n"])
        fam = {"dynamic": "cnot_dynamic", "Ia": "cnot_Ia", "Ib": "cnot_Ib"}[r["variant"]]
        if r["variant"] == "Ib" and n % 2 == 1:
            assert r["model_bound_Fproc"] == "" and r["model_Fgate"] == ""
        else:
            b = N.budget(fam, n, params)
            assert float(r["model_bound_Fproc"]) == b.fidelity_lower_bound
            assert float(r["model_Fgate"]) == N.gate_fidelity_from_process(b.fidelity_lower_bound, 4)
        # the builders accept all these sizes, so simulation always ran
        assert 0.0 <= float(r["simulated_Fgate"]) <= 1.05
        assert float(r["std_err"]) >= 0.0

    sidecar = json.loads((tmp_path / "cnot.json").read_text())
    assert sidecar["command"] == "cnot-sweep"
    assert "generated_at" not in sidecar
    assert sidecar["config"]["noise"]["mu"] == 3.65
    assert sidecar["config"]["seed"] == 5
    assert sidecar["config"]["out"] == str(out)
    assert "workers" not in sidecar["config"]
    capsys.readouterr()


def test_cnot_sweep_noiseless_is_exact(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "c.json",
        n_min=1,
        n_max=2,
        n_step=1,
        variants=["dynamic", "II"],
        shots=4,
        m_samples=6,
        mode="noiseless",
        out=str(tmp_path / "o.csv"),
    )
    assert cli.main(["cnot-sweep", "--config", cfg, "--reproducible"]) == 0
    for r in _read_csv(tmp_path / "o.csv"):
        assert r["simulated_Fgate"] == "1.0" and r["std_err"] == "0.0"
        if r["model_bound_Fproc"]:
            assert r["model_bound_Fproc"] == "1.0"
    capsys.readouterr()


def test_cnot_sweep_deterministic_and_seed_sensitive(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "c.json",
        lambda_cnot=0.05,
        n_min=2,
        n_max=2,
        n_step=1,
        variants=["dynamic", "Ic"],
        shots=8,
        m_samples=10,
        seed=1,
        out=str(tmp_path / "o.csv"),
    )
    run = lambda *extra: cli.main(["cnot-sweep", "--config", cfg, "--reproducible", *extra])
    assert run() == 0
    first = (tmp_path / "o.csv").read_bytes(), (tmp_path / "o.json").read_bytes()
    assert run("--workers", "4") == 0
    assert ((tmp_path / "o.csv").read_bytes(), (tmp_path / "o.json").read_bytes()) == first
    assert run("--seed", "2") == 0
    assert (tmp_path / "o.csv").read_bytes() != first[0]
    capsys.readouterr()


def test_post_process_model_drops_mu_idle(tmp_path, capsys):
    common = dict(
        lambda_idle=0.03,
        lambda_cnot=0.02,
        lambda_meas=0.03,
        mu=3.65,
        n_min=2,
        n_max=4,
        n_step=2,
        variants=["dynamic"],
        shots=4,
        m_samples=4,
    )
    for mode in ("feed_forward", "post_process"):
        cfg = _write_cfg(tmp_path / f"{mode}.cfg.json", mode=mode, out=str(tmp_path / f"{mode}.csv"), **common)
        assert cli.main(["cnot-sweep", "--config", cfg, "--reproducible"]) == 0
    ff = _read_csv(tmp_path / "feed_forward.csv")
    pp = _read_csv(tmp_path / "post_process.csv")
    params = N.NoiseParams(lambda_idle=0.03, lambda_cnot=0.02, lambda_meas=0.03, mu=3.65)
    for a, b in zip(ff, pp):
        assert float(b["model_bound_Fproc"]) > float(a["model_bound_Fproc"])
        n = int(a["n"])
        assert float(b["model_bound_Fproc"]) == N.budget(
            "cnot_dynamic", n, dataclasses.replace(params, mu=0.0)
        ).fidelity_lower_bound
    capsys.readouterr()


# ---------------------------------------------------------------------------
# ghz-sweep
# ---------------------------------------------------------------------------


def test_ghz_sweep_artifacts(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "g.cfg.json",
        lambda_idle=0.001,
        lambda_cnot=0.01,
        lambda_meas=0.003,
        mu=3.65,
        n_min=2,
        n_max=6,
        n_step=2,
        shots=16,
        m_samples=24,
        seed=3,
        out=str(tmp_path / "g.csv"),
    )
    assert cli.main(["ghz-sweep", "--config", cfg, "--reproducible"]) == 0
    rows = _read_csv(tmp_path / "g.csv")
    assert len(rows) == 6  # three sizes x two methods
    params = N.NoiseParams(lambda_idle=0.001, lambda_cnot=0.01, lambda_meas=0.003, mu=3.65)
    for r in rows:
        n = int(r["n"])
        if n == 2:
            assert r["model_bound"] == ""  # closed forms start at even n >= 4
        else:
            fam = {"dynamic": "ghz_dynamic", "unitary": "ghz_unitary"}[r["method"]]
            assert float(r["model_bound"]) == N.budget(fam, n, params).fidelity_lower_bound
        est, se = float(r["simulated_F"]), float(r["std_err"])
        assert r["entangled_flag"] == ("true" if est - 2 * se > 0.5 else "false")
    capsys.readouterr()


README_GHZ = dict(
    lambda_idle=0.002, lambda_cnot=0.01, lambda_meas=0.02, mu=3.65,
    n_min=4, n_max=4, n_step=2, shots=64, m_samples=200, seed=7,
)


@pytest.mark.parametrize(
    "mode, rows",
    [
        (
            "feed_forward",
            [
                "4,dynamic,0.9262602836290034,0.92703125,0.003838706244667826,true",
                "4,unitary,0.9704455335485082,0.9709375,0.002339270216215382,true",
            ],
        ),
        (
            "post_process",
            [
                "4,dynamic,0.9398828867910889,0.93359375,0.0035852737596795492,true",
                "4,unitary,0.9704455335485082,0.9709375,0.002339270216215382,true",
            ],
        ),
    ],
)
def test_ghz_sweep_readme_rows_are_pinned(tmp_path, capsys, mode, rows):
    # the n = 4 rows of the README sweep, byte for byte
    cfg = _write_cfg(tmp_path / "sweep.json", mode=mode, **README_GHZ)
    out = tmp_path / "ghz.csv"
    assert cli.main(["ghz-sweep", "--config", cfg, "--out", str(out), "--reproducible"]) == 0
    header = "n,method,model_bound,simulated_F,std_err,entangled_flag"
    assert out.read_bytes() == "".join(line + "\r\n" for line in [header, *rows]).encode()
    capsys.readouterr()


def test_ghz_sweep_row_with_no_builder_is_blank(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "g.cfg.json",
        n_min=1,
        n_max=2,
        n_step=1,
        methods=["dynamic"],
        shots=4,
        m_samples=4,
        out=str(tmp_path / "g.csv"),
    )
    assert cli.main(["ghz-sweep", "--config", cfg, "--reproducible"]) == 0
    rows = _read_csv(tmp_path / "g.csv")
    assert rows[0]["n"] == "1"
    assert all(rows[0][k] == "" for k in ("model_bound", "simulated_F", "std_err", "entangled_flag"))
    assert rows[1]["simulated_F"] == "1.0"  # noiseless params, builder fine at n=2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# budget and crossover
# ---------------------------------------------------------------------------


def test_budget_json_output(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "p.json", lambda_idle=0.001, lambda_cnot=0.01, mu=3.65, n_min=4, n_max=4)
    assert cli.main(["budget", "--family", "ghz_dynamic", "--size", "10", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    b = N.budget("ghz_dynamic", 10, N.NoiseParams(lambda_idle=0.001, lambda_cnot=0.01, mu=3.65))
    assert doc["lam_tot"] == b.lam_tot
    assert doc["fidelity_lower_bound"] == b.fidelity_lower_bound
    assert doc["tally"]["n_cnot"] == b.tally.n_cnot
    assert doc["params"]["mu"] == 3.65

    out = tmp_path / "b.json"
    assert cli.main(["budget", "--family", "cnot_Ia", "--size", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["family"] == "cnot_Ia"
    capsys.readouterr()


def test_budget_rejects_undefined_size(capsys):
    assert cli.main(["budget", "--family", "ghz_dynamic", "--size", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_crossover_grid_matches_library(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "x.cfg.json",
        lambda_idle=0.001,
        mu=3.65,
        lambda_cnot_values=[0.001, 0.01],
        lambda_meas_values=[0.003, 5.0],
        n_min=4,
        n_step=2,
        n_scan_max=200,
        out=str(tmp_path / "x.csv"),
    )
    assert cli.main(["crossover", "--config", cfg, "--reproducible"]) == 0
    rows = _read_csv(tmp_path / "x.csv")
    pts = N.crossover_map(
        N.NoiseParams(lambda_idle=0.001, mu=3.65),
        [0.001, 0.01],
        [0.003, 5.0],
        n_start=4,
        n_step=2,
        n_max=200,
    )
    assert len(rows) == 4
    for r, p in zip(rows, pts):
        assert float(r["lambda_cnot"]) == p.lam_cnot
        assert float(r["lambda_meas"]) == p.lam_meas
        if p.n_cross is None:
            assert r["n_cross"] == "" and r["F_cross"] == ""
        else:
            assert int(r["n_cross"]) == p.n_cross
            assert float(r["F_cross"]) == p.fidelity
    # the hopeless measurement rate never crosses within the scan cap
    assert rows[1]["n_cross"] == "" and rows[3]["n_cross"] == ""
    capsys.readouterr()


def test_crossover_requires_grids(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "x.json", n_min=4, out=str(tmp_path / "x.csv"))
    assert cli.main(["crossover", "--config", cfg]) == 2
    assert "lambda_cnot_values" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_missing_out_and_bad_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.json", n_min=4, n_max=4)
    assert cli.main(["ghz-sweep", "--config", cfg]) == 2
    assert "output path" in capsys.readouterr().err

    assert cli.main(["ghz-sweep", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    bad = _write_cfg(tmp_path / "bad.json", lambda_idel=0.1)
    assert cli.main(["ghz-sweep", "--config", bad, "--out", "x.csv"]) == 2
    assert "unknown config fields" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("seed", -1), ("seed", True), ("shots", 4.0), ("m_samples", "8"),
     ("n_min", 2.0), ("n_max", None), ("n_step", 1.0), ("workers", 1.0), ("n_scan_max", 1e4)],
)
def test_sweep_rejects_bad_integer_fields(tmp_path, capsys, field, value):
    doc = dict(n_min=4, n_max=4, methods=["unitary"], shots=2, m_samples=2, out=str(tmp_path / "o.csv"))
    cfg = _write_cfg(tmp_path / "c.json", **{**doc, field: value})
    assert cli.main(["ghz-sweep", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "o.csv").exists() and not (tmp_path / "o.json").exists()


def test_negative_seed_flags_exit_before_any_work(tmp_path, capsys):
    doc = dict(n_min=4, n_max=4, variants=["dynamic"], shots=2, m_samples=2)
    cfg = _write_cfg(tmp_path / "c.json", **doc)
    out = str(tmp_path / "o.csv")
    assert cli.main(["cnot-sweep", "--config", cfg, "--out", out, "--seed", "-3"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()
    for flag, value in (("--seed", "-3"), ("--shots", "0")):
        assert cli.main(["verify", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err


def test_sidecar_may_not_overwrite_the_config(tmp_path, capsys):
    doc = dict(n_min=4, n_max=4, methods=["unitary"], shots=2, m_samples=2)
    cfg = _write_cfg(tmp_path / "g.json", **doc)
    before = (tmp_path / "g.json").read_bytes()
    for command in ("ghz-sweep", "cnot-sweep"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "g.csv")]) == 2
        assert "overwrite the config" in capsys.readouterr().err
    # the same file reached through another spelling of the path
    other = str(tmp_path / "sub" / ".." / "g.csv")
    (tmp_path / "sub").mkdir()
    assert cli.main(["ghz-sweep", "--config", cfg, "--out", other]) == 2
    assert "overwrite the config" in capsys.readouterr().err
    assert (tmp_path / "g.json").read_bytes() == before
    assert not (tmp_path / "g.csv").exists()

    grid = _write_cfg(tmp_path / "x.json", lambda_cnot_values=[0.01], lambda_meas_values=[0.01])
    assert cli.main(["crossover", "--config", grid, "--out", str(tmp_path / "x.csv")]) == 2
    assert "overwrite the config" in capsys.readouterr().err

    # a config next to its output under another stem runs, and reruns
    ok = _write_cfg(tmp_path / "g.cfg.json", **doc)
    for _ in range(2):
        assert cli.main(["ghz-sweep", "--config", ok, "--out", str(tmp_path / "g.csv")]) == 0
    assert (tmp_path / "g.json").exists()
    capsys.readouterr()


def test_sidecar_timestamp_without_reproducible(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path / "c.json",
        n_min=4,
        n_max=4,
        methods=["unitary"],
        shots=2,
        m_samples=2,
        out=str(tmp_path / "o.csv"),
    )
    assert cli.main(["ghz-sweep", "--config", cfg]) == 0
    assert "generated_at" in json.loads((tmp_path / "o.json").read_text())
    capsys.readouterr()
