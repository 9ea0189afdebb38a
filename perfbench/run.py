"""dyncirc benchmark: four fixed workloads, end-to-end metrics, and a traced
mode with per-layer metrics.

    python3 perfbench/run.py --workload ghz-dfe --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a source tree: the package is imported from ``src/``
next to this directory, never from an installed copy.  The last line of
standard output is one JSON object; a results file stamped with provenance
goes to ``perfbench/out/``.  See perfbench/README.md for what each metric
means and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("ghz-dfe", "cnot-dfe", "frame-n1600", "self-check")
SETUP_REPEATS = 7
SELF_SUM_RTOL = 1e-9  # self times partition a round's root span up to float rounding

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "samples_per_s": "1/s", "shots_per_s": "1/s"}
RATIO_UNITS = {"certify.readout_reuse": "ratio", "tableau.ns_per_shot_op": "ns"}

# Set-up as a user pays it: a fresh interpreter imports the package and
# writes the workload's inputs.
SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5])"
)


def provenance() -> dict:
    import dyncirc
    import numpy

    return {
        "dyncirc": dyncirc.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def git_revision(root: Path) -> str:
    """HEAD of the repository at ``root``, read from its .git directory
    (a source tree without one reports "unknown")."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(name: str, seed: int, workdir: Path) -> float:
    """Seconds from start-up to inputs written, in a fresh interpreter."""
    d = Path(tempfile.mkdtemp(prefix="setup-", dir=workdir))
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls and rounds up to 50 ms steps
    subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), name, str(seed), str(d)], check=True)
    return time.perf_counter() - t0


def time_to_se(wall: float, std_errs: list[float]) -> float:
    """Seconds one point would need for a standard error of 0.01."""
    if not std_errs:
        return 0.0
    return wall / len(std_errs) * statistics.fmean((se / 0.01) ** 2 for se in std_errs)


class Rounds:
    """Outputs and measurements of the rounds of one run."""

    def __init__(self, work):
        self.work = work
        self.first = None
        self.digests: set[str] = set()
        self.meters: list = []
        self.walls: list[float] = []  # seconds of work, calibration loops excluded
        self.calibrations: list[float] = []  # mean calibration-loop seconds
        self.calibrated: list[float] = []  # seconds at the idle host's speed
        self.calibrated_batch: list[float] = []  # the same, inside run_batch only
        self.bare_walls: list[float] = []  # seconds of rounds run without any wrapper
        self.tracers: list = []
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0

    @property
    def count(self) -> int:
        return len(self.meters) + len(self.bare_walls) + len(self.tracers)

    def keep(self, output) -> None:
        # only the first output is kept whole; later ones are compared by
        # digest, so holding outputs does not grow peak memory
        if self.first is None:
            self.first = output
        self.digests.add(self.work.digest(output))

    def untraced(self) -> None:
        from spans import CAL_REF_S, Meter

        with Meter() as meter:
            output = self.work.run(f"u{self.count}")
        self.keep(output)
        if not self.meters:
            # later rounds can add allocator fragmentation, so the peak is
            # read after the first, as one dyncirc invocation would reach it
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.meters.append(meter)
        pieces = meter.pieces()
        self.walls.append(sum(d for d, _, _ in pieces))
        self.calibrations.append(statistics.fmean(cal for _, _, cal in pieces))
        self.calibrated.append(sum(d * CAL_REF_S / cal for d, _, cal in pieces))
        self.calibrated_batch.append(sum(b * CAL_REF_S / cal for _, b, cal in pieces))

    def bare(self) -> None:
        t0 = time.perf_counter()
        output = self.work.run(f"b{self.count}")
        self.bare_walls.append(time.perf_counter() - t0)
        self.keep(output)

    def traced(self) -> None:
        from spans import Tracer

        with Tracer() as tracer:
            root = tracer.open("bench")
            output = self.work.run(f"t{self.count}")
            tracer.close(root)
        self.keep(output)
        if self.tracers:
            # the first round's calls serve the fixed-cost pass; holding
            # every round's circuits would slow the rounds after it
            tracer.batches.clear()
        self.tracers.append(tracer)

    def end_to_end(self) -> dict[str, float]:
        """wall_s and the rates derived from it: medians over the untraced
        rounds of calibrated seconds."""
        wall = statistics.median(self.calibrated)
        m = self.meters[0]
        samples = m.shots if self.work.samples_are_shots else m.samples
        return {
            "wall_s": wall,
            "samples_per_s": samples / wall,
            "shots_per_s": m.shots / statistics.median(self.calibrated_batch),
        }


def layer_metrics(tracer, fixed_s: float, replay_s: float) -> dict[str, float]:
    total, own = tracer.totals()
    c = tracer.counts
    samples = c["certify.samples"]
    return {
        "trace.wall_s": total["bench"],
        "trace.self_sum_s": sum(own.values()),
        "bench.self_s": own["bench"],
        "cli.self_s": own.get("cli", 0.0),
        "certify.estimate_s": total.get("certify", 0.0),
        "certify.self_s": own.get("certify", 0.0),
        "certify.readout_build_s": total.get("certify.readout_build", 0.0),
        "certify.readout_builds": c["certify.readout_builds"],
        "certify.samples": samples,
        "certify.readout_reuse": 1.0 - c["certify.readout_builds"] / samples if samples else 0.0,
        "tableau.run_batch_s": total.get("tableau", 0.0),
        "tableau.self_s": own.get("tableau", 0.0),
        "tableau.run_batch_calls": c["tableau.run_batch_calls"],
        "tableau.shots": c["tableau.shots"],
        "tableau.fixed_s": fixed_s,
        "tableau.replay_s": replay_s,
        "tableau.shot_ops": c["tableau.shot_ops"],
        "tableau.ns_per_shot_op": 1e9 * replay_s / c["tableau.shot_ops"] if c["tableau.shot_ops"] else 0.0,
        "tableau.errors_fired": c["tableau.errors_fired"],
        "noise.attach_s": total.get("noise.attach", 0.0),
        "noise.sites": c["noise.sites"],
        "noise.budget_s": total.get("noise.budget", 0.0),
        "noise.budget_calls": c["noise.budget_calls"],
        "circuits.build_s": total.get("circuits.build", 0.0),
        "circuits.instructions": c["circuits.instructions"],
        "circuits.validate_s": total.get("circuits.validate", 0.0),
        "circuits.validate_calls": c["circuits.validate_calls"],
        "circuits.tally_s": total.get("circuits.tally", 0.0),
        "statevector.s": total.get("statevector", 0.0),
        "statevector.calls": c["statevector.calls"],
        "statevector.branches": c["statevector.branches"],
        "pauli.strings": c["pauli.strings"],
    }


def per_layer(rounds: Rounds) -> dict[str, float]:
    """Times from the fastest traced round, so that they add up; counts
    must repeat exactly in every traced round."""
    counts = [dict(t.counts) for t in rounds.tracers]
    if any(c != counts[0] for c in counts[1:]):
        rounds.problems.append("traced counts differ between rounds")
    fastest = min(rounds.tracers, key=lambda t: t.spans[0][2] - t.spans[0][1])
    metrics = layer_metrics(fastest, *rounds.tracers[0].fixed_cost_s())
    if abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"]) > SELF_SUM_RTOL * metrics["trace.wall_s"]:
        rounds.problems.append("self times do not add up to the traced wall time")
    untraced_wall = min(rounds.bare_walls)
    metrics["cli.points"] = rounds.work.points(rounds.first)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["time_to_se_1pct_s"] = time_to_se(untraced_wall, rounds.work.std_errs(rounds.first))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        work = workloads.WORKLOADS[name](seed, workdir)
        rounds = Rounds(work)
        setup_runs_s: list[float] = []

        # Whole rounds until they have run for the run length.  A traced run
        # alternates traced rounds with rounds under no wrapper at all, so
        # that both see the same machine, to measure the tracing overhead
        # and to compare outputs; a traced round goes first, so that no
        # bare round pays for the process's first, cold round.
        # An untraced run sets up once after each of its first rounds, so
        # that the median set-up time does not hang on one stretch of the
        # host's load; set-up time does not count towards the run length.
        start = time.perf_counter()
        while True:
            if trace:
                rounds.traced()
                rounds.bare()
            else:
                rounds.untraced()
                if len(setup_runs_s) < SETUP_REPEATS:
                    setup_runs_s.append(setup_seconds(name, seed, workdir))
            if time.perf_counter() - start - sum(setup_runs_s) >= seconds:
                break
        while not trace and len(setup_runs_s) < SETUP_REPEATS:
            setup_runs_s.append(setup_seconds(name, seed, workdir))

        flags = work.check(rounds.first)
        if len(rounds.digests) != 1:
            rounds.problems.append("outputs differ between rounds of one seed" + (" (traced vs untraced)" if trace else ""))

        if trace:
            metrics = per_layer(rounds)
            units = {k: ("count" if isinstance(v, int) else "s") for k, v in metrics.items()}
            units.update(RATIO_UNITS)
            write_spans(name, seed, rounds.tracers)
        else:
            metrics = {"setup_s": statistics.median(setup_runs_s), **rounds.end_to_end(), "peak_rss_mb": rounds.peak_rss_mb}
            units = END_TO_END_UNITS
        result = {
            "correct": not rounds.problems,
            "attempted": len(flags) * rounds.count,
            "failed": flags.count(False) * rounds.count,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        }
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "provenance": provenance(), "rounds": rounds.count, "untraced_round_walls_s": rounds.walls, "bare_round_walls_s": rounds.bare_walls,
            "untraced_round_calibrated_s": rounds.calibrated, "untraced_round_calibration_s": rounds.calibrations,
            "setup_runs_s": setup_runs_s,
            "problems": rounds.problems, **result,
        }
        if not trace:
            record["time_to_se_1pct_s"] = time_to_se(metrics["wall_s"], work.std_errs(rounds.first))
        (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
        for p in rounds.problems:
            print(f"{name}: {p}", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_spans(name: str, seed: int, tracers) -> None:
    """Every span of every traced round: [round, name, start_s, end_s, parent],
    times relative to that round's root span."""
    rows = []
    for r, tracer in enumerate(tracers):
        t0 = tracer.spans[0][1]
        rows += [[r, n, s - t0, e - t0, parent] for n, s, e, parent in tracer.spans]
    doc = {"workload": name, "seed": seed, "provenance": provenance(), "spans": rows}
    (OUT / f"{name}-seed{seed}.spans.json").write_text(json.dumps(doc) + "\n")


def print_result(name: str, result: dict) -> None:
    for k, m in result["metrics"].items():
        print(f"{name:<12} {k:<28} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:<12} operations attempted {result['attempted']}, failed {result['failed']}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= proc.returncode == 0 and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0, help="minimum measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dyncirc" / "__init__.py").is_file():
        print(f"error: no dyncirc source tree at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # one worker means one core: keep numpy's BLAS from starting threads of
    # its own (set before numpy is imported; set-up children inherit it)
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    if args.trace:
        overhead = result["metrics"]["trace.overhead_s"]["value"]
        print(f"{args.workload:<12} tracing overhead {overhead:.3f} s (traced wall_s minus untraced wall_s)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
