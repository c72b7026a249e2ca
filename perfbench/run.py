"""The repository's end-to-end benchmark: build, drain and resume.

Run from the repository root::

    python3 perfbench/run.py --workload drain --seed 3 --seconds 10 --trace 0

``build`` generates a seeded dataset and trains on it; ``drain`` runs
``watch --once`` over a drop directory of a seeded corpus with no sidecar;
``resume`` runs it over the corpus's own traces behind a results log that
already holds a long synthetic history (see ``perfbench/design.json`` for
why each exists and what it should move).  Inputs come only from
``--seed``.  All load comes from one process, serially.

Each run sets up its inputs untimed, then measures passes of the jobs in a
separate process (:mod:`perfbench.measure`) for at least ``--seconds``,
timing set-up in fresh interpreters (:mod:`perfbench.probe`) between
passes.  Every pass is checked: a build must reproduce the same dataset
tree and library bytes on every pass, a drain must write exactly the log
``attack --results-log`` writes over the same pcaps, and a resume must leave
the history untouched and append exactly the reference lines of the fresh
captures.  With ``--trace 1`` traced and untraced passes alternate, and the
traced ones must meet the layer-coverage predictions.

End-to-end times are in reference seconds: the measured process also times
a short fixed calibration loop inside every pass, after each verdict or
generated session, and around every set-up probe (:mod:`perfbench.calibrate`),
and rescales each wall time by the median of the timings taken while it ran,
so that a shared host running slower or faster for a while moves the figures
less.  The human-readable lines give the loop's median time and the raw
wall-clock medians as well.

Human-readable lines come first; the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics untraced, per-layer metrics traced).  A failed check
prints no number and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not __package__:
    # Run as a script: import this directory as the package, never by its
    # bare module names.
    sys.path[:] = [str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != BENCH
    ]

from perfbench.calibrate import REFERENCE_KERNEL_S, reference_seconds  # noqa: E402
from perfbench.stats import overhead_ratio, reportable_percentiles  # noqa: E402

SOURCE = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("build", "drain", "resume")
#: Viewers the build workload generates and trains on, per pass, and how
#: many times a pass repeats the (short) train job.
BUILD_VIEWERS = 8
BUILD_TRAIN_REPEATS = 2
#: Untraced passes a run needs at least, so the build gate has passes to
#: compare.
MIN_PASSES = 2
#: Fresh interpreters timed for set-up, spread between passes; the median
#: is reported.
SETUP_PROBES = 5
#: The measured process's limit; inputs take about 20 s more, and a run
#: must end within 180 s.
MEASURE_TIMEOUT_S = 130

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "packets_per_ref_s": "packets/ref_s",
    "captures_per_ref_s": "captures/ref_s",
}


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its suffix."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def prepare(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, dict]:
    """Make the run's inputs; returns the measurement config and expectations."""
    from perfbench import inputs  # imports the program, so only once it exists

    measure_dir = work / "measure"
    measure_dir.mkdir(parents=True)
    config = {
        "workload": workload,
        "work": str(measure_dir),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_probes": SETUP_PROBES,
    }
    if workload == "build":
        config.update(
            seed=inputs.trainable_seed(seed, BUILD_VIEWERS),
            viewers=BUILD_VIEWERS,
            train_repeats=BUILD_TRAIN_REPEATS,
            warmup_passes=0,
            probes_per_pass=2,
            min_passes=1 if trace else MIN_PASSES,
        )
        return config, {}
    if workload == "drain":
        watch = inputs.drain_inputs(work, seed)
    else:
        watch = inputs.resume_inputs(work, seed)
    pre_log = work / "pre.jsonl"
    pre_log.write_bytes(watch.pre_log)
    config.update(
        directory=str(watch.directory),
        library=str(watch.library),
        captures=len(watch.packets),
        packets=sum(watch.packets.values()),
        pre_log=str(pre_log),
        warmup_passes=1,
        probes_per_pass=1,
        min_passes=1 if trace else MIN_PASSES,
    )
    expected = {
        "log_sha256": _sha256(watch.expected_log),
        "prefix_sha256": _sha256(watch.pre_log),
        "captures": len(watch.packets),
        "fresh": watch.expected_log.count(b"\n") - watch.pre_log.count(b"\n"),
    }
    return config, expected


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def measure(config: dict, work: Path) -> dict:
    """Run :mod:`perfbench.measure` on ``config``; returns its observations."""
    config_path = work / "measure.json"
    result_path = work / "result.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), str(ROOT), *filter(None, [environment.get("PYTHONPATH")])]
    )
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "perfbench.measure", str(config_path), str(result_path)],
            cwd=ROOT,
            env=environment,
            capture_output=True,
            text=True,
            timeout=MEASURE_TIMEOUT_S,
            check=False,
        )
        error = completed.stderr or f"exit code {completed.returncode}"
    except subprocess.TimeoutExpired:
        error = f"the measured process ran past {MEASURE_TIMEOUT_S} s and was killed"
    if not result_path.exists():
        return {"passes": [], "probes": [], "peak_rss_mb": 0.0, "error": error}
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_outputs(workload: str, passes: list[dict], expected: dict) -> list[str]:
    """The correctness gates: what every pass must have written."""
    failures = []
    if workload == "build":
        if len(passes) < 2:
            failures.append("build: fewer than two passes to compare")
        datasets = {observed["dataset_sha256"] for observed in passes}
        libraries = {
            digest for observed in passes for digest in observed["library_sha256"]
        }
        if len(datasets) > 1:
            failures.append("build: the dataset tree differs between passes of one seed")
        if len(libraries) > 1:
            failures.append("build: the library bytes differ between train jobs of one seed")
        return failures
    for index, observed in enumerate(passes):
        if observed["prefix_sha256"] != expected["prefix_sha256"]:
            failures.append(f"{workload} pass {index}: the pre-run log was altered")
        elif observed["log_sha256"] != expected["log_sha256"]:
            failures.append(
                f"{workload} pass {index}: the results log differs from the "
                "reference attack's lines"
            )
        if observed["captures"] != expected["fresh"]:
            failures.append(
                f"{workload} pass {index}: {observed['captures']} fresh verdicts, "
                f"expected {expected['fresh']}"
            )
    return failures


def layer_metrics(observed: dict) -> dict[str, float]:
    """One traced pass's per-layer metrics, with the derived counts and ratios."""
    layers = dict(observed["layers"])
    lookups = layers["dataset.sidecar_lookup.calls"]
    layers["dataset.sidecar_hit_ratio"] = (
        layers["dataset.sidecar_lookup.hits"] / lookups if lookups else 0.0
    )
    simulated = observed.get("train_sessions_simulated", 0)
    train_jobs = len(observed.get("train_s", ()))
    layers["engine.train_sessions_simulated"] = (
        simulated / train_jobs if train_jobs else 0
    )
    layers["train.useful_ratio"] = (
        layers["core.train.sessions"] / simulated if simulated else 0.0
    )
    layers["ingest.skipped_settled"] = observed["skipped_settled"]
    layers["ingest.skipped_error"] = observed["skipped_error"]
    return layers


def per_layer(traced: list[dict], untraced: list[dict], probes: list[dict]) -> dict[str, float]:
    """Per-layer metrics: the median over traced passes, plus run-wide ones."""
    passes = [layer_metrics(observed) for observed in traced]
    metrics = {name: statistics.median([layers[name] for layers in passes]) for name in passes[0]}
    metrics["cli.import_s"] = statistics.median([probe["import_s"] for probe in probes])
    metrics["trace.overhead_ratio"] = overhead_ratio(
        statistics.median([observed["wall_s"] for observed in traced]),
        statistics.median([observed["wall_s"] for observed in untraced]),
    )
    return metrics


def check_coverage(
    workload: str, traced: list[dict], metrics: dict[str, float], expected: dict, design: dict
) -> list[str]:
    """The traced run's layer-coverage self-check, on every traced pass."""
    exact: dict[str, float] = {}
    if workload == "build":
        exact["engine.train_sessions_simulated"] = BUILD_VIEWERS
    elif workload == "drain":
        exact["dataset.sidecar_lookup.hits"] = 0
        exact["net.pcap_read.calls"] = expected["captures"]
    else:
        exact["net.pcap_read.calls"] = 0
        exact["dataset.sidecar_lookup.hits"] = expected["fresh"]
        exact["ingest.hash.calls"] = expected["captures"]
    failures = []
    for observed in traced:
        layers = {**metrics, **layer_metrics(observed)}
        for layer in design["layers"]:
            value = layers[layer["counter"]]
            if workload in layer["fires_on"] and not value > 0:
                failures.append(f"{workload}: {layer['counter']} never fired")
            if workload in layer["zero_on"] and value != 0:
                failures.append(f"{workload}: {layer['counter']} = {value}, predicted 0")
        for name, want in exact.items():
            if layers[name] != want:
                failures.append(f"{workload}: {name} = {layers[name]}, predicted {want}")
    return failures


def end_to_end_samples(
    workload: str, untraced: list[dict], probes: list[dict]
) -> dict[str, list[float]]:
    """The samples each timed end-to-end metric is the median of.

    Every time is in reference seconds: its wall time rescaled by how fast
    the host ran meanwhile, the median ``kernel_s`` timed during the pass or
    around the probe (see :mod:`perfbench.calibrate`).
    """

    def ref(wall_s: float, observed: dict) -> float:
        return reference_seconds(wall_s, statistics.median(observed["kernel_s"]))

    if workload == "build":
        packets = [p["packets"] / ref(p["generate_s"], p) for p in untraced]
    else:
        packets = [p["packets"] / ref(p["wall_s"], p) for p in untraced]
    return {
        "setup_s": [ref(probe["setup_s"], probe) for probe in probes],
        "packets_per_ref_s": packets,
        "captures_per_ref_s": [p["captures"] / ref(p["wall_s"], p) for p in untraced],
    }


def report_lines(
    workload: str,
    untraced: list[dict],
    samples: dict[str, list[float]],
    metrics: dict[str, float],
    attempted: int,
    failed: int,
) -> list[str]:
    """The human-readable report of an untraced run, with sample counts."""
    lines = [f"workload {workload}: {len(untraced)} untraced passes"]
    for name, value in metrics.items():
        count = f"median, n={len(samples[name])}" if name in samples else "peak"
        lines.append(f"  {name:<18} {value:.6g} {END_TO_END_UNITS[name]} ({count})")
    kernel_s = [value for p in untraced for value in p["kernel_s"]]
    lines.append(
        f"  kernel_ms          {statistics.median(kernel_s) * 1e3:.6g} ms (median in passes,"
        f" n={len(kernel_s)}; {REFERENCE_KERNEL_S * 1e3:g} ms at reference speed)"
    )
    if workload == "build":
        generate_s = [p["generate_s"] for p in untraced]
        train_s = [value for p in untraced for value in p["train_s"]]
        lines.append(f"  generate_s         {statistics.median(generate_s):.6g} s (median, n={len(generate_s)})")
        lines.append(f"  train_s            {statistics.median(train_s):.6g} s (median, n={len(train_s)})")
    else:
        wall_s = [p["wall_s"] for p in untraced]
        lines.append(f"  wall_s             {statistics.median(wall_s):.6g} s (median, n={len(wall_s)})")
        gaps = [gap for p in untraced for gap in p["gaps_s"]]
        for q, value in reportable_percentiles(gaps).items():
            name = f"verdict_p{q:g}_ms"
            lines.append(f"  {name:<18} {value * 1e3:.6g} ms (n={len(gaps)})")
        questions = sum(p["questions"] for p in untraced)
        correct = sum(p["correct"] for p in untraced)
        lines.append(
            f"  choice_accuracy    {correct / questions:.6g} ({correct}/{questions} questions)"
        )
    lines.append(f"  failed_fraction    {failed / attempted:.6g} ({failed}/{attempted} attempted)")
    return lines


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, list[str]]:
    """Prepare, measure and check one run; returns the JSON result and report."""
    design = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))
    config, expected = prepare(workload, seed, seconds, trace, work)
    result = measure(config, work)
    passes = result["passes"]
    measured = [p for p in passes if not p["warmup"]]
    untraced = [p for p in measured if not p["traced"]]
    traced = [p for p in measured if p["traced"]]
    per_pass = "captures" if workload == "build" else "scanned"
    attempted = sum(p[per_pass] for p in measured)
    failed = sum(p["skipped_error"] for p in measured)
    failures = []
    if result["error"] is not None:
        attempted = max(attempted, 1)
        failed = attempted
        failures.append(f"{workload}: a job raised:\n{result['error']}")
    failures += check_outputs(workload, passes, expected)
    if failed:
        failures.append(f"{workload}: {failed} of {attempted} attempts failed")
    if trace and not failures:
        if traced and untraced:
            metrics = per_layer(traced, untraced, result["probes"])
            failures += check_coverage(workload, traced, metrics, expected, design)
        else:
            failures.append(f"{workload}: a traced run needs traced and untraced passes")
    if failures:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, failures
    if trace:
        lines = [f"workload {workload}: {len(traced)} traced, {len(untraced)} untraced passes"]
        lines += [f"  {name:<40} {value:.6g} {layer_unit(name)}" for name, value in metrics.items()]
        units = {name: layer_unit(name) for name in metrics}
    else:
        samples = end_to_end_samples(workload, untraced, result["probes"])
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "packets_per_ref_s": statistics.median(samples["packets_per_ref_s"]),
            "captures_per_ref_s": statistics.median(samples["captures_per_ref_s"]),
        }
        lines = report_lines(workload, untraced, samples, metrics, attempted, failed)
        units = END_TO_END_UNITS
    output = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return output, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {SOURCE / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SOURCE))
    work = WORK_ROOT / f"{arguments.workload}-{arguments.seed}-{os.getpid()}"
    try:
        output, lines = run(
            arguments.workload,
            arguments.seed,
            arguments.seconds,
            bool(arguments.trace),
            work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it never existed
    stream = sys.stdout if output["correct"] else sys.stderr
    for line in lines:
        print(line, file=stream)
    print(json.dumps(output))
    return 0 if output["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
