"""The measured process: run one workload's passes and record what they did.

``python3 -m perfbench.measure CONFIG RESULT`` reads a JSON config written
by :mod:`perfbench.run`, runs passes of the workload's jobs in this one
process (serially, no worker processes) until the time and sample floors
are met, and writes raw per-pass observations to RESULT.  It runs apart from
the process that made the inputs so that its peak resident memory is the
jobs' own.  With tracing on, traced and untraced passes alternate; only
untraced passes feed end-to-end metrics.

Set-up probes (:mod:`perfbench.probe`, each a fresh interpreter this process
waits for) run between passes rather than in one burst, so that their median
is not set by a few seconds in which the shared host happens to be slow.
The calibration kernel (:mod:`perfbench.calibrate`) is timed inside every
untraced pass, which records the timings as ``kernel_s`` and leaves their
time out of its own, and before and after every probe, which records both
as ``kernel_s``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from repro.dataset.format import snapshot_dataset_files
from repro.ingest.service import SKIP_ALREADY_ATTACKED
from repro.jobs import GenerateJob, JobRunner, TrainJob, WatchJob
from repro.jobs import events as ev

from perfbench.calibrate import HostSampler, calibrate
from perfbench.inputs import quiet_bus
from perfbench.tracing import Tracer

#: Hard cap on measuring, whatever the floors say.
MAX_MEASURE_SECONDS = 90.0
PROBE_TIMEOUT_S = 60


class PassEvents:
    """Event sink recording what one pass's jobs reported, and when."""

    def __init__(self, sampler: HostSampler) -> None:
        self.sampler = sampler
        self.verdict_times: list[float] = []
        self.captures: list[str] = []
        self.correct = 0
        self.questions = 0
        self.skips: list[str] = []
        self.packets_written = 0

    def handle(self, event: ev.JobEvent) -> None:
        if event.kind == ev.VERDICT:
            self.verdict_times.append(self.sampler.clock())
            self.captures.append(str(event.data["capture"]))
            self.correct += int(event.data["correct"])
            self.questions += int(event.data["questions"])
            self.sampler.sample()
        elif event.kind == ev.PROGRESS:
            self.sampler.sample()
        elif event.kind == ev.CAPTURE_SKIPPED:
            self.skips.append(str(event.data["reason"]))
        elif event.kind == ev.DATASET_SUMMARY:
            self.packets_written += int(event.data["packets"])

    def skip_counts(self) -> dict[str, int]:
        """Skips of settled captures, and skips for any error."""
        settled = sum(reason == SKIP_ALREADY_ATTACKED for reason in self.skips)
        return {"skipped_settled": settled, "skipped_error": len(self.skips) - settled}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for relative, data in sorted(snapshot_dataset_files(directory).items()):
        digest.update(relative.encode("utf-8") + b"\0")
        digest.update(_sha256(data).encode("ascii"))
    return digest.hexdigest()


def build_pass(config: dict, index: int, tracer: Tracer | None) -> dict:
    """Generate the seeded dataset, then train on it (unsharded) a few times.

    Training is short against generation, so one pass repeats it for enough
    samples; every repeat must write the same library bytes.  The host's
    speed is sampled after every generated session and around every train
    job.
    """
    root = Path(config["work"]) / f"build-{index}"
    dataset = root / "dataset"
    library = root / "library.json"
    sampler = HostSampler(enabled=tracer is None)
    events = PassEvents(sampler)
    runner = JobRunner(quiet_bus(events))
    sampler.sample()
    start = sampler.clock()
    runner.run(
        GenerateJob(output=str(dataset), viewers=config["viewers"], seed=config["seed"])
    )
    generated = sampler.clock()
    observed = {
        "generate_s": generated - start,
        "train_s": [],
        "library_sha256": [],
        "captures": config["viewers"],
        "packets": events.packets_written,
        "dataset_sha256": _tree_digest(dataset),
        "kernel_s": sampler.samples,
    }
    simulated_before = tracer.totals["engine.session_plan"][0] if tracer else 0
    for _ in range(config["train_repeats"]):
        library.unlink(missing_ok=True)
        sampler.sample()
        start = sampler.clock()
        runner.run(TrainJob(dataset=str(dataset), output=str(library)))
        observed["train_s"].append(sampler.clock() - start)
        observed["library_sha256"].append(_sha256(library.read_bytes()))
    sampler.sample()
    if tracer is not None:
        observed["train_sessions_simulated"] = (
            tracer.totals["engine.session_plan"][0] - simulated_before
        )
    observed["wall_s"] = observed["generate_s"] + sum(observed["train_s"])
    observed.update(events.skip_counts())
    shutil.rmtree(root)
    return observed


def watch_pass(config: dict, index: int, tracer: Tracer | None) -> dict:
    """One ``watch --once`` drain of the workload's directory."""
    log = Path(config["work"]) / "watch.jsonl"
    pre_log = Path(config["pre_log"])
    if pre_log.stat().st_size:
        shutil.copyfile(pre_log, log)
    else:
        log.unlink(missing_ok=True)
    sampler = HostSampler(enabled=tracer is None)
    events = PassEvents(sampler)
    runner = JobRunner(quiet_bus(events))
    sampler.sample()
    start = sampler.clock()
    runner.run(
        WatchJob(
            directory=config["directory"],
            library=config["library"],
            follow=False,
            results_log=str(log),
        )
    )
    end = sampler.clock()
    marks = [start, *events.verdict_times]
    written = log.read_bytes()
    return {
        "wall_s": end - start,
        "captures": len(events.captures),
        # Every capture in the directory is covered: attacked, or hashed and
        # found settled.
        "packets": config["packets"],
        "scanned": config["captures"],
        "gaps_s": [later - earlier for earlier, later in zip(marks, marks[1:])],
        "correct": events.correct,
        "questions": events.questions,
        **events.skip_counts(),
        "log_sha256": _sha256(written),
        "prefix_sha256": _sha256(written[: pre_log.stat().st_size]),
        "kernel_s": sampler.samples,
    }


def probe(config: dict) -> dict:
    """Time set-up once in a fresh interpreter, and the host's speed around it."""
    arguments = [config["workload"]]
    if config["workload"] != "build":
        pre_log = Path(config["pre_log"])
        log = Path(config["work"]) / "probe.jsonl"
        log.unlink(missing_ok=True)
        if pre_log.stat().st_size:
            shutil.copyfile(pre_log, log)
        arguments += [config["library"], str(log)]
    before = calibrate()
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.probe", *arguments],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
    observed = json.loads(completed.stdout.strip().splitlines()[-1])
    observed["kernel_s"] = [before, calibrate()]
    return observed


def peak_rss_mb() -> float:
    """This process's peak resident memory, in MiB.

    On Linux this is ``VmHWM``, the high-water mark of this program's own
    address space: ``ru_maxrss`` also counts the parent's peak, which
    ``exec`` carries over, and the parent holds the inputs it generated.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _enough(config: dict, passes: list[dict], elapsed: float) -> bool:
    """Whether the measured passes meet the run's time and pass floors."""
    untraced = [observed for observed in passes if not observed["traced"]]
    if elapsed < config["seconds"] or len(untraced) < config["min_passes"]:
        return elapsed >= MAX_MEASURE_SECONDS
    return not config["trace"] or any(observed["traced"] for observed in passes)


def _traced(tracer: Tracer, run, config: dict, index: int) -> dict:
    tracer.reset()
    tracer.install()
    try:
        observed = run(config, index, tracer)
    finally:
        tracer.uninstall()
    observed["layers"] = tracer.snapshot()
    return observed


def measure(config: dict) -> dict:
    """Run passes until the floors are met; return every pass's observations."""
    run = build_pass if config["workload"] == "build" else watch_pass
    tracer = Tracer() if config["trace"] else None
    passes: list[dict] = []
    probes: list[dict] = []
    result: dict = {"passes": passes, "probes": probes, "error": None}
    try:
        for index in range(config["warmup_passes"]):
            observed = run(config, index, None)
            observed.update(traced=False, warmup=True)
            passes.append(observed)
        measured: list[dict] = []
        elapsed = 0.0
        while not _enough(config, measured, elapsed):
            index = len(passes)
            traced = tracer is not None and len(measured) % 2 == 1
            start = time.perf_counter()
            observed = _traced(tracer, run, config, index) if traced else run(
                config, index, None
            )
            elapsed += time.perf_counter() - start
            observed.update(traced=traced, warmup=False)
            passes.append(observed)
            measured.append(observed)
            for _ in range(config["probes_per_pass"]):
                if len(probes) < config["setup_probes"]:
                    probes.append(probe(config))
        while len(probes) < config["setup_probes"]:
            probes.append(probe(config))
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the run
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main(argv: list[str]) -> int:
    config_path, result_path = argv
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    result = measure(config)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
