"""Seeded inputs for the benchmark's workloads, made by the code under test.

Everything here derives from the ``--seed`` argument through the program's
public functions: the viewer population and the capture corpus come from
``generate_population`` and the dataset writer (what ``GenerateJob`` runs),
the library from a ``TrainJob``, the reference verdicts from an
``AttackJob --results-log`` and the resumed history from ``verdict_line``.
Nothing here is timed.
"""

from __future__ import annotations

import io
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.core.pipeline import WhiteMirrorAttack
from repro.dataset import (
    DataPoint,
    DatasetWriter,
    IITMBandersnatchDataset,
    collect_dataset,
    generate_population,
)
from repro.dataset.collection import default_study_script
from repro.dataset.format import METADATA_FILENAME, load_dataset_metadata
from repro.exceptions import FingerprintError
from repro.ingest.log import CaptureVerdict, parse_results_log_bytes, verdict_line
from repro.jobs import AttackJob, EventBus, JobRunner, TrainJob
from repro.jobs.renderers import ConsoleRenderer
from repro.streaming.session import SessionConfig

#: Viewers (one capture each) in the corpus the drain workload attacks: more
#: captures average out how much their sizes differ from seed to seed.
DRAIN_VIEWERS = 10
#: Viewers in the resume corpus, half of them already in the log.
RESUME_VIEWERS = 8
#: Synthetic verdict lines already in the resumed results log.
HISTORY_LINES = 20_000
#: Population seeds tried, ``seed + k * SEED_STRIDE``, for one trainable corpus.
SEED_CANDIDATES = 16
SEED_STRIDE = 1_000_003


class NullStream(io.TextIOBase):
    """A text stream that discards what it is given."""

    def write(self, text: str) -> int:
        return len(text)


def quiet_bus(*sinks) -> EventBus:
    """A bus whose console renderer formats every event into nothing."""
    return EventBus(*sinks, ConsoleRenderer(NullStream()))


def trainable_population(seed: int, viewers: int) -> tuple[int, list[DataPoint]]:
    """The first candidate population seed whose dataset ``TrainJob`` accepts.

    Training refuses, by design, a calibration split that leaves an
    environment without a non-default choice (``FingerprintError``: there is
    no type-2 record to learn a band from), and small populations sometimes
    draw one.  So the benchmark walks a fixed sequence of candidate seeds
    and runs the train job's own computation on each, in memory: sessions
    are simulated, no pcap is written.  Returns the seed and its simulated
    data points, in population order.
    """
    graph = default_study_script()
    config = SessionConfig()
    for index in range(SEED_CANDIDATES):
        candidate = seed + index * SEED_STRIDE
        points = collect_dataset(
            generate_population(viewers, seed=candidate),
            dataset_seed=candidate,
            graph=graph,
            config=config,
        )
        dataset = IITMBandersnatchDataset(
            points=points, graph=graph, seed=candidate, config=config
        )
        train_points, _ = dataset.train_test_split(test_fraction=0.5)
        try:
            WhiteMirrorAttack(graph=graph).train([point.session for point in train_points])
        except FingerprintError:
            continue
        return candidate, points
    raise RuntimeError(f"no trainable {viewers}-viewer population near seed {seed}")


def trainable_seed(seed: int, viewers: int) -> int:
    """The population seed :func:`trainable_population` settles on."""
    return trainable_population(seed, viewers)[0]


@dataclass(frozen=True)
class Corpus:
    """A generated dataset, the library trained on it, and its capture sizes."""

    directory: Path
    library: Path
    #: Packets per capture file name.
    packets: dict[str, int]

    @property
    def traces(self) -> Path:
        return self.directory / "traces"


@dataclass(frozen=True)
class WatchInputs:
    """What one watch pass starts from and what its log must end as."""

    directory: Path
    library: Path
    packets: dict[str, int]
    #: Bytes of the results log before the pass (empty: no log at all).
    pre_log: bytes
    #: Bytes the results log must hold after the pass.
    expected_log: bytes


def make_corpus(work: Path, seed: int, viewers: int, sidecar: bool) -> Corpus:
    """Generate the seeded corpus and train its fingerprint library.

    This is ``GenerateJob``'s generation: the data points the seed search
    already simulated, in population order, through the dataset writer,
    with the choice of whether to build the columnar sidecar (the drain
    corpus has none, so its generation skips the sidecar's re-parse of
    every pcap).
    """
    seed, points = trainable_population(seed, viewers)
    directory = work / "corpus"
    library = work / "library.json"
    with DatasetWriter(
        directory,
        seed=seed,
        config=SessionConfig(),
        graph=default_study_script(),
        sidecar=sidecar,
    ) as writer:
        for point in points:
            writer.add(point)
    JobRunner(quiet_bus()).run(TrainJob(dataset=str(directory), output=str(library)))
    entries = load_dataset_metadata(directory)["entries"]
    packets = {
        Path(str(entry["trace_file"])).name: int(entry["packet_count"])
        for entry in entries
    }
    return Corpus(directory=directory, library=library, packets=packets)


def _reference_lines(work: Path, target: Path, library: Path) -> dict[str, str]:
    """``attack --results-log`` over ``target``: one line per capture name."""
    log = work / "reference.jsonl"
    JobRunner(quiet_bus()).run(
        AttackJob(target=str(target), library=str(library), results_log=str(log))
    )
    raw = log.read_bytes()
    verdicts, consumed = parse_results_log_bytes(raw, log)
    if consumed != len(raw) or len(verdicts) != len(raw.splitlines()):
        raise RuntimeError(f"reference results log {log} is not whole")
    return {verdict.capture: verdict_line(verdict) for verdict in verdicts}


def drain_inputs(work: Path, seed: int) -> WatchInputs:
    """A drop directory of a corpus's pcaps and metadata, with no sidecar."""
    corpus = make_corpus(work, seed, DRAIN_VIEWERS, sidecar=False)
    drop = work / "drop"
    drop.mkdir()
    for name in sorted(corpus.packets):
        shutil.copyfile(corpus.traces / name, drop / name)
    shutil.copyfile(corpus.directory / METADATA_FILENAME, drop / METADATA_FILENAME)
    reference = _reference_lines(work, drop, corpus.library)
    if sorted(reference) != sorted(corpus.packets):
        raise RuntimeError("the reference attack did not cover every capture")
    expected = "".join(reference[name] for name in sorted(reference))
    return WatchInputs(
        directory=drop,
        library=corpus.library,
        packets=corpus.packets,
        pre_log=b"",
        expected_log=expected.encode("utf-8"),
    )


def synthetic_history(
    rng: random.Random, templates: list[CaptureVerdict], count: int
) -> str:
    """``count`` valid verdict lines with distinct names and fingerprints."""
    lines = []
    for index in range(count):
        template = rng.choice(templates)
        choices = len(template.pattern)
        lines.append(
            verdict_line(
                CaptureVerdict(
                    capture=f"archive-{index:05d}.pcap",
                    fingerprint=f"{rng.getrandbits(256):064x}",
                    condition_key=template.condition_key,
                    client_ip=template.client_ip,
                    server_ip=template.server_ip,
                    pattern=tuple(rng.random() < 0.5 for _ in range(choices)),
                    truth=tuple(rng.random() < 0.5 for _ in range(choices)),
                )
            )
        )
    return "".join(lines)


def resume_inputs(work: Path, seed: int) -> WatchInputs:
    """A corpus's own traces, and a log holding history plus half its verdicts."""
    corpus = make_corpus(work, seed, RESUME_VIEWERS, sidecar=True)
    reference = _reference_lines(work, corpus.traces, corpus.library)
    if sorted(reference) != sorted(corpus.packets):
        raise RuntimeError("the reference attack did not cover every capture")
    rng = random.Random(f"perfbench-resume:{seed}")
    names = sorted(reference)
    settled = set(rng.sample(names, len(names) // 2))
    templates, _ = parse_results_log_bytes(
        "".join(reference[name] for name in names).encode("utf-8")
    )
    history = synthetic_history(rng, templates, HISTORY_LINES)
    pre_log = history + "".join(reference[name] for name in names if name in settled)
    fresh = "".join(reference[name] for name in names if name not in settled)
    return WatchInputs(
        directory=corpus.traces,
        library=corpus.library,
        packets=corpus.packets,
        pre_log=pre_log.encode("utf-8"),
        expected_log=(pre_log + fresh).encode("utf-8"),
    )
