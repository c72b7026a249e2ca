"""Bad-input behaviour of every sub-command, driven through ``main()``.

Each case runs the real argv path end to end and pins the exit status and
the first stderr line — the contract scripts and CI greps rely on.  The
messages come from spec validation (:mod:`repro.jobs.specs`) and the job
runner, so these tests also pin that the jobs-layer refactor kept every
historical CLI error intact.
"""

from __future__ import annotations

import pytest

from repro.cli.main import main


@pytest.mark.parametrize(
    ("argv", "first_stderr_line"),
    [
        pytest.param(
            ["generate-dataset", "out", "--resume"],
            "error: --resume requires --shards (only sharded runs checkpoint)",
            id="generate-resume-without-shards",
        ),
        pytest.param(
            ["generate-dataset", "out", "--shard-workers", "2"],
            "error: --shard-workers requires --shards (only sharded runs fan "
            "whole shards out)",
            id="generate-shard-workers-without-shards",
        ),
        pytest.param(
            ["generate-dataset", "out", "--only-shards", "0"],
            "error: --only-shards requires --shards (the selection names "
            "shards of the full plan)",
            id="generate-only-shards-without-shards",
        ),
        pytest.param(
            ["stitch", "{tmp}/missing-root"],
            "error: {tmp}/missing-root is not a directory",
            id="stitch-missing-root",
        ),
        pytest.param(
            ["train", "{tmp}/missing-dataset", "lib.json"],
            "error: cannot load dataset metadata: [Errno 2] No such file or "
            "directory: '{tmp}/missing-dataset/metadata.json'",
            id="train-missing-dataset",
        ),
        pytest.param(
            ["train", "{tmp}/missing-dataset", "lib.json", "--train-fraction", "1.5"],
            "error: --train-fraction must be in (0, 1), got 1.5",
            id="train-fraction-out-of-range",
        ),
        pytest.param(
            ["train", "{tmp}/missing-dataset", "lib.json", "--save-state", "s.json"],
            "error: --save-state requires --sharded (accumulator state is the "
            "incremental training path's running calibration)",
            id="train-save-state-without-sharded",
        ),
        pytest.param(
            ["merge-fingerprints", "{tmp}/missing-state.json", "-o", "lib.json"],
            "error: cannot load accumulator state: [Errno 2] No such file or "
            "directory: '{tmp}/missing-state.json'",
            id="merge-missing-state",
        ),
        pytest.param(
            ["attack", "{tmp}/missing.pcap", "{tmp}/missing-lib.json"],
            "error: cannot determine the environment of {tmp}/missing.pcap: "
            "pass --environment or attack captures that sit next to their "
            "dataset metadata.json",
            id="attack-missing-pcap",
        ),
        pytest.param(
            [
                "attack",
                "{tmp}/missing.pcap",
                "{tmp}/missing-lib.json",
                "--results-log",
                "r.jsonl",
            ],
            "error: --results-log applies to directory targets; attack the "
            "capture's directory to log its verdict",
            id="attack-results-log-on-file-target",
        ),
        pytest.param(
            ["watch", "{tmp}/missing-drop", "--library", "{tmp}/missing-lib.json"],
            "error: capture drop directory {tmp}/missing-drop does not exist "
            "(create it before watching, or point at a dataset's traces/)",
            id="watch-missing-directory",
        ),
        pytest.param(
            ["reproduce", "--dataset", "{tmp}/ds", "--experiment", "table1"],
            "error: --dataset drives the headline experiment; combine it with "
            "--experiment headline (or all)",
            id="reproduce-dataset-wrong-experiment",
        ),
        pytest.param(
            ["inspect", "{tmp}/missing.pcap"],
            "error: cannot read pcap file {tmp}/missing.pcap: [Errno 2] No "
            "such file or directory: '{tmp}/missing.pcap'",
            id="inspect-missing-pcap",
        ),
        pytest.param(
            ["serve", "{tmp}/root", "{tmp}/lib.json", "--shards", "0"],
            "error: --shards must be at least 1 (the plan leases whole shards)",
            id="serve-zero-shards",
        ),
        pytest.param(
            ["serve", "{tmp}/root", "{tmp}/lib.json", "--viewers", "0"],
            "error: --viewers must be at least 1",
            id="serve-zero-viewers",
        ),
        pytest.param(
            ["serve", "{tmp}/root", "{tmp}/lib.json", "--lease-ttl", "0"],
            "error: --lease-ttl must be positive (seconds before a silent "
            "worker's unit is reassigned)",
            id="serve-zero-lease-ttl",
        ),
        pytest.param(
            ["work", "http://127.0.0.1:1", "--poll-interval", "0"],
            "error: --poll-interval must be positive",
            id="work-zero-poll-interval",
        ),
        pytest.param(
            ["work", "http://127.0.0.1:1", "--max-units", "0"],
            "error: --max-units must be at least 1",
            id="work-zero-max-units",
        ),
        pytest.param(
            ["watch", "--library", "lib.json"],
            "error: watch needs a drop directory: positional for the "
            "single-source mode, or --source (repeatable) for a fleet",
            id="watch-no-directory-no-source",
        ),
        pytest.param(
            ["watch", "{tmp}", "--source", "{tmp}", "--library", "lib.json"],
            "error: give either a positional drop directory or --source "
            "directories, not both",
            id="watch-directory-and-source",
        ),
        pytest.param(
            ["watch", "--source", "{tmp}", "--library", "lib.json"],
            "error: fleet mode needs --results-log: the sources share one "
            "results log, and with several drop directories there is no "
            "single place to default it into",
            id="watch-fleet-without-results-log",
        ),
        pytest.param(
            ["watch", "--source", "{tmp}", "--source", "{tmp}",
             "--library", "lib.json", "--results-log", "r.jsonl"],
            "error: duplicate --source directory {tmp}",
            id="watch-duplicate-source",
        ),
        pytest.param(
            ["watch", "--source", "{tmp}/missing-box",
             "--library", "lib.json", "--results-log", "r.jsonl"],
            "error: capture source {tmp}/missing-box does not exist "
            "(--source must name an existing directory)",
            id="watch-missing-source",
        ),
        pytest.param(
            ["watch", "--source", "{tmp}", "--library", "lib.json",
             "--results-log", "r.jsonl", "--queue-high", "0"],
            "error: --queue-high must be a positive capture count, got 0",
            id="watch-nonpositive-queue-high",
        ),
        pytest.param(
            ["watch", "--source", "{tmp}", "--library", "lib.json",
             "--results-log", "r.jsonl", "--queue-low", "-1"],
            "error: --queue-low must be >= 0, got -1",
            id="watch-negative-queue-low",
        ),
        pytest.param(
            ["watch", "--source", "{tmp}", "--library", "lib.json",
             "--results-log", "r.jsonl", "--queue-high", "4",
             "--queue-low", "4"],
            "error: --queue-high (4) must be greater than --queue-low (4) "
            "— the queue must drain below the low watermark before parked "
            "captures are promoted",
            id="watch-queue-high-not-above-low",
        ),
        pytest.param(
            ["watch", "--source", "{tmp}", "--library", "lib.json",
             "--results-log", "r.jsonl", "--metrics-port", "70000"],
            "error: --metrics-port must be a TCP port (0-65535), got 70000",
            id="watch-metrics-port-out-of-range",
        ),
        pytest.param(
            ["watch", "--source", "{tmp}", "--library", "lib.json",
             "--results-log", "r.jsonl",
             "--reload-library", "{tmp}/missing-stage.json"],
            "error: cannot read --reload-library {tmp}/missing-stage.json: "
            "[Errno 2] No such file or directory: "
            "'{tmp}/missing-stage.json'",
            id="watch-missing-reload-library",
        ),
    ],
)
def test_bad_input_exit_status_and_first_stderr_line(
    argv, first_stderr_line, tmp_path, capsys
):
    tmp = str(tmp_path)
    exit_code = main([part.format(tmp=tmp) for part in argv])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert captured.err.splitlines()[0] == first_stderr_line.format(tmp=tmp)


def test_overlapping_watch_sources_name_both_directories(tmp_path, capsys):
    # Needs a real nested directory, which the templated table can't mkdir.
    inner = tmp_path / "outer" / "inner"
    inner.mkdir(parents=True)
    exit_code = main(
        ["watch", "--source", str(tmp_path / "outer"), "--source", str(inner),
         "--library", "lib.json", "--results-log", "r.jsonl"]
    )
    assert exit_code == 1
    assert capsys.readouterr().err.splitlines()[0] == (
        f"error: --source directories overlap: {inner} is inside "
        f"{tmp_path / 'outer'} (captures there would be attributed to both "
        "sources)"
    )


def test_corrupt_reload_library_names_the_flag(tmp_path, capsys):
    source = tmp_path / "box"
    source.mkdir()
    stage = tmp_path / "stage.json"
    stage.write_text("{not a library")
    exit_code = main(
        ["watch", "--source", str(source), "--library", "lib.json",
         "--results-log", "r.jsonl", "--reload-library", str(stage)]
    )
    assert exit_code == 1
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith(
        f"error: --reload-library {stage} is not a loadable fingerprint "
        "library:"
    )


def test_unknown_log_format_rejected_by_argparse(tmp_path, capsys):
    # argparse itself polices the renderer choice (exit code 2, usage on
    # stderr) — a typo never reaches the runner.
    with pytest.raises(SystemExit) as excinfo:
        main(["--log-format", "xml", "inspect", str(tmp_path / "x.pcap")])
    assert excinfo.value.code == 2
    assert "--log-format" in capsys.readouterr().err
