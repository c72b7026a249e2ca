"""Set-up time as a user pays it: a fresh interpreter gets ready to run a job.

``python3 -m perfbench.probe WORKLOAD [LIBRARY LOG]`` imports
``repro.cli.main`` and builds the job's state through public constructors —
a runner for ``build``; the fingerprint library and a
``StreamingAttackService`` over the pre-run results log for ``drain`` and
``resume`` — then prints ``{"import_s": ..., "setup_s": ...}``, both
measured from before the import.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import repro.cli.main  # noqa: F401 - the import is what is timed

    imported = time.perf_counter()
    workload = argv[0]
    if workload == "build":
        from repro.jobs import EventBus, GenerateJob, JobRunner, TrainJob

        JobRunner(EventBus())
        GenerateJob(output="dataset").validate()
        TrainJob(dataset="dataset", output="library.json").validate()
    else:
        from repro.core.fingerprint import FingerprintLibrary
        from repro.ingest.service import StreamingAttackService

        library_path, log_path = argv[1:]
        StreamingAttackService(
            library=FingerprintLibrary.load(library_path), log_path=log_path
        )
    ready = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": ready - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
