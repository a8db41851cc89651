"""One benchmark iteration in a fresh interpreter.

Usage: python3 child.py REQUEST_JSON

REQUEST_JSON holds ``argv`` (passed to ``wnet.cli.main``), ``result`` (the
path this script writes its report to), ``trace`` (install the span
recorder) and ``import_only`` (stop after the import, used to warm caches).
The parent records the time just before it spawns this process; the
``ready`` time taken here right after ``import wnet.cli`` closes set-up.
"""

import json
import sys
import time


def run(request: dict, ready: float) -> None:
    import resource

    import wnet.cli

    report = {"ready": ready, "wnet_file": wnet.cli.__file__}
    if not request["import_only"]:
        recorder = None
        if request["trace"]:
            from spans import SpanRecorder

            recorder = SpanRecorder()
            report["missing_targets"] = recorder.install()
        start = time.perf_counter()
        report["exit_code"] = wnet.cli.main(request["argv"])
        report["wall_s"] = time.perf_counter() - start
        if recorder is not None:
            report["spans"] = recorder.spans
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    import wnet.cli  # noqa: F401  (set-up ends when this import returns)

    run(request, time.perf_counter())
