"""One fresh process of a figure workload: set up, run its passes, report.

Started by ``run.py`` with a JSON spec as its only argument.  It imports
the entry module ``repro.experiments.cli``, opens the result store, then
runs its passes back to back until they have lasted ``min_seconds``: each
pass calls ``repro.experiments.cli.main`` once per argument list, exactly
as ``repro-experiments run ...`` would, into its own output directory.
The last line it prints is one JSON object: monotonic timestamps of each
step, the sha256 of every CSV each pass wrote, exit codes, store size and
peak RSS.  With a trace path in the spec it also installs the span
wrappers after set-up, writes the spans there and verifies the store.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, spec["src"])
    t_import = time.monotonic()
    import repro.experiments.cli as cli
    from repro.store.cache import ResultStore

    t_store = time.monotonic()
    ResultStore(spec["cache"])
    t_ready = time.monotonic()

    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    passes = []
    log = io.StringIO()
    for todo in spec["passes"]:
        if passes and passes[-1]["t_done"] - passes[0]["t_pass"] >= spec["min_seconds"]:
            break
        os.makedirs(todo["outdir"])
        codes = []
        t_pass = time.monotonic()
        for argv in todo["argv"]:
            with contextlib.redirect_stdout(log):
                codes.append(cli.main(argv))
        t_done = time.monotonic()
        csvs = {}
        for name in sorted(os.listdir(todo["outdir"])):
            with open(os.path.join(todo["outdir"], name), "rb") as fh:
                csvs[name] = hashlib.sha256(fh.read()).hexdigest()
        passes.append({"t_pass": t_pass, "t_done": t_done, "codes": codes, "csv_sha256": csvs})

    store = ResultStore(spec["cache"])
    corrupt = None
    if tracer is not None:
        tracer.dump(spec["trace"])
        corrupt = len(store.verify())
    print(json.dumps({
        "t_import": t_import,
        "t_store": t_store,
        "t_ready": t_ready,
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "store_bytes": store.total_bytes(),
        "store_corrupt": corrupt,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
