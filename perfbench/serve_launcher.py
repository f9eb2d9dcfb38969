"""Start one ``repro-serve`` instance for the benchmark, optionally traced.

Started by ``serve_load.py`` with a JSON spec as its only argument: the
source directory, the CPU to run on, the ``repro-serve`` arguments and, for
the traced run, where to write spans.  It imports the entry module
``repro.serve.cli``, reports when it started and finished that import,
installs the span wrappers if asked, and hands over to
``repro.serve.cli.main``.  After the service drains (SIGTERM) it writes
the spans and prints its peak RSS as its last line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, spec["src"])
    t_import = time.monotonic()
    import repro.serve.cli as cli

    t_imported = time.monotonic()
    print(json.dumps({"t_import": t_import, "t_imported": t_imported}), flush=True)
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    code = cli.main(spec["args"])
    if tracer is not None:
        tracer.dump(spec["trace"])
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
