"""Program process of the benchmark: ``python3 perfbench/worker.py JOB.json``.

Started by ``run.py`` with ``PYTHONPATH=src``.  The first thing it does is
time the import of the workload's entry module (one ``setup_s`` sample),
before numpy or any benchmark module is loaded.  Then it runs the job's
in-process loops (untraced: one workload step per ``step`` line on stdin)
and prints one JSON line.
"""

import importlib
import json
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    start = time.perf_counter()
    importlib.import_module(job["entry"])
    import_s = time.perf_counter() - start

    import loops

    result = loops.trace_run(job) if job["trace"] else loops.serve(job)
    print(json.dumps({"import_s": import_s, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
