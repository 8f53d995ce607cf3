"""Run ``nielsencalc.cli.main`` under the benchmark's span wrappers.

Usage: cli_child.py '<JSON list of argv lists>'

Times ``import nielsencalc.cli`` first, before anything else is
imported, then runs main() on each argv with stdout captured and stderr
discarded, and prints one JSON object: the import time, the
(exit code, stdout) of each call, and the recorded spans and counts.
"""

import sys
import time

start = time.perf_counter_ns()
import nielsencalc.cli as cli  # noqa: E402
import_ns = time.perf_counter_ns() - start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

from spans import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    results = []
    with open(os.devnull, "w") as devnull:
        for k, argv in enumerate(json.loads(sys.argv[1])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(devnull):
                code = tracer.run_op(k, cli.main, argv)
            results.append([code, out.getvalue()])
    tracer.uninstall()
    json.dump({"import_ns": import_ns, "results": results,
               "spans": tracer.spans, "counts": tracer.counts}, sys.stdout)


if __name__ == "__main__":
    main()
