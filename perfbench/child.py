"""One cold client call: a fresh interpreter imports nakayama and runs the CLI.

Usage: python3 perfbench/child.py MODE TRACE_PATH CLI_ARG...

MODE is ``setup`` (import only), ``run`` (one ``nakayama.cli.main`` call)
or ``trace`` (the same call with the span tracer installed; the spans go
to TRACE_PATH).  The CLI's JSON goes to standard output untouched.  The
last line of standard error is ``PERFBENCH <json>`` with the moment the
import finished on the shared monotonic clock, the wall and CPU time of
the call, and the peak resident set of this process.
"""

import json
import os
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def main() -> int:
    mode, trace_path, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, SRC)
    import nakayama.cli

    ready = time.monotonic()
    if not nakayama.__file__.startswith(SRC + os.sep):
        sys.stderr.write(f"imported nakayama from {nakayama.__file__}, "
                         f"not from {SRC}\n")
        return 3
    report = {"ready": ready}
    code = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = nakayama.cli.main(cli_args + ["--json"])
        sys.stdout.flush()
        report["wall_s"] = time.perf_counter() - wall0
        report["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            report["layers"] = tracer.summary()
            report["absent"] = tracer.absent
            tracer.write(trace_path)
    import resource  # here, so that set-up time covers only the package

    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write("PERFBENCH " + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
