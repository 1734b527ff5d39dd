"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE

run.py starts this with PYTHONPATH pointing at the checkout's src/.  The
workload "setup" only imports cubicode.  The last line of stdout is one
JSON object: the monotonic time at which `import cubicode` returned (run.py
subtracts its own start time to get setup_s), the time of the reference
job (reference.py) run right after that, the imported package path,
the peak resident set size of this process and its enumeration workers,
and for a real workload its result (see workloads.py) and, when TRACE is
1, its per-layer metrics.
"""

import time  # noqa: I001  - nothing but the clock may load before cubicode
import cubicode

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    import reference

    reference.run()  # the first run pays for first-touch page faults
    out = {"imported_at": IMPORTED_AT, "setup_reference_s": reference.run(), "package": cubicode.__file__}
    if workload != "setup":
        tracer = None
        if trace:
            import tracer as tracing

            tracer = tracing.install()
        from workloads import WORKLOADS

        out.update(WORKLOADS[workload](seed))
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer)
    out["peak_rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
