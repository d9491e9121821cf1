"""One benchmark invocation in a fresh interpreter.

    python3 perfbench/child.py ROOT WORKLOAD SEED OUT_DIR RESULT_JSON MODE

MODE is ``run`` (call ``vanspec.cli.main``), ``trace`` (the same under span
tracing) or ``setup`` (stop just before the call).  Set-up is everything up
to the call into ``cli.main``: interpreter start, ``import vanspec`` and the
input generation.  The result file records the CLOCK_MONOTONIC time of that
call, so the parent can subtract its own spawn time.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    root, workload, seed, out_dir, result_path, mode = sys.argv[1:7]
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import vanspec
    from vanspec import cli

    if not os.path.abspath(vanspec.__file__).startswith(os.path.join(os.path.abspath(root), "src")):
        raise RuntimeError(f"imported vanspec from {vanspec.__file__}, not from {root}/src")
    import workloads

    argv = workloads.make_inputs(workload, int(seed), out_dir)
    result = {}
    rec = patches = None
    if mode == "trace":
        import tracing
        rec = tracing.Recorder()
        patches = tracing.install(rec)
    t_main = time.clock_gettime(time.CLOCK_MONOTONIC)
    result["main_at"] = t_main
    if mode != "setup":
        t0 = time.perf_counter()
        if rec is None:
            rc = cli.main(argv)
        else:
            try:
                rc = rec.span(tracing.ROOT, cli.main, argv)
            finally:
                tracing.restore(patches)
            result["spans"] = rec.spans
            result["ill_conditioned"] = rec.ill_conditioned
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
