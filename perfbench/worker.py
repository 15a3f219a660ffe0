"""One campaign in a fresh process: set up, run the CLI, report timings.

Usage (started by run.py, one process per campaign):

    python3 perfbench/worker.py SPAWN_TIME SRC_DIR SPEC_JSON COMMAND OUT_CSV RESULT_JSON TRACE

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared between processes, so set-up time
counts interpreter start-up.  Set-up is ``import cfolab``, resolving the
spec from JSON and building the cbts (and, if used, rs) training.  The
campaign is ``cfolab.cli.main`` from the call until the CSV is written.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    spawn_time = float(argv[0])
    src, spec_path, command, out_csv, result_path = argv[1:6]
    trace = argv[6] == "1"
    sys.path.insert(0, src)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)

    import cfolab
    from cfolab import cli, harness, training
    from cfolab.numerics import RandomSource

    if not os.path.abspath(cfolab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"cfolab imported from {cfolab.__file__}, not from {src}")
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = harness.spec_from_json(json.load(fh))
    training.build_training(spec.config, "cbts")
    if any(e.startswith("simplified_rs") for e in spec.estimators):
        training.build_training(spec.config, "rs", RandomSource(spec.seed))
    setup_end = time.monotonic()

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        missing = tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        status = cli.main([command, "--config", spec_path, "--out", out_csv])
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        restored = tracer.restore() if tracer is not None else None
    result = {
        "status": status,
        "setup_s": setup_end - spawn_time,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import count_within, summary
        result["restored"] = restored
        result["missing"] = missing
        result["layers"] = summary(tracer.spans)
        result["points_within"] = {
            parent: count_within(tracer.spans, "estimator.likelihood", parent)
            for parent in ("estimator.estimate_ml_grid", "estimator.estimate_simplified")}
        result["spans"] = [(s.span_id, s.parent, s.layer, s.start - t0, s.end - t0, s.count)
                           for s in tracer.spans]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
