"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR MODE SPANS_PATH

MODE is ``setup`` (stop after set-up), ``0`` (untraced run) or ``1``
(traced run; spans go to SPANS_PATH). Every run's outputs are checked
after it has been timed. The last line of standard output is
``@@result`` followed by one JSON object. ``operations`` in it is the
number of operations a run of the workload attempts; ``ready_at`` is
``time.monotonic()`` when set-up ended; the parent compares it with its own
monotonic clock from just before the spawn, which works because the
monotonic clock is system-wide.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import dpsan  # set-up is timed through these imports and the config below
import dpsan.cli

import workloads


def main(argv) -> int:
    workload, seed, out_dir, mode, spans_path = argv
    job = workloads.prepare(dpsan, workload, int(seed), Path(out_dir))
    result = {"ready_at": time.monotonic(), "dpsan_file": dpsan.__file__, "operations": job.operations}
    if mode != "setup":
        tracer = None
        if mode == "1":
            from tracer import Tracer
            tracer = Tracer().install(dpsan)
        try:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            try:
                result["run_s"] = job.run()
            finally:
                if tracer is not None:
                    tracer.uninstall()
            usage = resource.getrusage(resource.RUSAGE_SELF)
            result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
            result["minor_faults"] = usage.ru_minflt - faults
            result.update(job.check())
        except Exception:  # reported as a failed run, every operation counted
            result.update(attempted=job.operations, failed=job.operations, errors=[traceback.format_exc()])
        if tracer is not None:
            result["layers"] = tracer.self_times()
            result["counts"] = dict(tracer.counts)
            result["audit_grid"] = {str(g): v for g, v in tracer.audit_grid.items()}
            result["spans"] = tracer.span_count()
            tracer.write(spans_path)
    print("@@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
