"""One benchmark process: import zetasteps, run the cold pass, then the warm
pass, report, then check the outputs.

Invoked by run.py as ``python3 bench/child.py SPEC_JSON`` from the checkout
root.  Only `os` and `sys` are imported before zetasteps, and the line
"ready" is printed the moment the import is done, so the parent can time
set-up from process start.  Nothing that touches zetasteps runs between the
import and the cold pass: no table is grown and no cache is filled ahead of
it.  Each pass is bracketed by calibration runs (see calibrate.py).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import zetasteps  # noqa: E402

print("ready", flush=True)

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from calibrate import calibrate  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    _, run_pass, check = workloads.WORKLOADS[spec["workload"]]
    report = {"attempted": 0, "failed": 0, "failures": []}
    outputs = []
    tr = None
    if spec["traced"]:
        import tracer

        tr = tracer.install()
    try:
        cal = [calibrate()]
        report["setup_cal_s"] = cal[0]
        for phase in ("cold",) if tr else ("cold", "warm"):
            if tr:
                tr.start()
            w0, c0 = time.perf_counter(), time.process_time()
            out = run_pass(zetasteps, spec[phase], spec[f"{phase}_dir"])
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if tr:
                tr.stop()
            cal.append(calibrate())
            report[f"{phase}_wall_s"] = wall
            report[f"{phase}_cpu_s"] = cpu
            report[f"{phase}_cal_s"] = 0.5 * (cal[-2] + cal[-1])
            outputs.append((spec[phase], out))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tr:
            report.update(trace=tr.metrics(), untraced_s=tr.untraced_s(), absent=tr.absent)
    except Exception:  # a pass that raises is a failed output, reported to the parent
        report["attempted"] += 1
        report["failed"] += 1
        report["failures"].append(traceback.format_exc(limit=3))
    for inp, out in outputs:
        try:
            attempted, failures = check(inp, out)
        except Exception:
            attempted, failures = 1, [traceback.format_exc(limit=3)]
        report["attempted"] += attempted
        report["failed"] += len(failures)
        report["failures"] += failures
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
