"""Child process of run.py: runs one workload and prints its raw results.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                    --trace 0|1 [--spans FILE]

The last line of standard output is one JSON object with the set-up
times, pass times and request latencies at reference speed, the raw pass
times, the check counts, the peak RSS and, when traced, the per-layer
values.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import cheralg
    if Path(cheralg.__file__).resolve().parent != ROOT / "src" / "cheralg":
        raise SystemExit(f"cheralg imported from {cheralg.__file__}, "
                         f"not from {ROOT / 'src'}")
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOAD_TYPES[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    out, timings = workloads.run(workload, args.seconds, tracer)
    layers = {}
    if tracer is not None:
        tracer.check_fired(args.workload)
        layers = tracer.layer_metrics()
        layers.update(out.layers)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps({
        **timings,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
