"""One `maxhom.harness.run` call in a fresh process.

Usage: python3 child.py --src <dir> --config <file> --out <dir> --trace <0|1>

Prints one JSON line: run_s (wall time of the harness.run call), the
monotonic clock when `homogenize` returned (the parent subtracts its spawn
time to get setup_s), user+sys CPU seconds and ru_maxrss of this process,
taken before anything else runs, and with --trace 1 the per-layer metrics.
An expected numerical failure is reported as "error"; anything else raises.
"""

import argparse
import json
import os
import resource
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import maxhom
    if not os.path.abspath(maxhom.__file__).startswith(src + os.sep):
        sys.exit(f"maxhom imported from {maxhom.__file__}, not from {src}")
    from maxhom import cells, corrector, fem, harness

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    setup_done = []
    homogenize = harness.homogenize

    def timed_homogenize(*a, **k):
        hom = homogenize(*a, **k)
        setup_done.append(time.monotonic())
        return hom

    harness.homogenize = timed_homogenize

    with open(args.config) as fh:
        cfg = harness.parse_config(fh.read())
    error = None
    t0 = time.perf_counter()
    try:
        harness.run(cfg, outdir=args.out)
    except (fem.SolveError, cells.HomogenizationError, corrector.CorrectorInputError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - t0
    ru = resource.getrusage(resource.RUSAGE_SELF)

    result = {"run_s": run_s, "setup_done": setup_done[0] if setup_done else None,
              "cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024.0,
              "error": error}
    if tracer is not None:
        out_bytes = sum(e.stat().st_size for e in os.scandir(args.out) if e.is_file())
        result["layers"] = tracer.metrics(out_bytes)
        result["calls"] = tracer.calls()
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
