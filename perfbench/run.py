"""maxhom pipeline benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each round is one `maxhom.harness.run` call in a fresh process (child.py)
with the BLAS thread count fixed to 1.  Rounds repeat until --seconds have
passed.  With --trace 0 the benchmark reports the end-to-end metrics as
medians over the rounds; with --trace 1 it runs one untraced and two traced
rounds (more while time remains) and reports the per-layer metrics from the
traced ones plus the tracing overhead.  Every round's outputs are checked
(workloads.py) and the CSVs of all rounds must be byte-identical.  The last
line of standard output is one JSON object with correct, attempted, failed
and metrics; the metric names and units come from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: sparse matvecs are single-threaded anyway, and on a small
# shared box a second BLAS thread only adds contention and run-to-run spread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # a run must end within 180 s
EXACT_UNITS = ("count", "bytes")


def run_child(config, outdir, trace, deadline):
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(ROOT / "src"),
           "--config", str(config), "--out", str(outdir), "--trace", str(trace)]
    spawn = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - spawn))
    if proc.returncode != 0:
        sys.exit(f"benchmark round failed (exit code {proc.returncode})")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["setup_done"] - spawn if res["setup_done"] is not None else None
    return res


def csv_hashes(outdir, names):
    return {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest() for n in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    ops = wl.operations()
    base = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    config = base / "run.cfg"
    config.write_text(wl.config(args.seed))

    start = time.monotonic()
    deadline = start + DEADLINE_S
    min_rounds = 3 if args.trace else 1
    rounds, problems, ref_hashes = [], [], None
    attempted = failed = 0
    longest = 0.0
    k = 0
    while k < min_rounds or time.monotonic() - start < args.seconds:
        if k >= min_rounds and time.monotonic() + 1.5 * longest > deadline:
            break
        traced = bool(args.trace) and k % 3 != 0
        outdir = base / f"round{k}"
        t0 = time.monotonic()
        res = run_child(config, outdir, int(traced), deadline)
        longest = max(longest, time.monotonic() - t0)
        print(f"round {k} traced={int(traced)} run_s={res['run_s']:.4f} "
              f"setup_s={res['setup_s']} cpu_s={res['cpu_s']:.4f}", file=sys.stderr)
        attempted += sum(ops.values())
        if res["error"] is not None:
            failed += sum(ops.values())
            print(f"round {k}: {res['error']}", file=sys.stderr)
        else:
            failed += wl.failed_operations(outdir)
            problems += [f"round {k}: {p}" for p in wl.check(outdir)]
            hashes = csv_hashes(outdir, wl.csvs)
            ref_hashes = ref_hashes or hashes
            if hashes != ref_hashes:
                problems.append(f"round {k}: CSV bytes differ from round 0")
            if traced:
                missing = wl.spans - set(res["calls"])
                problems += [f"round {k}: span {s} recorded no call" for s in sorted(missing)]
                shutil.copy(outdir / "spans.json", base / "spans.json")
            rounds.append((traced, res))
        shutil.rmtree(outdir, ignore_errors=True)
        k += 1

    if args.trace:
        values = trace_metrics(rounds, declared, ops, problems)
    else:
        values = {m: statistics.median(r[m] for _, r in rounds)
                  for m in ("run_s", "setup_s", "cpu_s", "peak_rss_mb")} if rounds else {}
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            sys.exit(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:40s} {values[m['name']]:14.6g} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={k} trace={args.trace}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def trace_metrics(rounds, declared, ops, problems):
    """Per-layer medians over the traced rounds, with the exact-count checks."""
    traced = [r["layers"] for t, r in rounds if t]
    plain = [r["run_s"] for t, r in rounds if not t]
    if not traced or not plain:
        return {}
    for m in declared:
        name = m["name"]
        if m["unit"] in EXACT_UNITS and name in traced[0] and \
                any(t[name] != traced[0][name] for t in traced):
            problems.append(f"{name} differs between traced rounds: "
                            f"{[t[name] for t in traced]}")
    # the operation counts reported as `attempted` must be what the program did
    for name, op in (("cells.cell_solves", "cell_solves"), ("fem.solve_calls", "cg_solves"),
                     ("corrector.stamps", "stamps")):
        if traced[0][name] != ops[op]:
            problems.append(f"{name} = {traced[0][name]}, expected {ops[op]} {op}")
    values = {n: statistics.median(t[n] for t in traced) for n in traced[0]}
    values["trace.run_s"] = statistics.median(r["run_s"] for t, r in rounds if t)
    values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(plain)
    return values


if __name__ == "__main__":
    main()
