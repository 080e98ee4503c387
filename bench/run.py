"""Solver benchmark: time to solution on fixed workloads, one process per run.

    python3 bench/run.py --workload visc2d --seed 1 --seconds 20 --trace 0

Runs one workload in a closed loop (one repetition at a time) for about
``--seconds`` seconds, at least three repetitions.  Each repetition builds
fresh meshes and spaces, so every repetition pays the per-space table fill.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full record
(environment, every repetition's answer and timings, and the spans of a
traced run) goes to ``bench/results/``.  ``--smoke`` runs the same code at
tiny sizes; see bench/README.md.
"""

import os

# pinned before numpy loads OpenBLAS: one thread keeps reductions in a fixed
# order, so iteration counts repeat exactly
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
if not (SRC / "maviscid").is_dir():
    sys.exit(f"run.py: no package source under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
SETUP_SHARE = 0.1

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run the tiny sizes (self-test), not the full ones")
    return p.parse_args(argv)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def _git_commit():
    """HEAD of the checkout's own repository; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_version(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        "seed_use": (
            "draws the probe samples" if workload.seeded
            else "none: fixed PDE data, the seed does not change the inputs"
        ),
    }


def repetition(workload, sizes, seed):
    """Build, solve and check once; a failure is recorded, not raised."""
    gc.collect()
    rec = {"traced": False, "error": None}
    try:
        t0 = time.perf_counter()
        spaces = workload.build(sizes)
        t1 = time.perf_counter()
        answer = workload.solve(spaces, seed)
        t2 = time.perf_counter()
        rec.update(setup_s=t1 - t0, solve_s=t2 - t1, answer=answer)
        workload.check(answer, workload.expect.get(sizes))
    except Exception:
        rec["error"] = traceback.format_exc()
        print(rec["error"], file=sys.stderr)
    return rec


def traced_repetition(workload, sizes, seed, tracer, run_id):
    with tracer.run(run_id):
        rec = repetition(workload, sizes, seed)
    rec["traced"] = True
    if rec["error"] is None:
        rec["layers"] = tracing.layer_metrics(
            tracer, run_id, workload, rec["answer"]
        )
    return rec


def timed_build(workload, sizes):
    gc.collect()
    t = time.perf_counter()
    workload.build(sizes)
    return time.perf_counter() - t


def measure(workload, sizes, seed, seconds, tracer):
    """Repetitions until ``seconds`` would be exceeded, at least MIN_REPS.

    Between repetitions come extra builds, timed as set-up samples, until
    builds have taken SETUP_SHARE of the time so far: one build is short,
    and its median needs many samples spread over the whole run.  A traced
    run alternates untraced and traced repetitions, so that the tracing
    overhead is measured under the same conditions.
    """
    start = time.perf_counter()
    setups, reps = [], []
    build_wall = 0.0  # wall time of all builds, garbage collections included
    last = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        batch = [repetition(workload, sizes, seed)]
        if tracer is not None:
            # the run id of a traced repetition is its repetition number
            batch.append(traced_repetition(workload, sizes, seed, tracer,
                                           run_id=len(reps) + 2))
        for r in batch:
            reps.append(r)
            if "setup_s" in r:
                setups.append(r["setup_s"])
                build_wall += r["setup_s"]
            print(f"{workload.name} rep {len(reps)}"
                  + (" (traced)" if r["traced"] else "") + ": "
                  + ("ok" if r["error"] is None else "FAILED")
                  + (f", setup {r['setup_s']:.3f} s, solve {r['solve_s']:.3f} s"
                     if "solve_s" in r else ""), flush=True)
        while build_wall < SETUP_SHARE * (time.perf_counter() - start):
            t0 = time.perf_counter()
            setups.append(timed_build(workload, sizes))
            build_wall += time.perf_counter() - t0
        last = time.perf_counter() - t
    return setups, reps


def end_to_end_metrics(setups, ok):
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(r["solve_s"] for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(workload, ok):
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    if not traced or not plain:
        return {}
    out = {}
    for name in tracing.LAYER_METRICS:
        if name == "trace.overhead_s":
            continue
        values = [r["layers"][name] for r in traced]
        if name in tracing.EXACT_METRICS:
            if len(set(values)) != 1:
                raise tracing.TraceError(
                    f"{workload.name}: {name} differs between repetitions: {values}"
                )
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = (
        statistics.median(r["solve_s"] for r in traced)
        - statistics.median(r["solve_s"] for r in plain)
    )
    return out


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    sizes = workload.smoke_sizes if args.smoke else workload.sizes
    env = environment(workload, args.seed)

    # untimed warm-up at the smoke sizes: imports, lazily loaded solver
    # modules and allocator pools settle before the first timed build
    warm = repetition(workload, workload.smoke_sizes, args.seed)
    if warm["error"] is not None:
        sys.exit(f"{workload.name}: warm-up failed")

    tracer = tracing.Tracer() if args.trace else None
    setups, reps = measure(workload, sizes, args.seed, args.seconds, tracer)
    ok = [r for r in reps if r["error"] is None]
    failed = len(reps) - len(ok)
    if args.trace:
        values = per_layer_metrics(workload, ok)
        units = {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        values = end_to_end_metrics(setups, ok) if ok else {}
        units = END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    correct = failed == 0 and len(metrics) == len(units)
    print(f"{workload.name}: {failed} failed of {len(reps)} attempted")

    RESULTS.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "sizes": list(sizes),
        "smoke": args.smoke,
        "seconds": args.seconds,
        "environment": env,
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "setup_samples_s": setups,
        "repetitions": reps,
        "spans": tracer.spans if tracer else [],
    }
    path = RESULTS / (name + ("-smoke" if args.smoke else "") + ".json")
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
