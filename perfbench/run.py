"""wppsc benchmark launcher.

    python3 perfbench/run.py --workload {sweep,scr,transient} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. Prints a readable summary, a ``facts`` line and, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Span dumps and a full result file go to ``.perfbench_out/``.
"""

import os

# Pin native thread pools before numpy loads: on a 2-core machine the jobs=2
# sweep must run two threads, not two processes of two BLAS threads each.
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep", "scr", "transient")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_facts():
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def _facts(np, scipy):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = None
    src_sha, src_lines = _src_facts()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in PINNED_THREAD_VARS},
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_sha256": src_sha,
        "src_lines": src_lines,
    }


def _peak_rss_mb():
    """Own peak RSS plus the largest child's (set-up probes, pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "wppsc", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}/wppsc", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import numpy as np
    import scipy

    import wppsc
    if not os.path.abspath(wppsc.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported wppsc from {wppsc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import stats, workloads

    facts = _facts(np, scipy)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    out = workloads.Outcome()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines = [f"perfbench {tag}: {args.seconds:g} s budget"]
    try:
        setup_wall, setup = ([], []) if args.trace else workloads.measure_setup(
            args.workload, args.seed, SRC)
        if args.trace:
            metrics, tracer = workloads.run_traced(args.workload, args.seed, out, workdir)
            tracer.write_csv(os.path.join(OUT_DIR, f"spans-{tag}.csv"))
            lines.append(f"  {len(tracer.spans)} spans in {len({s.scope for s in tracer.spans})} scopes")
            units = workloads.LAYER_UNITS
            shown = {k: (v, units[k], "") for k, v in metrics.items()}
        else:
            runner = workloads.RUNNERS[args.workload]
            res = runner(args.seed, args.seconds, out, workdir)
            metrics = {
                "setup_s": stats.median(setup),
                "peak_rss_mb": _peak_rss_mb(),
                "throughput_per_s": res.throughput_per_s,
                "job_ms_mean": res.job_ms_mean,
            }
            ref = "at reference speed"
            notes = {
                "setup_s": f"median of {len(setup)} cold starts, {ref}",
                "peak_rss_mb": "self plus largest child",
                "throughput_per_s": ref,
                "job_ms_mean": f"n={res.jobs}, {ref}",
            }
            units = workloads.END_TO_END_UNITS
            shown = {k: (v, units[k], notes[k]) for k, v in metrics.items()}
            shown["setup_s_wall"] = (stats.median(setup_wall), "s", "wall")
            shown.update(res.extras)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    shown["failed_frac"] = (failed_frac, "1", f"{out.failed} of {out.attempted} operations")
    facts["loadavg_end"] = os.getloadavg()

    for name, (value, unit, note) in shown.items():
        lines.append(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    for problem in out.problems:
        lines.append(f"  problem: {problem}")
    print("\n".join(lines))
    print("facts " + json.dumps(facts, sort_keys=True))

    attempted = max(out.attempted, 1)
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": attempted,
        "failed": out.failed if out.attempted else attempted,
        "metrics": {k: {"value": float(v), "unit": shown[k][1]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "facts": facts, "setup_s_wall_samples": setup_wall,
                   "shown": shown}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
