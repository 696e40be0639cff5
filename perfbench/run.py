"""Benchmark of the neuroseg pipeline: ``segctl segment`` and training.

Run from the repository root:

    python3 perfbench/run.py --workload mc-32 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics. Lines before it
give each operation's details, the environment (library versions, BLAS
threads, nproc, source revision, seed) and a table of the metrics. See
``perfbench/README.md`` for the metrics and workloads.

The package is imported from ``src/`` next to this directory and nowhere
else, so the benchmark fails in a tree that does not hold the source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def _limit_blas_threads() -> int:
    """Pin BLAS to at most the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import neuroseg
    except ImportError as exc:
        raise SystemExit(f"error: cannot import neuroseg from {src}: {exc}")
    if Path(neuroseg.__file__).resolve().parent != (src / "neuroseg").resolve():
        raise SystemExit(f"error: neuroseg was imported from {neuroseg.__file__}, not {src}")


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "neuroseg").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _limit_blas_threads()
    _import_package()
    import numpy
    import scipy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        attempted, failed, values, details = workloads.run(
            wl, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    units = tracing.LAYER_METRIC_UNITS if args.trace else workloads.END_TO_END_UNITS
    environment = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
    }
    print("details " + json.dumps(details, sort_keys=True))
    print("environment " + json.dumps(environment, sort_keys=True))
    for name, value in values.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':44s} {failed / max(attempted, 1):14.6g} ratio ({failed}/{attempted})")
    correct = failed == 0 and set(values) == set(units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
