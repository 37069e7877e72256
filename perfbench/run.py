"""The repository's end-to-end benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload figure_sweep --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload query_mix --seed 3 --trace 1
    python3 perfbench/run.py --pin                 # re-pin output digests
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json

With ``--trace 0`` a workload runs untraced for ``--seconds`` and
reports every end-to-end metric (``spec.END_TO_END``); with ``--trace 1``
it runs a fixed amount of work once untraced and once under the ledger
(``ledger.py``) and reports every per-layer metric (``spec.PER_LAYER``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it stamps the
machine and code that produced it.  The exit code is 0 only when every
output matched its pinned digest.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
import typing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fresh processes the set-up probe runs per measurement
SETUP_PROBES = 7


def _die(message: str) -> typing.NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# -- environment stamp ----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over ``src/repro``'s Python sources: a code identity that
    holds without git (the benchmark may run from a plain export)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp() -> dict[str, typing.Any]:
    """The machine and code every number is tied to."""
    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": commit,
        "dirty": dirty,
        "src_sha256": _source_digest(),
    }


# -- set-up time ---------------------------------------------------------------

def setup_probe(name: str, seed: int, work: pathlib.Path) -> None:
    """Child side: time imports plus construction in this fresh process,
    calibrated like every other gated time; prints ``[raw, scaled]``."""
    with workloads.Calibrated() as calibrated:
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, work)
        built = workload.setup()
        elapsed = time.perf_counter() - start
    workload.teardown(built)
    print(json.dumps([elapsed, elapsed * calibrated.factor]))


def measure_setup(name: str, seed: int, work: pathlib.Path) -> tuple[float, float]:
    """Median (raw, scaled) set-up seconds over ``SETUP_PROBES`` processes."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", name,
             "--seed", str(seed), "--work", str(work)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(sample[0])
        scaled.append(sample[1])
    return statistics.median(raw), statistics.median(scaled)


# -- reporting ------------------------------------------------------------------

def result_line(tally, values: dict[str, float], table) -> str:
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, *_ in table
    }
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    })


def print_end_to_end(workload, values: dict[str, float]) -> None:
    tally = workload.tally
    print(f"{workload.name} (seed {workload.seed}): "
          f"attempted {tally.attempted}, failed {tally.failed}")
    aliases = spec.ALIASES.get(workload.name, {})
    for name, unit, better, bound in spec.END_TO_END:
        line = f"  {name:<14} {values[name]:>14.6g} {unit:<5} ({better} is better, bound {bound:.0%})"
        if name in aliases:
            alias, alias_unit, scale = aliases[name]
            line += f"   = {alias} {values[name] * scale:.6g} {alias_unit}"
        print(line)
    for name, (value, unit) in workload.extra.items():
        print(f"  {name:<14} {value:>14.6g} {unit}")
    for error in tally.errors:
        print(f"  FAILED: {error}")


def print_layers(workload, values: dict[str, float]) -> None:
    """One row per layer, then every per-layer metric beside its target."""
    print(f"{workload.name}: where did the time go? (traced, seed {workload.seed})")
    print(f"  {'layer':<9} {'self_s':>10} {'share':>7}  counts")
    for bucket in workloads.BUCKETS:
        counts = [
            f"{name.split('.', 1)[1]}={values[name]:.6g}"
            for name, *_ in spec.PER_LAYER
            if name.startswith(bucket + ".")
            and not name.endswith((".self_s", ".share"))
            and values[name]
        ]
        print(f"  {bucket:<9} {values[bucket + '.self_s']:>10.4f} "
              f"{values[bucket + '.share']:>7.1%}  {' '.join(counts)}")
    print(f"  {'per-layer metric':<34} {'value':>12} {'unit':<9} should move")
    for name, unit, _better, target, on in spec.PER_LAYER:
        if name.endswith((".self_s", ".share")):
            continue
        mark = "" if workload.name in on else "  (predicted unchanged here)"
        print(f"  {name:<34} {values[name]:>12.6g} {unit:<9} {target} on "
              f"{', '.join(on)}{mark}")
    for error in workload.tally.errors:
        print(f"  FAILED: {error}")


# -- modes --------------------------------------------------------------------------

def run_untraced(name: str, seed: int, seconds: float, work: pathlib.Path, pins: dict):
    workload = workloads.WORKLOADS[name](seed, work, pins)
    workload.prepare()
    values = workload.measure(seconds)
    # after the timed loop: the probes' processes must not count in
    # figure_sweep's largest-child peak memory
    raw_setup, values["setup_s"] = measure_setup(name, seed, work)
    workload.extra["raw setup_s"] = (raw_setup, "s")
    return workload, values


def run_traced(name: str, seed: int, work: pathlib.Path, pins: dict):
    workload = workloads.WORKLOADS[name](seed, work, pins)
    workload.prepare()
    values = workload.trace()
    if not ledger.clean():
        raise RuntimeError("a profiler hook outlived the traced pass")
    return workload, values


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json from the current program")
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json from spec.py")
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--work", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n"
        )
        return 0
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed, pathlib.Path(args.work))
        return 0

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.pin:
            return pin(work)
        names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
        modes = [0, 1] if args.trace is None and args.workload == "all" else [args.trace or 0]
        return run(names, modes, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still owns a sibling directory


def run(names: list[str], modes: list[int], seed: int, seconds: float,
        work: pathlib.Path) -> int:
    pins = workloads.load_pins()
    results = []
    for mode in modes:
        for name in names:
            if mode == 0:
                workload, values = run_untraced(name, seed, seconds, work, pins)
            else:
                workload, values = run_traced(name, seed, work, pins)
            results.append((mode, workload, values))
    for mode, workload, values in results:
        (print_end_to_end if mode == 0 else print_layers)(workload, values)
    print("stamp " + json.dumps(stamp(), sort_keys=True))
    if len(results) == 1:
        mode, workload, values = results[0]
        table = spec.END_TO_END if mode == 0 else spec.PER_LAYER
        print(result_line(workload.tally, values, table))
        return 0 if workload.tally.failed == 0 else 1
    attempted = sum(w.tally.attempted for _m, w, _v in results)
    failed = sum(w.tally.failed for _m, w, _v in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{w.name}{'' if m == 0 else '.traced'}": v for m, w, v in results
        },
    }))
    return 0 if failed == 0 else 1


def pin(work: pathlib.Path) -> int:
    """Record every workload's output digests in ``digests.json``."""
    pins: dict[str, typing.Any] = {}
    for name, cls in workloads.WORKLOADS.items():
        pins[name] = cls(1, work).outputs()
        print(f"pinned {name}", file=sys.stderr)
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if not (SRC / "repro" / "__init__.py").is_file():
    _die(f"no program to measure: {SRC / 'repro'} is missing; "
         "run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import ledger  # noqa: E402 — after the program's path is set
import spec  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
