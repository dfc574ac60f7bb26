#!/usr/bin/env python3
"""Benchmark of the ncelab CLI on four claim-reproduction workloads.

    python3 benchmarks/run.py --workload consistency --seed 1 --seconds 20 --trace 0

Runs from a source checkout (``src/ncelab`` next to this directory) with
nothing installed. One process runs one workload: it times a few set-up
processes, then repeats whole rounds of the workload's CLI commands until
``--seconds`` would be exceeded (at least one round), checking every
output. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Tracer  # standard library only: safe before the thread pin

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ncelab"
WORK = ROOT / ".bench_work"

# BLAS threads, set before numpy loads (NCE_LAB_THREADS acts too late to
# matter). One thread: the matrices are small, and a shared machine adds
# less noise to a single-threaded run.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "ranking_s": "s", "peak_rss_mib": "MiB"}
EXACT_KS = range(1, 11)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "objectives.calls": "count",
    "model.calls": "count",
    "model.score_table.calls": "count",
    "model.accumulate_grad.calls": "count",
    "optimize.iterations": "count",
    "optimize.tables_per_iter": "ratio",
    "optimize.unconverged": "count",
    "sampling.examples_per_s": "1/s",
    "asymptotics.ranking_exact_s": "s",
    **{f"asymptotics.ranking_exact.k{k}_s": "s" for k in EXACT_KS},
    "asymptotics.ranking_mc_s": "s",
    "asymptotics.tuples_per_s": "1/s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("consistency", "lm", "rates", "replicate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_setup(workload) -> None:
    from ncelab.cli import main as cli

    if workload.prepare is not None:
        workload.prepare()
    for argv in workload.setup:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli(argv) != 0:
                raise RuntimeError(f"set-up command failed: {' '.join(argv)}")


def setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that import ncelab and write the inputs."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = WORK / f"probe-{args.workload}-{os.getpid()}-{i}"
        probe_dir.mkdir(parents=True)
        try:
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(probe_dir)],
                check=True, stdout=subprocess.DEVNULL,
            )
            times.append(time.perf_counter() - start)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
    return times


class Round:
    """Runs every operation of a workload once and records what happened."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.wall = 0.0
        self.ranking = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[tuple[str, str]] = []
        self.layer_time: dict[str, float] = {}

    def run(self) -> "Round":
        from ncelab.cli import main as cli
        from workloads import CheckError

        by_name = {op.name: op for op in self.workload.ops}
        start = time.perf_counter()
        for op in self.workload.ops:
            self.attempted += 1
            if op.repeat_of is not None:
                failed = not self._same_bytes_on_rerun(cli, by_name[op.repeat_of])
            else:
                before = self.tracer.inclusive("asymptotics") if self.tracer else 0.0
                rc, seconds = self._timed(cli, op.argv, self.tracer)
                self.wall += seconds
                self.ranking += seconds if op.ranking else 0.0
                if op.trace_key and self.tracer:
                    self.layer_time[op.trace_key] = self.tracer.inclusive("asymptotics") - before
                failed = rc != 0 or (op.failed is not None and op.failed())
            if failed:
                self.failed += 1
                continue
            if op.check is not None:
                try:
                    op.check()
                except CheckError as exc:
                    self.problems.append((exc.kind, f"{op.name}: {exc}"))
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    self.problems.append(("exact", f"{op.name}: unreadable output: {exc!r}"))
        self.seconds = time.perf_counter() - start
        return self

    @staticmethod
    def _timed(cli, argv, tracer) -> tuple[int, float]:
        rc = -1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), (tracer or contextlib.nullcontext()):
                rc = cli(argv)
        except Exception:
            traceback.print_exc()
        return rc, time.perf_counter() - start

    def _same_bytes_on_rerun(self, cli, target) -> bool:
        from workloads import result_files

        try:
            files = result_files(target.argv)
            first = {path: path.read_bytes() for path in files}
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot rerun {target.name}: {exc!r}", file=sys.stderr)
            return False
        rc, _ = self._timed(cli, target.argv, None)
        differ = [p.name for p in files if not p.is_file() or p.read_bytes() != first[p]]
        if differ:
            self.problems.append(("exact", f"rerun of {target.name} changed {differ}"))
        return rc == 0


def layer_metrics(rnd: Round) -> dict[str, float]:
    tr = rnd.tracer
    m = {f"{layer}.self_s": tr.self_s[i] for i, layer in enumerate(LAYERS)}
    m["objectives.calls"] = tr.calls[LAYERS.index("objectives")]
    m["model.calls"] = tr.calls[LAYERS.index("model")]
    m["model.score_table.calls"] = tr.entry_count("model", "score_table")
    m["model.accumulate_grad.calls"] = tr.entry_count("model", "accumulate_grad")
    m["optimize.iterations"] = tr.fit_iterations
    m["optimize.tables_per_iter"] = tr.tables_in_fits / tr.fit_iterations if tr.fit_iterations else 0.0
    m["optimize.unconverged"] = tr.fits_unconverged
    sampling_s = m["sampling.self_s"]
    m["sampling.examples_per_s"] = tr.sampled_rows / sampling_s if sampling_s > 0 else 0.0
    exact = 0.0
    for k in EXACT_KS:
        m[f"asymptotics.ranking_exact.k{k}_s"] = rnd.layer_time.get(f"k{k}", 0.0)
        exact += m[f"asymptotics.ranking_exact.k{k}_s"]
    m["asymptotics.ranking_exact_s"] = exact
    m["asymptotics.ranking_mc_s"] = rnd.layer_time.get("mc", 0.0)
    # ordered tuples the exact grid covers, from the shapes alone
    m["asymptotics.tuples_per_s"] = rnd.workload.exact_tuples / exact if exact > 0 else 0.0
    return m


def measure(args, workdir: Path, scale=None) -> dict:
    """Set up, run rounds for ``args.seconds``, and return the result object."""
    import workloads

    workload = workloads.build(args.workload, workdir, args.seed, scale or workloads.FULL)
    setup = [] if args.trace else setup_seconds(args)
    run_setup(workload)
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rnd = Round(workload, Tracer(PACKAGE) if traced else None).run()
        rounds.append(rnd)
        print(f"round {len(rounds)}{' traced' if traced else ''}: wall {rnd.wall:.3f} s, "
              f"ranking {rnd.ranking:.3f} s, {rnd.failed}/{rnd.attempted} failed", file=sys.stderr)
        if args.trace and len(rounds) < 2:
            continue  # a traced run needs an untraced and a traced round
        if time.perf_counter() - start + rnd.seconds > args.seconds:
            break

    plain = [r for r in rounds if r.tracer is None]
    traced = [r for r in rounds if r.tracer is not None]
    if traced:
        per_round = [layer_metrics(r) for r in traced]
        values = {name: statistics.median(m[name] for m in per_round) for name in PER_LAYER
                  if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                      - statistics.median(r.wall for r in plain))
        units = PER_LAYER
        WORK.mkdir(exist_ok=True)
        for i, r in enumerate(traced):
            r.tracer.write(WORK / f"spans-{args.workload}-{i}.npz",
                           {"workload": args.workload, "seed": args.seed, "round": i,
                            "machine": machine_facts()})
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall for r in plain),
            "ranking_s": statistics.median(r.ranking for r in plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    problems = [p for r in rounds for p in r.problems]
    for kind, message in problems:
        print(f"check failed ({message})", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "problems": problems,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"benchmark: no ncelab sources at {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(PACKAGE.parent), str(HERE)]

    if args.setup_probe:
        import workloads

        run_setup(workloads.build(args.workload, Path(args.setup_probe), args.seed))
        return 0

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    result.pop("problems")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
