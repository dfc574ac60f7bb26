#!/usr/bin/env python3
"""Recompute the reference figures of benchmarks/README.md at the gate's shapes.

    python3 benchmarks/gate_figures.py

Runs each run of the acceptance gate's criteria c4, c5, c6 and c9 once
through the CLI, with the BLAS thread default left alone, and prints one
table row per run: wall time and the figure the claim rests on. It takes
about eight minutes on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
from run import PACKAGE, WORK, machine_facts  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    from ncelab.cli import main as cli

    work = WORK / "gate-figures"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def timed(*argv, trace=False):
        tracer = Tracer(PACKAGE)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), (tracer if trace else contextlib.nullcontext()):
            rc = cli([str(a) for a in argv])
        if rc != 0:
            raise SystemExit(f"command failed: {' '.join(map(str, argv))}")
        return time.perf_counter() - start, tracer

    def row(workload, run, seconds, result):
        print(f"| `{workload}` | {run} | {seconds} | {result} |", flush=True)

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print("| workload | run | time | result |\n| --- | --- | --- | --- |")

    softmax = work / "softmax.json"
    timed("synth", "--kind", "softmax", "--d", 4, "--m-x", 50, "--m-y", 20, "--seed", 42, "--out", softmax)
    fit = ["fit", "--problem", softmax, "--K", 4, "--noise", "uniform", "--tol", "1e-6",
           "--max-iters", 2500, "--n", 100_000]
    for label, extra in (
        ("ranking, n=1e5", ["--estimator", "ranking", "--seed", 1105]),
        ("binary with `--context-bias`, n=1e5", ["--estimator", "binary", "--context-bias", "--seed", 1205]),
        ("binary without bias", ["--estimator", "binary", "--seed", 1300]),
    ):
        out = work / "fit.json"
        seconds, _ = timed(*fit, *extra, "--out", out)
        r = json.loads(out.read_text())
        state = "converged" if r["converged"] else "unconverged"
        row("consistency", label, f"{seconds:.1f} s",
            f"{r['iterations']:,} iterations, {state}, grad norm {r['grad_norm']:.1e}, KL {r['metrics']['kl']:.5f}")

    lm = ["lm", "--estimator", "ranking", "--K", 100, "--seed", 3, "--max-iters", 300]
    for label, argv in (
        ("MLE", ["lm", "--estimator", "mle", "--seed", 3, "--max-iters", 300]),
        ("ranking, K=100", lm),
        ("ranking + regularizer", lm + ["--reg-alpha", 0.5]),
    ):
        out = work / "lm.json"
        seconds, _ = timed(*argv, "--out", out)
        r = json.loads(out.read_text())
        row("lm", label, f"{seconds:.1f} s", f"valid ppl {r['valid_ppl']:.2f}, Var[log Z] {r['log_z_var']:.4f}, "
            f"{r['fit']['iterations']} iterations")

    sn = work / "sn.json"
    timed("synth", "--kind", "self-normalized", "--d", 3, "--m-x", 6, "--m-y", 4, "--seed", 38, "--out", sn)
    times = []
    for k in (7, 8, 9, 10):
        seconds, _ = timed("asymptotics", "--problem", sn, "--estimator", "ranking", "--mode", "exact",
                           "--K", k, "--out", work / f"exact{k}.csv")
        times.append(seconds)
    seconds, _ = timed("asymptotics", "--problem", sn, "--estimator", "ranking", "--mode", "mc:600000",
                       "--K", 8, "--seed", 5, "--out", work / "mc.csv")
    mc = ref.read_csv(work / "mc.csv")[0]["norm_diff"]
    exact = ref.read_csv(work / "exact8.csv")[0]["norm_diff"]
    row("rates", "exact ranking, K=7 / 8 / 9 / 10", " / ".join(f"{t:.2f}" for t in times) + " s",
        f"MC at K=8 (600k samples, {seconds:.1f} s) gives gap {float(mc):.3f} against exact {float(exact):.3f}")

    features = work / "features.json"
    timed("synth", "--kind", "features", "--d", 2, "--m-x", 3, "--m-y", 4, "--seed", 23, "--out", features)
    for estimator, seed in (("mle", 1), ("ranking", 2)):
        out = work / "replicate.json"
        argv = ("replicate", "--problem", features, "--estimator", estimator, "--K", 4,
                "--n", 20_000, "--replications", 300, "--seed", seed, "--out", out)
        seconds, _ = timed(*argv)
        # replicate reports no per-fit convergence: a traced rerun reads it
        # from the fit reports
        _, tracer = timed(*argv, trace=True)
        r = json.loads(out.read_text())
        row("replicate", f"{estimator} x300", f"{seconds:.1f} s",
            f"{300 - tracer.fits_unconverged} of 300 fits converged, relative error "
            f"{r['rel_frobenius_error']:.3f}, mse ratio {r['empirical_mse'] / r['theoretical_mse']:.3f}")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
