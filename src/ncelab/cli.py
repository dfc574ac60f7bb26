"""Command-line front end: reproducible runs with file-based inputs/outputs.

Every command writes a run manifest next to its outputs; result files are
byte-exact under re-runs with the same arguments (wall-clock lives only in
the manifest). CSV outputs start with a `# manifest=<digest>` comment.

Exit codes: 0 success, 2 validation error, 3 numeric error, 4 budget error.
Logs are natural-log based throughout; perplexity uses the natural
exponent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from .asymptotics import COLLAPSE_TOL, asymptotic_cov, replicate
from .errors import BudgetError, NumericError, ValidationError
from .evaluation import d_metric, evaluate
from .lm import LmConfig, run_lm_experiment
from .manifest import RunManifest, write_csv
from .model import ConditionalProblem, ContextBias, cond_prob_table
from .objectives import RegularizerConfig
from .optimize import FitConfig, fit
from .sampling import (
    NoiseDistribution,
    SamplingConfig,
    counterexample_problem,
    derive_rng,
    generate_dataset,
    load_dataset_jsonl,
    make_self_normalized_problem,
    make_synthetic_problem,
    noise_from_spec,
    random_tabular_problem,
    save_dataset_jsonl,
)

COUNTEREXAMPLE_KS = (1, 2, 5, 10)


def _parse_k_list(text: str) -> list[int]:
    try:
        return [int(k) for k in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--K expects comma-separated integers, got {text!r}") from exc


def _parse_mode(text: str) -> tuple[str, int | None]:
    if text == "exact":
        return "exact", None
    if text.startswith("mc:"):
        try:
            return "mc", int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"--mode expects 'exact' or 'mc:<M>', got {text!r}") from exc
    raise ValidationError(f"--mode expects 'exact' or 'mc:<M>', got {text!r}")


def _out_base(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root if ext else path


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# Each command takes (args, manifest), records its inputs on the manifest and
# returns (output paths, summary lines); ``main`` times it, writes the manifest
# next to ``args.out`` and prints the lines.


def cmd_synth(args, manifest):
    if args.kind == "softmax":
        problem = make_synthetic_problem(args.d, args.m_x, args.m_y, args.seed)
    elif args.kind == "self-normalized":
        problem = make_self_normalized_problem(args.m_x, args.m_y, args.d, args.seed)
    else:
        problem = random_tabular_problem(args.m_x, args.m_y, args.d, args.seed)
    problem.save(args.out)
    return [args.out], [
        f"wrote {args.kind} problem ({args.m_x} x {args.m_y}, d={args.d}) to {args.out}"
    ]


def _load_problem(args, manifest: RunManifest) -> ConditionalProblem:
    manifest.add_input("problem", args.problem)
    return ConditionalProblem.load(args.problem)


def cmd_fit(args, manifest):
    derive_rng(args.seed)  # a negative seed fails here, also when a loaded dataset draws nothing
    problem = _load_problem(args, manifest)
    if problem.scoring is None:
        raise ValidationError("problem file carries no scoring function to fit")
    noise = noise_from_spec(args.noise, problem.p_y)
    if args.dataset is not None:
        manifest.add_input("dataset", args.dataset)
        dataset = load_dataset_jsonl(args.dataset)
        drawn, given = dataset.provenance.get("noise"), noise.digest()
        if "noise" in dataset.provenance and drawn != given:  # a file may not record its noise
            raise ValidationError(f"dataset drawn under noise {drawn}, but --noise gives {given}")
    else:
        dataset = generate_dataset(
            problem, args.n, SamplingConfig(k=args.K, seed=args.seed), noise
        )
    sf = ContextBias(problem.scoring) if args.context_bias else problem.scoring
    reg = None
    if args.reg_alpha != 0:  # RegularizerConfig rejects a negative or NaN alpha
        reg = RegularizerConfig(alpha=args.reg_alpha, m=args.reg_m, seed=args.seed, stream=3)
    cfg = FitConfig(
        objective=args.estimator,
        k=dataset.k,  # a loaded dataset's own K, whatever --K says
        reg=reg,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
    )
    report = fit(sf, dataset, noise, cfg)
    metrics = evaluate(problem, sf, report.theta)
    digest = manifest.digest()
    payload = report.to_json_dict()
    payload["metrics"] = metrics.to_json_dict()
    payload["n"] = dataset.n
    payload["k"] = dataset.k
    payload["manifest"] = digest
    _write_json(args.out, payload)
    trace_path = _out_base(args.out) + ".trace.csv"
    write_csv(
        trace_path,
        ["iter", "objective", "grad_norm", "step"],
        report.trace_detail,
        digest,
    )
    eval_path = _out_base(args.out) + ".eval.csv"
    write_csv(
        eval_path,
        ["objective", "value", "grad_norm", "n", "k", "seed"],
        [
            (
                args.estimator,
                report.final_objective,
                report.grad_norm,
                dataset.n,
                dataset.k,
                args.seed,
            )
        ],
        digest,
    )
    outputs = [args.out, trace_path, eval_path]
    if args.save_dataset:
        save_dataset_jsonl(dataset, args.save_dataset)
        outputs.append(args.save_dataset)
    return outputs, [
        f"{args.estimator} fit: objective={report.final_objective:.6f} "
        f"kl={metrics.kl:.6f} d={metrics.d_metric:.3e} converged={report.converged}"
    ]


def cmd_counterexample(args, manifest):
    rows, reports = [], []
    problem = counterexample_problem()
    noise = NoiseDistribution.uniform(2)
    sf = problem.scoring
    for k in COUNTEREXAMPLE_KS:
        binary = fit(
            sf, problem, noise,
            FitConfig(objective="population-binary", k=k, tol=args.tol,
                      max_iters=args.max_iters),
        )
        ranking = fit(
            sf, problem, noise,
            FitConfig(objective="population-ranking", k=k, tol=args.tol,
                      max_iters=args.max_iters),
        )
        reports += [binary, ranking]
        cond_b = cond_prob_table(sf, binary.theta)[0]
        cond_r = cond_prob_table(sf, ranking.theta)[0]
        ratio_b = cond_b[0] / cond_b[1]
        ratio_r = cond_r[0] / cond_r[1]
        d_b = d_metric(problem, sf, binary.theta)
        d_r = d_metric(problem, sf, ranking.theta)
        rows.append(("binary", k, ratio_b, d_b))
        rows.append(("ranking", k, ratio_r, d_r))
        if abs(ratio_b - 3.0 / 7.0) > 1e-4:
            raise NumericError(
                f"binary maximizer ratio {ratio_b!r} at K={k} is not 3/7 +- 1e-4"
            )
        if abs(ratio_r - 1.0 / 3.0) > 1e-4:
            raise NumericError(
                f"ranking maximizer ratio {ratio_r!r} at K={k} is not 1/3 +- 1e-4"
            )
        if not d_b > d_r + 1e-3:
            raise NumericError(
                f"binary distance {d_b!r} does not dominate ranking {d_r!r} at K={k}"
            )
    write_csv(
        args.out,
        ["estimator", "k", "conditional_ratio", "d_metric"],
        rows,
        manifest.digest(),
    )
    converged = sum(r.converged for r in reports)
    stalled = sum(r.stalled for r in reports)
    return [args.out], [
        "counterexample reproduced: binary pins the conditional ratio at 3/7, "
        "ranking recovers 1/3 (truth), for K in {1,2,5,10}",
        f"fits: {converged} of {len(reports)} converged, {stalled} stalled in the line "
        f"search, largest final |g| {max(r.grad_norm for r in reports):.3e} (tol {args.tol:g})",
    ]


def cmd_asymptotics(args, manifest):
    derive_rng(args.seed)  # a negative seed fails here, before any covariance, in exact mode too
    problem = _load_problem(args, manifest)
    noise = noise_from_spec(args.noise, problem.p_y)
    ks = _parse_k_list(args.K)
    mode, num_samples = _parse_mode(args.mode)
    fisher = asymptotic_cov(problem, "mle", noise, 1)
    rows, collapse_gaps = [], []
    for k in ks:
        report = asymptotic_cov(problem, args.estimator, noise, k, mode, num_samples, args.seed)
        if report.collapse_gap is not None:
            collapse_gaps.append(report.collapse_gap)
        stderr = report.information_stderr
        rows.append(
            (
                args.estimator,
                k,
                float(np.linalg.norm(report.inverse - fisher.inverse, 2)),
                report.mse_infinity - fisher.mse_infinity,
                report.mse_infinity,
                report.mode,
                0.0 if stderr is None else float(np.max(stderr)),
            )
        )
    write_csv(
        args.out,
        ["estimator", "k", "norm_diff", "mse_gap", "mse", "mode", "stderr"],
        rows,
        manifest.digest(),
    )
    lines = [f"wrote {len(rows)} rate rows to {args.out}"]
    if collapse_gaps:
        lines.append(
            f"largest sandwich-collapse gap {max(collapse_gaps):.1e} (tol {COLLAPSE_TOL:g})"
        )
    return [args.out], lines


def cmd_replicate(args, manifest):
    problem = _load_problem(args, manifest)
    noise = noise_from_spec(args.noise, problem.p_y)
    cfg = FitConfig(objective=args.estimator, max_iters=args.max_iters, tol=args.tol)
    summary = replicate(
        problem, cfg, noise, k=args.K, n=args.n,
        replications=args.replications, seeds=args.seed,
    )
    payload = summary.to_json_dict()
    payload["manifest"] = manifest.digest()
    _write_json(args.out, payload)
    return [args.out], [
        f"{args.estimator} x{args.replications}: relative Frobenius error "
        f"{summary.rel_frobenius_error:.4f}, empirical mse {summary.empirical_mse:.4f} "
        f"vs theoretical {summary.theoretical_mse:.4f}; converged "
        f"{summary.converged}/{args.replications} ({summary.max_iters_reached} at "
        f"max-iters), max |g| {summary.max_grad_norm:.3e}"
    ]


def bundled_corpus_path() -> str:
    return str(resources.files("ncelab").joinpath("data/tiny_corpus.txt"))


def cmd_lm(args, manifest):
    corpus_path = args.corpus or bundled_corpus_path()
    manifest.add_input("corpus", corpus_path)
    with open(corpus_path, encoding="utf-8") as f:
        text = f.read()
    cfg = LmConfig(
        loss=args.estimator,
        order=args.order,
        dim=args.dim,
        k=args.K,
        noise=args.noise,
        reg_alpha=args.reg_alpha,
        reg_m=args.reg_m,
        context_bias=args.context_bias,
        seed=args.seed,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    report = run_lm_experiment(text, cfg)
    digest = manifest.digest()
    payload = report.to_json_dict()
    payload["manifest"] = digest
    _write_json(args.out, payload)
    eval_path = _out_base(args.out) + ".evals.csv"
    write_csv(
        eval_path,
        ["iteration", "train_ppl", "valid_ppl"],
        report.eval_rows,
        digest,
    )
    return [args.out, eval_path], [
        f"{args.estimator} lm: train_ppl={report.train_ppl:.3f} "
        f"valid_ppl={report.valid_ppl:.3f} var[log Z]={report.log_z_var:.5f} "
        f"converged={report.fit.converged} iterations={report.fit.iterations} "
        f"|g|={report.fit.grad_norm:.3e} evaluations={report.fit.n_evaluations}"
    ]


def _add_common_fit_flags(p: argparse.ArgumentParser, lm: bool = False) -> None:
    p.add_argument("--estimator", choices=("mle", "ranking", "binary"), default="mle")
    p.add_argument("--K", type=int, default=100 if lm else 4,
                   help="negatives per example")
    p.add_argument("--noise", default="unigram" if lm else "uniform",
                   help="uniform | unigram | unigram-pow:<p>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=400 if lm else 5000)
    p.add_argument("--tol", type=float, default=1e-5 if lm else 1e-7)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncelab",
        description=(
            "Conditional-model estimation by MLE and noise contrastive "
            "estimation (ranking and binary), with exact population "
            "objectives and asymptotic-efficiency diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic tabular problem file")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--m-x", type=int, default=200)
    p.add_argument("--m-y", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--kind",
        choices=("softmax", "self-normalized", "features"),
        default="softmax",
        help="softmax: per-label linear model (mixture-of-Gaussians inputs); "
             "self-normalized: constant-partition family for binary asymptotics; "
             "features: identifiable dense-feature problem",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit an estimator on a problem or dataset")
    p.add_argument("--problem", required=True)
    p.add_argument("--dataset", help="JSONL dataset, whose K replaces --K and whose recorded "
                   "noise must match --noise; generated when omitted")
    p.add_argument("--n", type=int, default=10000, help="sample size when generating")
    p.add_argument("--context-bias", action="store_true",
                   help="add per-context bias parameters to the estimator")
    p.add_argument("--reg-alpha", type=float, default=0.0)
    p.add_argument("--reg-m", type=int, default=10)
    p.add_argument("--save-dataset", help="also write the generated dataset")
    p.add_argument("--out", required=True)
    _add_common_fit_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "counterexample",
        help="reproduce the binary-inconsistency instance (ratios 3/7 vs 1/3)",
    )
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("asymptotics", help="rate curves of asymptotic covariances in K")
    p.add_argument("--problem", required=True)
    p.add_argument("--estimator", choices=("mle", "ranking", "binary"), default="ranking")
    p.add_argument("--K", default="1,2,4", help="comma-separated K grid")
    p.add_argument("--noise", default="uniform")
    p.add_argument("--mode", default="exact", help="exact | mc:<M> (ranking only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("replicate", help="empirical covariance vs theory over R fits")
    p.add_argument("--problem", required=True)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--replications", type=int, default=300)
    p.add_argument("--out", required=True)
    _add_common_fit_flags(p)
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("lm", help="log-bilinear language-model experiment")
    p.add_argument("--corpus", help="UTF-8 text; bundled toy corpus when omitted")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--context-bias", action="store_true",
                   help="per-history bias parameters (off reproduces the usual "
                        "c_x = 0 simplification)")
    p.add_argument("--reg-alpha", type=float, default=0.0)
    p.add_argument("--reg-m", type=int, default=None,
                   help="noise draws per example (default vocab/10)")
    p.add_argument("--out", required=True)
    _add_common_fit_flags(p, lm=True)
    p.set_defaults(func=cmd_lm)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "reg_m", None) is not None and args.reg_m < 1:  # even at --reg-alpha 0
            raise ValidationError(f"--reg-m must be >= 1, got {args.reg_m}")
        recorded = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
        manifest = RunManifest(command=args.command, arguments=recorded)
        start = time.perf_counter()
        outputs, lines = args.func(args, manifest)
        manifest.output_paths = outputs
        manifest.wall_clock_seconds = time.perf_counter() - start
        manifest.write(_out_base(args.out) + ".manifest.json")
        for line in lines:
            print(line)
        return 0
    except (ValidationError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
