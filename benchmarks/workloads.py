"""The benchmark's four workloads: set-up, operations and output checks.

Each workload reproduces one claim of the paper through the ``ncelab``
CLI. An operation is one CLI command plus the checks of its outputs; a
round runs every operation of a workload once, in order. Checks raise
``CheckError``: kind "exact" when an output disagrees with an independent
recomputation (these hold at any size), kind "claim" when a paper claim
fails at the workload's size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "ncelab" / "data" / "tiny_corpus.txt"
MAKE_CORPUS = ROOT / "scripts" / "make_corpus.py"

WORKLOADS = ("consistency", "lm", "rates", "replicate")
LM_DIM = 16


class CheckError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


@dataclass(frozen=True)
class Scale:
    """Sizes of the workloads; ``FULL`` is what the benchmark measures."""

    fit_n: int = 20_000
    bias_n: int = 5000
    fit_tol: str = "1e-6"
    fit_max_iters: int = 2500
    lm_corpus_fraction: float = 0.2
    lm_max_iters: int = 300
    exact_ks: tuple[int, ...] = tuple(range(1, 11))
    mc_samples: int = 200_000
    binary_ks: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256, 512)
    replicate_n: int = 2000
    replications: int = 300


FULL = Scale()
TOY = Scale(
    fit_n=3000, bias_n=2000, fit_tol="1e-4", fit_max_iters=400,
    lm_corpus_fraction=0.04, lm_max_iters=10, exact_ks=(1, 2, 3),
    mc_samples=4096, binary_ks=(4, 8, 16), replicate_n=400, replications=12,
)


@dataclass
class Op:
    """One CLI command; ``repeat_of`` reruns another op to compare bytes."""

    name: str
    argv: list[str] = field(default_factory=list)
    ranking: bool = False
    check: Callable[[], None] | None = None
    failed: Callable[[], bool] | None = None
    repeat_of: str | None = None
    trace_key: str | None = None


@dataclass
class Workload:
    name: str
    setup: list[list[str]]
    ops: list[Op]
    prepare: Callable[[], None] | None = None
    exact_tuples: int = 0  # ordered tuples covered by exact enumeration, sum of m_x * m_y**K


def build(name: str, workdir: Path, seed: int, scale: Scale = FULL) -> Workload:
    builders = {"consistency": consistency, "lm": lm, "rates": rates, "replicate": replicate}
    return builders[name](Path(workdir), seed, scale)


# --------------------------------------------------------------------------
# shared check helpers


def close(got: float, want: float, what: str, rel: float = 1e-9) -> None:
    if not abs(got - want) <= rel * max(abs(got), abs(want), 1e-300):
        raise CheckError("exact", f"{what}: program {got!r} vs recomputed {want!r}")


def claim(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError("claim", message)


def out_path(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


def result_files(argv: list[str]) -> list[Path]:
    """Files a command wrote, read from its manifest (which is excluded)."""
    manifest = out_path(argv).with_suffix(".manifest.json")
    return [Path(p) for p in json.loads(manifest.read_text())["output_paths"]]


def nondecreasing_trace(fit_json: Path) -> None:
    rows = ref.read_csv(fit_json.with_name(fit_json.stem + ".trace.csv"))
    values = [float(r["objective"]) for r in rows]
    drops = [i for i in range(1, len(values)) if values[i] < values[i - 1]]
    if drops:
        raise CheckError("exact", f"{fit_json.name}: objective trace decreases at row {drops[0]}")


# --------------------------------------------------------------------------
# consistency: ranking is consistent, binary without a normalizer is not


def consistency(workdir: Path, seed: int, scale: Scale) -> Workload:
    problem_path = workdir / "softmax.json"
    common = [
        "fit", "--problem", str(problem_path), "--K", "4", "--noise", "uniform",
        "--tol", scale.fit_tol, "--max-iters", str(scale.fit_max_iters),
    ]
    problem: list[ref.Problem] = []

    def fit_op(name, estimator, n, data_seed, ranking=False, context_bias=False):
        out = workdir / f"{name}.json"
        data = workdir / f"{name}.data.jsonl"
        argv = common + ["--estimator", estimator, "--n", str(n), "--seed", str(data_seed)]
        argv += ["--context-bias"] if context_bias else ["--save-dataset", str(data)]
        argv += ["--out", str(out)]

        def check():
            if not problem:
                problem.append(ref.Problem.load(problem_path))
            p = problem[0]
            report = json.loads(out.read_text())
            theta = np.asarray(report["theta"])
            kl = p.kl(theta)
            close(report["metrics"]["kl"], kl, f"{name} KL(true||fit)")
            x, y, neg = ref.load_dataset(data)
            shat = p.scores(theta) + math.log(p.m_y)
            if estimator == "ranking":
                objective = ref.ranking_objective(shat, x, y, neg)
            else:
                objective = ref.binary_objective(shat, report["gamma"], x, y, neg)
            close(report["final_objective"], objective, f"{name} sampled objective")
            nondecreasing_trace(out)
            fit_kl_claim(estimator, kl, n)

        def unconverged():
            return not json.loads(out.read_text())["converged"]

        return Op(name, argv, ranking=ranking, check=None if context_bias else check,
                  failed=unconverged)

    ops = [
        # the ranking and bias fits use the acceptance gate's dataset seeds:
        # their iteration counts swing 2x between datasets (see README)
        fit_op("ranking", "ranking", scale.fit_n, 1105, ranking=True),
        fit_op("binary-bias", "binary", scale.bias_n, 1205, context_bias=True),
        fit_op("binary", "binary", scale.fit_n, seed),
        Op("repeat-binary", repeat_of="binary"),
    ]
    setup = [["synth", "--kind", "softmax", "--d", "4", "--m-x", "50", "--m-y", "20",
              "--seed", "42", "--out", str(problem_path)]]
    return Workload("consistency", setup, ops)


def fit_kl_claim(estimator: str, kl: float, n: int) -> None:
    if estimator == "ranking":
        claim(kl < 0.01, f"ranking KL {kl:.5f} at n={n} is not below 0.01")
    else:
        claim(kl > 0.05, f"binary-without-bias KL {kl:.5f} at n={n} is not above 0.05")


# --------------------------------------------------------------------------
# lm: ranking matches MLE perplexity, the regularizer flattens log Z


def lm(workdir: Path, seed: int, scale: Scale) -> Workload:
    corpus = workdir / "corpus.txt"
    common = ["lm", "--corpus", str(corpus), "--order", "2", "--dim", str(LM_DIM), "--noise", "unigram",
              "--seed", "3", "--max-iters", str(scale.lm_max_iters)]
    refs: dict = {}

    def prepare():
        lines = CORPUS.read_text(encoding="utf-8").splitlines()
        corpus.write_text("\n".join(lines[: int(len(lines) * scale.lm_corpus_fraction)]) + "\n")

    def references():
        if not refs:
            train, valid = ref.split_corpus(corpus.read_text())
            vocab = ref.vocabulary(train)
            refs["vocab"] = vocab
            refs["valid"] = ref.encode(valid, vocab)
            refs["unigram"] = ref.unigram_perplexity(ref.encode(train, vocab), refs["valid"], len(vocab))
            index, step = ref.chain_model(MAKE_CORPUS)
            refs["chain"] = ref.chain_perplexity(index, step, valid)
        return refs

    outs = {name: workdir / f"lm-{name}.json" for name in ("mle", "ranking", "regularized")}

    def check(name):
        def run():
            r = references()
            report = json.loads(outs[name].read_text())
            scores = ref.bigram_log_bilinear(report["fit"]["theta"], len(r["vocab"]), LM_DIM)
            ppl, log_z_var = ref.lm_validation(scores, r["valid"])
            close(report["valid_ppl"], ppl, f"lm {name} validation perplexity")
            close(report["log_z_var"], log_z_var, f"lm {name} Var[log Z]")
            lm_ppl_claim(name, ppl, r["chain"], r["unigram"])
            if name == "regularized":
                mle, rank = (json.loads(outs[k].read_text()) for k in ("mle", "ranking"))
                lm_pair_claims(mle["valid_ppl"], rank["valid_ppl"], rank["log_z_var"], log_z_var)
        return run

    ops = [
        Op("mle", common + ["--estimator", "mle", "--out", str(outs["mle"])], check=check("mle")),
        Op("ranking", common + ["--estimator", "ranking", "--K", "100", "--out", str(outs["ranking"])],
           ranking=True, check=check("ranking")),
        Op("regularized", common + ["--estimator", "ranking", "--K", "100", "--reg-alpha", "0.5",
                                    "--out", str(outs["regularized"])],
           ranking=True, check=check("regularized")),
        Op("repeat-mle", repeat_of="mle"),
    ]
    return Workload("lm", [], ops, prepare=prepare)


def lm_ppl_claim(name: str, ppl: float, chain: float, unigram: float) -> None:
    claim(chain < ppl < unigram,
          f"lm {name} perplexity {ppl:.3f} outside (chain {chain:.3f}, add-one unigram {unigram:.3f})")


def lm_pair_claims(mle_ppl: float, rank_ppl: float, rank_var: float, reg_var: float) -> None:
    gap = abs(rank_ppl - mle_ppl) / mle_ppl
    claim(gap <= 0.05, f"ranking perplexity {rank_ppl:.3f} is {gap:.1%} from MLE {mle_ppl:.3f}")
    claim(rank_var >= 10 * reg_var,
          f"regularizer shrinks Var[log Z] only {rank_var / reg_var:.1f}x ({rank_var:.4f} -> {reg_var:.4f})")


# --------------------------------------------------------------------------
# rates: the Fisher bound, the rates in K, and the 3/7 counterexample


def rates(workdir: Path, seed: int, scale: Scale) -> Workload:
    problem_path = workdir / "self-normalized.json"
    base = ["asymptotics", "--problem", str(problem_path), "--noise", "uniform"]
    state: dict = {}

    def fisher_inverse():
        if not state:
            p = ref.Problem.load(problem_path)
            state["problem"] = p
            state["fisher_inv"] = np.linalg.inv(p.fisher())
        return state["problem"], state["fisher_inv"]

    def rows(path):
        out = []
        for r in ref.read_csv(path):
            out.append({k: (v if k in ("estimator", "mode") else float(v)) for k, v in r.items()})
        return out

    def fisher_bound(path):
        p, f_inv = fisher_inverse()
        mle_mse = float(np.trace(f_inv)) / f_inv.shape[0]
        table = rows(path)
        for r in table:
            close(r["mse"] - r["mse_gap"], mle_mse, f"{path.name} K={r['k']:g} Fisher-bound mse", rel=1e-8)
            claim(r["mse_gap"] >= 0.0, f"{path.name} K={r['k']:g}: mse_gap {r['mse_gap']!r} < 0")
        return table

    exact_paths = {k: workdir / f"exact-k{k}.csv" for k in scale.exact_ks}

    def check_exact(k):
        def run():
            (row,) = fisher_bound(exact_paths[k])
            if k <= 2:
                p, f_inv = fisher_inverse()
                inv = np.linalg.inv(p.ranking_information(k))
                close(row["mse"], float(np.trace(inv)) / inv.shape[0], f"exact ranking mse at K={k}")
                close(row["norm_diff"], float(np.linalg.norm(inv - f_inv, 2)), f"exact ranking norm_diff at K={k}",
                      rel=1e-8)
            if k == scale.exact_ks[-1]:
                gaps = [rows(exact_paths[j])[0]["norm_diff"] for j in scale.exact_ks]
                claim(all(b <= a for a, b in zip(gaps, gaps[1:])),
                      f"exact ranking norm_diff increases with K: {gaps}")
        return run

    mc_path = workdir / "mc.csv"
    mc_k = 8 if 8 in scale.exact_ks else scale.exact_ks[-1]
    mc_ks = sorted({mc_k, 16, 32, 64})

    def check_mc():
        table = fisher_bound(mc_path)
        _, f_inv = fisher_inverse()
        (exact,) = rows(exact_paths[mc_k])
        (mc,) = [r for r in table if r["k"] == mc_k]
        mc_agreement(exact, mc, float(np.linalg.norm(f_inv, 2)), f_inv.shape[0])

    binary_path = workdir / "binary.csv"

    def check_binary():
        table = fisher_bound(binary_path)
        ks = np.array([r["k"] for r in table])
        gaps = np.array([r["norm_diff"] for r in table])
        binary_slope_claim(float(np.polyfit(np.log(ks), np.log(gaps), 1)[0]))

    counter_path = workdir / "counterexample.csv"

    def check_counterexample():
        counterexample_claims(rows(counter_path))

    ops = [
        Op(f"exact-k{k}", base + ["--estimator", "ranking", "--mode", "exact", "--K", str(k),
                                  "--out", str(exact_paths[k])],
           ranking=True, check=check_exact(k), trace_key=f"k{k}")
        for k in scale.exact_ks
    ]
    ops += [
        Op("mc", base + ["--estimator", "ranking", "--mode", f"mc:{scale.mc_samples}",
                         "--K", ",".join(map(str, mc_ks)), "--seed", str(seed), "--out", str(mc_path)],
           ranking=True, check=check_mc, trace_key="mc"),
        Op("binary", base + ["--estimator", "binary", "--K", ",".join(map(str, scale.binary_ks)),
                             "--out", str(binary_path)], check=check_binary),
        Op("counterexample", ["counterexample", "--out", str(counter_path)], check=check_counterexample),
        Op("repeat-mc", repeat_of="mc"),
    ]
    setup = [["synth", "--kind", "self-normalized", "--d", "3", "--m-x", "6", "--m-y", "4",
              "--seed", "38", "--out", str(problem_path)]]
    return Workload("rates", setup, ops, exact_tuples=sum(6 * 4**k for k in scale.exact_ks))


def mc_agreement(exact: dict, mc: dict, fisher_inv_norm: float, d: int, z: float = 4.0) -> None:
    """Exact and Monte Carlo agree within z times the propagated MC error.

    The CLI reports the largest batch-means standard error s of the
    information matrix I. With A = I^{-1}, first-order propagation bounds
    |d mse| <= |A|^2 sqrt(d) |dI|_max and |d norm_diff| <= |A|^2 d |dI|_max,
    where |A| <= |F^{-1}| + norm_diff(exact) by the triangle inequality.
    """
    a2 = (fisher_inv_norm + exact["norm_diff"]) ** 2
    err = z * mc["stderr"]
    for key, factor in (("mse", math.sqrt(d)), ("norm_diff", d)):
        claim(abs(mc[key] - exact[key]) <= a2 * factor * err,
              f"MC {key} {mc[key]:.5f} vs exact {exact[key]:.5f} at K={exact['k']:g} "
              f"differ by more than {a2 * factor * err:.5f}")


def binary_slope_claim(slope: float) -> None:
    claim(slope <= -0.9, f"binary norm_diff log-log slope {slope:.3f} is not <= -0.9")


def counterexample_claims(table: list[dict]) -> None:
    truth = {"binary": 3 / 7, "ranking": 1 / 3}
    for r in table:
        claim(abs(r["conditional_ratio"] - truth[r["estimator"]]) <= 1e-4,
              f"counterexample {r['estimator']} K={r['k']:g}: ratio {r['conditional_ratio']!r} "
              f"is not {truth[r['estimator']]:.6f}")
    by_k: dict = {}
    for r in table:
        by_k.setdefault(r["k"], {})[r["estimator"]] = r["d_metric"]
    for k, d in by_k.items():
        claim(d["binary"] > d["ranking"], f"counterexample K={k:g}: binary distance does not dominate")


# --------------------------------------------------------------------------
# replicate: empirical covariance of sqrt(n)(theta_hat - theta*) vs theory


def replicate(workdir: Path, seed: int, scale: Scale) -> Workload:
    problem_path = workdir / "features.json"
    common = ["replicate", "--problem", str(problem_path), "--K", "4", "--noise", "uniform",
              "--n", str(scale.replicate_n), "--replications", str(scale.replications),
              "--tol", "1e-7"]

    def check(estimator, out):
        def run():
            p = ref.Problem.load(problem_path)
            info = p.fisher() if estimator == "mle" else p.ranking_information(4)
            want = np.linalg.inv(info)
            summary = json.loads(out.read_text())
            theo = np.asarray(summary["theoretical"])
            emp = np.asarray(summary["empirical_cov"])
            err = float(np.linalg.norm(theo - want) / np.linalg.norm(want))
            if err > 1e-8:
                raise CheckError("exact", f"{estimator} theoretical covariance is {err:.2e} from the reference")
            close(summary["rel_frobenius_error"],
                  float(np.linalg.norm(emp - theo) / np.linalg.norm(theo)), f"{estimator} relative error")
            close(summary["theoretical_mse"], float(np.trace(want)) / want.shape[0],
                  f"{estimator} theoretical mse", rel=1e-8)
            replicate_claims(estimator, summary["rel_frobenius_error"],
                             summary["empirical_mse"], summary["theoretical_mse"])
        return run

    ops = []
    # master seeds are the acceptance gate's: the 25% / 20% bounds are
    # statistical, and a seed-driven R=300 study misses them about 1.6% of the time
    for estimator, master in (("mle", 1), ("ranking", 2)):
        out = workdir / f"replicate-{estimator}.json"
        ops.append(Op(estimator, common + ["--estimator", estimator, "--seed", str(master), "--out", str(out)],
                      ranking=estimator == "ranking", check=check(estimator, out)))
    ops.append(Op("repeat-mle", repeat_of="mle"))
    setup = [["synth", "--kind", "features", "--d", "2", "--m-x", "3", "--m-y", "4",
              "--seed", "23", "--out", str(problem_path)]]
    return Workload("replicate", setup, ops)


def replicate_claims(estimator: str, rel_error: float, emp_mse: float, theo_mse: float) -> None:
    claim(rel_error <= 0.25, f"{estimator} relative Frobenius error {rel_error:.3f} > 0.25")
    claim(abs(emp_mse - theo_mse) <= 0.2 * theo_mse,
          f"{estimator} empirical mse {emp_mse:.4f} is not within 20% of {theo_mse:.4f}")
