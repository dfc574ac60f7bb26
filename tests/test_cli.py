"""End-to-end CLI behavior: files, manifests, reproducibility, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncelab import (
    ConditionalProblem,
    FitConfig,
    NoiseDistribution,
    NumericError,
    RegularizerConfig,
    SamplingConfig,
    binary_asymptotic_cov,
    fit,
    generate_dataset,
    noise_from_spec,
)
from ncelab import asymptotics
from ncelab.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    assert run(["synth", "--d", 2, "--m-x", 6, "--m-y", 4, "--seed", 3, "--out", path]) == 0
    return path


class TestSynth:
    def test_default_dimensions_match_protocol(self, tmp_path):
        out = tmp_path / "big.json"
        assert run(["synth", "--seed", 1, "--out", out]) == 0
        obj = json.loads(out.read_text())
        assert (obj["m_x"], obj["m_y"], obj["d"]) == (200, 100, 4)

    def test_byte_identical_rerun(self, tmp_path):
        out = tmp_path / "p.json"
        run(["synth", "--d", 2, "--m-x", 5, "--m-y", 3, "--seed", 9, "--out", out])
        first = out.read_bytes()
        run(["synth", "--d", 2, "--m-x", 5, "--m-y", 3, "--seed", 9, "--out", out])
        assert out.read_bytes() == first

    def test_degenerate_label_space_exits_2(self, tmp_path):
        assert run(["synth", "--m-y", 1, "--out", tmp_path / "x.json"]) == 2

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "p.json"
        run(["synth", "--d", 2, "--m-x", 5, "--m-y", 3, "--seed", 9, "--out", out])
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["output_paths"] == [str(out)]
        assert len(manifest["digest"]) == 16


class TestSeedsAndSizes:
    """A negative seed or a synthetic size below 1 exits 2 and writes nothing."""

    @pytest.mark.parametrize("command", ["synth", "replicate", "asymptotics",
                                         "asymptotics-singular-fisher", "asymptotics-exact",
                                         "fit-dataset"])
    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        problem, soft = tmp_path / "id.json", tmp_path / "soft.json"
        assert run(["synth", "--kind", "features", "--d", 2, "--m-x", 3, "--m-y", 4,
                    "--out", problem]) == 0
        assert run(["synth", "--d", 2, "--m-x", 6, "--m-y", 4, "--out", soft]) == 0
        data = tmp_path / "data.jsonl"
        data.write_text('{"provenance": {"k": 2}}\n{"x": 0, "y": 1, "neg": [0, 1]}\n')
        argv = {
            "synth": ["synth", "--d", 2, "--m-x", 3, "--m-y", 4],
            "replicate": ["replicate", "--problem", problem, "--n", 100, "--replications", 2],
            "asymptotics": ["asymptotics", "--problem", problem, "--K", 2, "--mode", "mc:100"],
            # the MLE Fisher information of this softmax problem is singular, and
            # the seed is checked before it is computed
            "asymptotics-singular-fisher": ["asymptotics", "--problem", soft, "--K", 2,
                                            "--mode", "mc:100"],
            # exact mode draws nothing, yet a negative seed is still an error
            "asymptotics-exact": ["asymptotics", "--problem", problem, "--K", 2],
            # a loaded dataset draws nothing, yet a negative seed is still an error
            "fit-dataset": ["fit", "--problem", soft, "--dataset", data, "--estimator", "mle"],
        }[command]
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run(argv + ["--seed", -1, "--out", out / "result.json"]) == 2
        assert "seed and stream must be nonnegative" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind, flags", [
        ("features", ["--d", 0]), ("features", ["--d", -1]), ("features", ["--m-x", -1]),
        ("self-normalized", ["--d", 0]), ("self-normalized", ["--d", -1]),
        ("self-normalized", ["--m-x", -1]), ("softmax", ["--d", 0]),
    ])
    def test_synth_sizes_below_1_exit_2_and_write_nothing(self, tmp_path, capsys, kind, flags):
        capsys.readouterr()
        argv = ["synth", "--kind", kind, "--m-y", 4, *flags, "--out", tmp_path / "p.json"]
        assert run(argv) == 2
        assert "bad synthetic sizes" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFit:
    def test_writes_report_trace_and_manifest(self, problem_file, tmp_path):
        out = tmp_path / "fit.json"
        code = run([
            "fit", "--problem", problem_file, "--estimator", "ranking",
            "--K", 3, "--n", 1500, "--noise", "unigram", "--seed", 5,
            "--max-iters", 400, "--out", out,
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["objective"] == "ranking"
        assert report["k"] == 3 and report["n"] == 1500
        assert report["n_evaluations"] >= report["iterations"] + 1
        assert report["metrics"]["kl"] >= 0
        trace = (tmp_path / "fit.trace.csv").read_text().splitlines()
        assert trace[0].startswith("# manifest=")
        assert trace[1] == "iter,objective,grad_norm,step"
        manifest = json.loads((tmp_path / "fit.manifest.json").read_text())
        assert "problem" in manifest["input_hashes"]
        eval_lines = (tmp_path / "fit.eval.csv").read_text().splitlines()
        assert eval_lines[1] == "objective,value,grad_norm,n,k,seed"
        cells = eval_lines[2].split(",")
        assert cells[0] == "ranking" and cells[3] == "1500" and cells[4] == "3"

    def test_byte_identical_rerun(self, problem_file, tmp_path):
        out = tmp_path / "fit.json"
        args = [
            "fit", "--problem", problem_file, "--estimator", "binary",
            "--context-bias", "--K", 2, "--n", 800, "--seed", 6,
            "--max-iters", 200, "--out", out,
        ]
        run(args)
        first = out.read_bytes(), (tmp_path / "fit.trace.csv").read_bytes()
        run(args)
        assert (out.read_bytes(), (tmp_path / "fit.trace.csv").read_bytes()) == first

    def test_dataset_round_trip(self, problem_file, tmp_path):
        ds_path = tmp_path / "data.jsonl"
        out1 = tmp_path / "f1.json"
        run([
            "fit", "--problem", problem_file, "--K", 2, "--n", 400, "--seed", 7,
            "--estimator", "mle", "--max-iters", 200,
            "--save-dataset", ds_path, "--out", out1,
        ])
        out2 = tmp_path / "f2.json"
        code = run([
            "fit", "--problem", problem_file, "--dataset", ds_path,
            "--estimator", "mle", "--max-iters", 200, "--out", out2,
        ])
        assert code == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["theta"] == b["theta"]

    def test_dataset_fit_takes_k_from_the_file(self, problem_file, tmp_path):
        ds_path = tmp_path / "data.jsonl"
        common = ["fit", "--problem", problem_file, "--estimator", "ranking", "--seed", 7,
                  "--max-iters", 200]
        assert run(common + ["--K", 3, "--n", 400, "--save-dataset", ds_path,
                             "--out", tmp_path / "generated.json"]) == 0
        reports = [json.loads((tmp_path / "generated.json").read_text())]
        for name, k_flag in (("default", []), ("k9", ["--K", 9])):
            out = tmp_path / f"{name}.json"
            assert run(common + ["--dataset", ds_path, *k_flag, "--out", out]) == 0
            reports.append(json.loads(out.read_text()))
        assert {r["k"] for r in reports} == {3}
        assert len({r["config_digest"] for r in reports}) == 1
        assert reports[1]["theta"] == reports[0]["theta"] == reports[2]["theta"]

    @pytest.mark.parametrize("estimator", ["mle", "ranking", "binary"])
    def test_dataset_fit_refuses_another_noise(self, problem_file, tmp_path, capsys, estimator):
        ds_path = tmp_path / "data.jsonl"
        common = ["fit", "--problem", problem_file, "--estimator", estimator, "--seed", 7,
                  "--max-iters", 200]
        assert run(common + ["--n", 400, "--save-dataset", ds_path,
                             "--out", tmp_path / "generated.json"]) == 0
        drawn = json.loads(ds_path.read_text().split("\n")[0])["provenance"]["noise"]
        problem = ConditionalProblem.load(problem_file)
        other = noise_from_spec("unigram-pow:3", problem.p_y).digest()
        assert drawn == NoiseDistribution.uniform(problem.m_y).digest() != other
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run(common + ["--dataset", ds_path, "--noise", "unigram-pow:3",
                             "--out", out / "other.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and drawn in err and other in err
        assert list(out.iterdir()) == []
        assert run(common + ["--dataset", ds_path, "--noise", "uniform",
                             "--out", out / "same.json"]) == 0

    def test_reg_alpha_matches_the_library_fit(self, problem_file, tmp_path):
        out = tmp_path / "fit.json"
        assert run([
            "fit", "--problem", problem_file, "--estimator", "ranking", "--K", 2,
            "--n", 300, "--seed", 4, "--reg-alpha", 0.3, "--reg-m", 3,
            "--max-iters", 60, "--out", out,
        ]) == 0
        problem = ConditionalProblem.load(problem_file)
        noise = NoiseDistribution.uniform(problem.m_y)
        data = generate_dataset(problem, 300, SamplingConfig(k=2, seed=4), noise)
        reports = [
            fit(problem.scoring, data, noise, FitConfig(
                objective="ranking", k=2, reg=reg, max_iters=60, seed=4,
            ))
            for reg in (RegularizerConfig(alpha=0.3, m=3, seed=4, stream=3), None)
        ]
        theta = json.loads(out.read_text())["theta"]
        assert theta == reports[0].theta.tolist() != reports[1].theta.tolist()

    @pytest.mark.parametrize("alpha", ["-0.5", "nan"])
    def test_negative_or_nan_reg_alpha_exits_2(self, problem_file, tmp_path, alpha):
        assert run([
            "fit", "--problem", problem_file, "--estimator", "ranking", "--K", 2,
            "--n", 300, "--reg-alpha", alpha, "--out", tmp_path / "x.json",
        ]) == 2

    def test_reg_m_below_1_exits_2_at_any_alpha(self, problem_file, tmp_path):
        for alpha in (0.0, 0.5):
            assert run([
                "fit", "--problem", problem_file, "--estimator", "ranking", "--K", 2,
                "--n", 300, "--reg-alpha", alpha, "--reg-m", 0, "--out", tmp_path / "x.json",
            ]) == 2
        assert not (tmp_path / "x.json").exists()

    def test_unknown_noise_exits_2(self, problem_file, tmp_path):
        assert run([
            "fit", "--problem", problem_file, "--noise", "zipf",
            "--out", tmp_path / "x.json",
        ]) == 2

    def test_missing_problem_file_exits_2(self, tmp_path):
        assert run([
            "fit", "--problem", tmp_path / "nope.json", "--out", tmp_path / "x.json",
        ]) == 2


class TestCounterexample:
    def test_reproduces_ratios(self, tmp_path, capsys):
        out = tmp_path / "ce.csv"
        assert run(["counterexample", "--out", out]) == 0
        # the default tol 1e-9 sits below the float-noise floor of half the
        # fits; which of them stall hinges on the objectives' last bits
        summary = capsys.readouterr().out.splitlines()[-1]
        m = re.fullmatch(
            r"fits: (\d+) of 8 converged, (\d+) stalled in the line search, "
            r"largest final \|g\| (\S+) \(tol 1e-09\)",
            summary,
        )
        assert m, summary
        assert (int(m[1]), int(m[2])) == (4, 4)
        assert 1e-9 < float(m[3]) < 1e-7
        lines = out.read_text().splitlines()
        assert lines[1] == "estimator,k,conditional_ratio,d_metric"
        rows = [line.split(",") for line in lines[2:]]
        ks = sorted({int(r[1]) for r in rows})
        assert ks == [1, 2, 5, 10]
        for row in rows:
            ratio = float(row[2])
            if row[0] == "binary":
                assert ratio == pytest.approx(3 / 7, abs=1e-4)
            else:
                assert ratio == pytest.approx(1 / 3, abs=1e-4)

    def test_manifest_records_no_seed(self, tmp_path):
        # the command takes no seed, so neither the manifest nor its arguments name one
        assert run(["counterexample", "--out", tmp_path / "ce.csv"]) == 0
        manifest = json.loads((tmp_path / "ce.manifest.json").read_text())
        assert "seed" not in manifest and "seed" not in manifest["arguments"]


@pytest.fixture()
def self_normalized_file(tmp_path):
    path = tmp_path / "sn.json"
    assert run(["synth", "--kind", "self-normalized", "--d", 3, "--m-x", 6,
                "--m-y", 4, "--seed", 38, "--out", path]) == 0
    return path


class TestAsymptotics:
    def test_budget_exit_code(self, self_normalized_file, tmp_path, capsys):
        # 6 contexts * C(4+256-1, 256) count vectors
        assert run([
            "asymptotics", "--problem", self_normalized_file, "--estimator", "ranking",
            "--K", "256", "--out", tmp_path / "r.csv",
        ]) == 4
        assert "needs 17173254 terms" in capsys.readouterr().err

    def test_exact_k12_within_budget(self, self_normalized_file, tmp_path):
        # 6 contexts, C(15, 12) = 455 count vectors each
        out = tmp_path / "r.csv"
        assert run([
            "asymptotics", "--problem", self_normalized_file, "--estimator", "ranking",
            "--K", "12", "--out", out,
        ]) == 0
        rows = out.read_text().splitlines()
        assert rows[2].startswith("ranking,12,")

    @pytest.mark.parametrize("grid", ["1,x", ""])
    def test_malformed_k_list_exits_2(self, self_normalized_file, tmp_path, capsys, grid):
        assert run([
            "asymptotics", "--problem", self_normalized_file, "--K", grid,
            "--out", tmp_path / "r.csv",
        ]) == 2
        assert capsys.readouterr().err == (
            f"validation error: --K expects comma-separated integers, got {grid!r}\n"
        )

    def test_rate_rows(self, tmp_path):
        path = tmp_path / "sn.json"
        run(["synth", "--kind", "self-normalized", "--d", 3, "--m-x", 6,
             "--m-y", 4, "--seed", 38, "--out", path])
        out = tmp_path / "rates.csv"
        assert run([
            "asymptotics", "--problem", path, "--estimator", "binary",
            "--K", "4,8,16", "--out", out,
        ]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        diffs = [float(r[2]) for r in rows]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_exact_rows_print_collapse_gap(self, tmp_path, capsys):
        path = tmp_path / "sn.json"
        run(["synth", "--kind", "self-normalized", "--d", 3, "--m-x", 6,
             "--m-y", 4, "--seed", 38, "--out", path])
        out = tmp_path / "exact.csv"
        capsys.readouterr()
        assert run([
            "asymptotics", "--problem", path, "--estimator", "ranking",
            "--K", "1,2,6", "--out", out,
        ]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        m = re.fullmatch(r"largest sandwich-collapse gap (\S+) \(tol 1e-08\)", last)
        assert m, last
        assert 0.0 <= float(m[1]) <= 1e-8
        header = out.read_text().splitlines()[1]
        assert header == "estimator,k,norm_diff,mse_gap,mse,mode,stderr"
        assert run([
            "asymptotics", "--problem", path, "--estimator", "ranking",
            "--K", "2", "--mode", "mc:640", "--out", tmp_path / "mc.csv",
        ]) == 0
        assert "sandwich-collapse gap" not in capsys.readouterr().out

    def test_mle_rows_constant(self, tmp_path):
        path = tmp_path / "id.json"
        run(["synth", "--kind", "features", "--d", 2, "--m-x", 3, "--m-y", 4,
             "--seed", 23, "--out", path])
        out = tmp_path / "mle.csv"
        assert run([
            "asymptotics", "--problem", path, "--estimator", "mle",
            "--K", "1,2,4,8", "--out", out,
        ]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        mses = {r[4] for r in rows}
        assert len(mses) == 1

    def test_mle_rejects_k_below_one(self, self_normalized_file, tmp_path, capsys):
        out = tmp_path / "mle.csv"
        assert run([
            "asymptotics", "--problem", self_normalized_file, "--estimator", "mle",
            "--K", "0,-3", "--out", out,
        ]) == 2
        assert capsys.readouterr().err == "validation error: K must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["mle", "binary"])
    def test_monte_carlo_mode_is_ranking_only(self, self_normalized_file, tmp_path, capsys,
                                              estimator):
        out = tmp_path / "mc.csv"
        assert run([
            "asymptotics", "--problem", self_normalized_file, "--estimator", estimator,
            "--K", "2", "--mode", "mc:640", "--out", out,
        ]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {estimator} covariance is exact only; mode 'mc' is for ranking\n"
        )
        assert not out.exists()

    def test_gauge_degenerate_problem_exits_3(self, problem_file, tmp_path):
        # per-label linear models carry a softmax gauge: fisher is singular
        assert run([
            "asymptotics", "--problem", problem_file, "--estimator", "mle",
            "--K", "1", "--out", tmp_path / "x.csv",
        ]) == 3


class TestReplicate:
    def test_summary_json(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        run(["synth", "--kind", "features", "--d", 2, "--m-x", 3, "--m-y", 4,
             "--seed", 23, "--out", path])
        out = tmp_path / "rep.json"
        capsys.readouterr()
        assert run([
            "replicate", "--problem", path, "--estimator", "mle", "--n", 1000,
            "--replications", 12, "--seed", 2, "--out", out,
        ]) == 0
        summary = json.loads(out.read_text())
        assert summary["replications"] == 12
        assert summary["converged"] == 12 and summary["max_iters_reached"] == 0
        assert 0.0 < summary["max_grad_norm"] <= 1e-7
        printed = capsys.readouterr().out
        assert "converged 12/12 (0 at max-iters)" in printed
        assert f"max |g| {summary['max_grad_norm']:.3e}" in printed

    def test_summary_counts_fits_stopped_at_max_iters(self, tmp_path):
        path = tmp_path / "id.json"
        run(["synth", "--kind", "features", "--d", 2, "--m-x", 3, "--m-y", 4,
             "--seed", 23, "--out", path])
        out = tmp_path / "rep.json"
        assert run([
            "replicate", "--problem", path, "--estimator", "ranking", "--n", 500,
            "--replications", 3, "--max-iters", 2, "--out", out,
        ]) == 0
        summary = json.loads(out.read_text())
        assert summary["converged"] == 0 and summary["max_iters_reached"] == 3
        assert summary["max_grad_norm"] > 1e-7
        cov = np.asarray(summary["empirical_cov"])
        assert cov.shape == (2, 2)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)


    def test_numeric_error_of_a_fit_keeps_exit_code_3(self, tmp_path, monkeypatch, capsys):
        def failing_fit(*args):
            raise NumericError("objective non-finite")

        monkeypatch.setattr(asymptotics, "fit", failing_fit)
        path = tmp_path / "id.json"
        run(["synth", "--kind", "features", "--d", 2, "--m-x", 3, "--m-y", 4,
             "--seed", 23, "--out", path])
        assert run([
            "replicate", "--problem", path, "--estimator", "mle", "--n", 100,
            "--replications", 3, "--out", tmp_path / "rep.json",
        ]) == 3
        assert "replication 0 failed: objective non-finite" in capsys.readouterr().err

    def test_binary_on_a_self_normalized_problem(self, self_normalized_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run([
            "replicate", "--problem", self_normalized_file, "--estimator", "binary",
            "--K", 4, "--n", 500, "--replications", 3, "--seed", 1, "--out", out,
        ]) == 0
        summary = json.loads(out.read_text())
        problem = ConditionalProblem.load(self_normalized_file)
        expected = binary_asymptotic_cov(
            problem, problem.scoring, problem.theta_star, problem.gamma_star,
            NoiseDistribution.uniform(problem.m_y), 4,
        )
        assert summary["theoretical"] == expected.inverse.tolist()
        assert summary["converged"] == 3


class TestThreadCount:
    SOFTMAX = ["--d", "4", "--m-x", "50", "--m-y", "20", "--seed", "42"]
    FEATURES = ["--kind", "features", "--d", "2", "--m-x", "3", "--m-y", "4", "--seed", "23"]
    SELF_NORMALIZED = ["--kind", "self-normalized", "--d", "3", "--m-x", "6", "--m-y", "4",
                       "--seed", "38"]

    @pytest.mark.parametrize(
        "synth, args",
        [
            (SOFTMAX, ["fit", "--estimator", "ranking", "--K", "4", "--n", "2000"]),
            (SOFTMAX, ["fit", "--estimator", "binary", "--context-bias", "--K", "4",
                       "--n", "2000"]),
            (FEATURES, ["replicate", "--estimator", "ranking", "--K", "4", "--n", "2000",
                        "--replications", "20"]),
            # K=8 over m_y=4 labels: every row folds repeated candidates
            (FEATURES, ["fit", "--estimator", "ranking", "--K", "8", "--n", "2000"]),
            (FEATURES, ["fit", "--estimator", "ranking", "--K", "8", "--n", "2000",
                        "--reg-alpha", "0.5"]),
            (FEATURES, ["fit", "--estimator", "binary", "--K", "8", "--n", "2000",
                        "--reg-alpha", "0.5"]),
            (SELF_NORMALIZED, ["asymptotics", "--estimator", "ranking", "--K", "1,2,4"]),
            (SELF_NORMALIZED, ["asymptotics", "--estimator", "ranking", "--K", "8,16",
                               "--mode", "mc:20000"]),
            (SELF_NORMALIZED, ["asymptotics", "--estimator", "binary", "--K", "4,8"]),
            (None, ["counterexample"]),
        ],
        ids=["fit-ranking", "fit-binary-bias", "replicate", "fit-ranking-folded",
             "fit-ranking-folded-reg", "fit-binary-reg", "asymptotics-ranking-exact",
             "asymptotics-ranking-mc", "asymptotics-binary", "counterexample"],
    )
    def test_results_identical_at_one_and_two_blas_threads(self, tmp_path, synth, args):
        if synth is not None:  # counterexample builds its own problem and draws nothing
            problem = tmp_path / "problem.json"
            assert run(["synth", *synth, "--out", problem]) == 0
            args = [*args, "--problem", str(problem), "--seed", "7"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        results = []
        for threads in ("1", "2"):
            # the manifest digest covers the output path, so both runs write
            # the same relative name, each in its own directory
            workdir = tmp_path / f"threads{threads}"
            workdir.mkdir()
            env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run(
                [sys.executable, "-m", "ncelab.cli", *args, "--out", "result.json"],
                cwd=workdir, env=env, check=True, capture_output=True,
            )
            results.append({path.name: path.read_bytes() for path in sorted(workdir.iterdir())
                            if not path.name.endswith(".manifest.json")})
        assert "result.json" in results[0]
        assert results[0] == results[1]


class TestLm:
    def test_help_lists_no_minibatch_flags(self, capsys):
        with pytest.raises(SystemExit):
            run(["lm", "--help"])
        usage = capsys.readouterr().out
        for flag in ("--batch-size", "--epochs", "--resample-negatives"):
            assert flag not in usage

    def test_bundled_corpus_run(self, tmp_path):
        out = tmp_path / "lm.json"
        assert run([
            "lm", "--estimator", "mle", "--max-iters", 30, "--out", out,
        ]) == 0
        report = json.loads(out.read_text())
        assert report["valid_ppl"] >= 1.0
        evals = (tmp_path / "lm.evals.csv").read_text().splitlines()
        assert evals[1] == "iteration,train_ppl,valid_ppl"

    def test_custom_corpus_and_unigram_noise(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text(("a b c d " * 400).strip())
        out = tmp_path / "lm.json"
        assert run([
            "lm", "--corpus", corpus, "--estimator", "ranking", "--K", 3,
            "--dim", 4, "--max-iters", 40, "--noise", "unigram-pow:0.75",
            "--out", out,
        ]) == 0
        fit = json.loads(out.read_text())["fit"]
        assert fit["n_evaluations"] > fit["iterations"]
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.endswith(
            f"converged={fit['converged']} iterations={fit['iterations']} "
            f"|g|={fit['grad_norm']:.3e} evaluations={fit['n_evaluations']}"
        )

    def test_negative_reg_alpha_exits_2(self, tmp_path):
        assert run([
            "lm", "--reg-alpha", -1, "--max-iters", 1, "--out", tmp_path / "lm.json",
        ]) == 2
        assert not (tmp_path / "lm.json").exists()

    @pytest.mark.parametrize("flags", [["--reg-m", 0], ["--dim", -1], ["--dim", 0]])
    def test_bad_reg_m_or_dim_exits_2_and_writes_nothing(self, tmp_path, capsys, flags):
        capsys.readouterr()
        assert run(["lm", *flags, "--max-iters", 1, "--out", tmp_path / "lm.json"]) == 2
        assert capsys.readouterr().err.startswith("validation error:")
        assert list(tmp_path.iterdir()) == []

    def test_empty_corpus_exits_2(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("   \n")
        assert run(["lm", "--corpus", corpus, "--out", tmp_path / "x.json"]) == 2


def _dataset_file(tmp_path, records, provenance=None):
    path = tmp_path / "data.jsonl"
    header = {"provenance": {"k": 2} if provenance is None else provenance}
    lines = [json.dumps(header)] + [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n")
    return ["fit", "--problem", tmp_path / "problem.json", "--dataset", path]


def _problem_with(tmp_path, **fields):
    path = tmp_path / "bad_problem.json"
    obj = json.loads((tmp_path / "problem.json").read_text())
    path.write_text(json.dumps({**obj, **fields}))
    return ["fit", "--problem", path]


def _features_problem(tmp_path):
    path = tmp_path / "id.json"
    assert run(["synth", "--kind", "features", "--d", 2, "--m-x", 3, "--m-y", 4,
                "--out", path]) == 0
    return ["replicate", "--problem", path, "--replications", 2]


MALFORMED_INPUTS = {
    "ragged-negatives": lambda tmp: _dataset_file(
        tmp, [{"x": 0, "y": 1, "neg": [0, 1]}, {"x": 1, "y": 0, "neg": [2]}]
    ),
    "non-integer-x": lambda tmp: _dataset_file(tmp, [{"x": "a", "y": 1, "neg": [0, 1]}]),
    "no-negatives": lambda tmp: _dataset_file(tmp, [{"x": 0, "y": 1, "neg": []}]),
    "list-provenance": lambda tmp: _dataset_file(
        tmp, [{"x": 0, "y": 1, "neg": [0, 1]}], provenance=[1]
    ),
    "header-only-string-k": lambda tmp: _dataset_file(tmp, [], provenance={"k": "x"}),
    "header-only-negative-k": lambda tmp: _dataset_file(tmp, [], provenance={"k": -1}),
    # a header k or n that the records contradict would enter the data digest
    "header-k-disagrees": lambda tmp: _dataset_file(
        tmp, [{"x": 0, "y": 1, "neg": [0, 1]}, {"x": 1, "y": 0, "neg": [2, 2]}],
        provenance={"k": 5, "n": 2},
    ),
    "header-n-disagrees": lambda tmp: _dataset_file(
        tmp, [{"x": 0, "y": 1, "neg": [0, 1]}, {"x": 1, "y": 0, "neg": [2, 2]}],
        provenance={"k": 2, "n": 9},
    ),
    "non-integer-m_x": lambda tmp: _problem_with(tmp, m_x="x"),
    # a hand-written problem whose scorer has no parameters
    "softmax-d-0": lambda tmp: _problem_with(tmp, d=0, features=[], theta_star=[]),
    "features-d-0": lambda tmp: _problem_with(
        tmp, variant="linear-features", d=0, features=[], theta_star=[]
    ),
    "non-string-variant": lambda tmp: _problem_with(tmp, variant=3),
    "fit-negative-n": lambda tmp: ["fit", "--problem", tmp / "problem.json", "--n", -5],
    "replicate-negative-n": lambda tmp: _features_problem(tmp) + ["--n", -1],
    # a softmax problem's ranking covariance is singular (exit 3) if it is built first
    "replicate-softmax-negative-n": lambda tmp: [
        "replicate", "--problem", tmp / "problem.json", "--estimator", "ranking",
        "--replications", 2, "--n", -1,
    ],
    "fit-negative-noise-power": lambda tmp: [
        "fit", "--problem", tmp / "problem.json", "--noise", "unigram-pow:-1",
    ],
    "lm-negative-noise-power": lambda tmp: ["lm", "--noise", "unigram-pow:-1"],
    # the bounds check runs before the regularizer's workspace is built
    "fit-dataset-x-out-of-range-reg": lambda tmp: _dataset_file(
        tmp, [{"x": 6, "y": 1, "neg": [0, 1]}]
    ) + ["--estimator", "mle", "--reg-alpha", 0.3],
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
    def test_exits_2_with_validation_error(self, problem_file, tmp_path, capsys, case):
        argv = MALFORMED_INPUTS[case](tmp_path) + ["--out", tmp_path / "out.json"]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("validation error:")

    def test_replicate_checks_n_before_the_covariance(self, problem_file, tmp_path, capsys):
        argv = MALFORMED_INPUTS["replicate-softmax-negative-n"](tmp_path)
        capsys.readouterr()
        assert run(argv + ["--out", tmp_path / "out.json"]) == 2
        assert "n must be >= 0" in capsys.readouterr().err

    def test_fit_and_lm_share_the_noise_power_message(self, problem_file, tmp_path, capsys):
        errors = []
        for case in ("fit-negative-noise-power", "lm-negative-noise-power"):
            capsys.readouterr()
            assert run(MALFORMED_INPUTS[case](tmp_path) + ["--out", tmp_path / "o.json"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "power must be finite and >= 0" in errors[0]
