"""Smoke test of the benchmark: every workload at toy size, every check shown
to reject a perturbed output.

    python3 -m pytest -q benchmarks/smoke.py

Toy sizes are too small for the paper's claims (a ranking fit on 3,000
examples does not reach KL 0.01), so the toy runs assert that no *exact*
check fails: outputs agree with the independent recomputations. Claims
are exercised on outputs that pass them and on perturbed ones that do not.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import CheckError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_toy_run_reports_every_metric(name, trace, tmp_path):
    args = argparse.Namespace(workload=name, seed=7, seconds=0.0, trace=trace)
    result = run.measure(args, tmp_path, scale=wl.TOY)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] >= len(wl.build(name, tmp_path, 7, wl.TOY).ops) * (1 + trace)
    assert 0 <= result["failed"] <= result["attempted"]
    assert [p for p in result["problems"] if p[0] == "exact"] == []


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_without_sources_the_benchmark_refuses(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "lm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --------------------------------------------------------------------------
# perturbed outputs


@pytest.fixture(scope="module")
def toy_outputs(tmp_path_factory):
    """One toy round of every workload; returns {workload: {op name: op}}."""
    out = {}
    for name in wl.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        workload = wl.build(name, workdir, 7, wl.TOY)
        run.run_setup(workload)
        run.Round(workload).run()
        out[name] = {op.name: op for op in workload.ops}
    return out


def edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def edit_csv(path: Path, row: int, column: str, value) -> None:
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    cells[header.index(column)] = repr(value(float(cells[header.index(column)])))
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def scale_key(key, factor):
    return lambda obj: obj.update({key: obj[key] * factor})


PERTURBATIONS = {
    "fit KL": ("consistency", "binary", "binary.json",
               lambda p: edit_json(p, lambda o: o["metrics"].update(kl=o["metrics"]["kl"] * 1.001))),
    "fit objective": ("consistency", "binary", "binary.json",
                      lambda p: edit_json(p, lambda o: o.__setitem__("final_objective", o["final_objective"] + 1e-6))),
    "fit trace": ("consistency", "binary", "binary.trace.csv",
                  lambda p: edit_csv(p, 3, "objective", lambda v: v - 1.0)),
    "lm perplexity": ("lm", "mle", "lm-mle.json", lambda p: edit_json(p, scale_key("valid_ppl", 1.001))),
    "lm log Z": ("lm", "mle", "lm-mle.json", lambda p: edit_json(p, scale_key("log_z_var", 1.01))),
    "negative mse_gap": ("rates", "exact-k1", "exact-k1.csv",
                         lambda p: edit_csv(p, 0, "mse_gap", lambda v: -v)),
    "brute-force mse": ("rates", "exact-k2", "exact-k2.csv",
                        lambda p: edit_csv(p, 0, "mse", lambda v: v * 1.001)),
    "monotone norm_diff": ("rates", "exact-k3", "exact-k2.csv",
                           lambda p: edit_csv(p, 0, "norm_diff", lambda v: v * 100)),
    "MC agreement": ("rates", "mc", "mc.csv",
                     lambda p: [edit_csv(p, 0, col, lambda v: v + 10.0) for col in ("mse", "mse_gap")]),
    "binary slope": ("rates", "binary", "binary.csv",
                     lambda p: [edit_csv(p, i, "norm_diff", lambda v: 1.0) for i in range(3)]),
    "counterexample 1/3 for binary": ("rates", "counterexample", "counterexample.csv",
                                      lambda p: edit_csv(p, 0, "conditional_ratio", lambda v: 1 / 3)),
    "replicate theory": ("replicate", "mle", "replicate-mle.json",
                         lambda p: edit_json(p, lambda o: o["theoretical"][0].__setitem__(0, o["theoretical"][0][0] * 1.01))),
    "replicate error": ("replicate", "ranking", "replicate-ranking.json",
                        lambda p: edit_json(p, scale_key("rel_frobenius_error", 1.01))),
}


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_check_rejects_perturbed_output(case, toy_outputs):
    workload, op_name, filename, mutate = PERTURBATIONS[case]
    op = toy_outputs[workload][op_name]
    path = wl.out_path(op.argv).parent / filename
    original = path.read_bytes()
    try:
        try:
            op.check()
        except CheckError as exc:
            assert exc.kind == "claim"  # toy sizes may miss a claim, never a recomputation
        mutate(path)
        with pytest.raises(CheckError):
            op.check()
    finally:
        path.write_bytes(original)


def test_rerun_with_changed_bytes_is_reported(toy_outputs):
    op = toy_outputs["lm"]["mle"]
    out = wl.out_path(op.argv)
    original = out.read_bytes()
    rnd = run.Round(None)

    def drifting_cli(argv):
        out.write_bytes(original + b" ")
        return 0

    try:
        assert rnd._same_bytes_on_rerun(drifting_cli, op)
    finally:
        out.write_bytes(original)
    assert rnd.problems and rnd.problems[0][0] == "exact"


def test_claims_accept_good_and_reject_bad_figures():
    wl.fit_kl_claim("ranking", 0.005, 20_000)
    wl.fit_kl_claim("binary", 0.31, 20_000)
    wl.lm_ppl_claim("mle", 19.0, 7.2, 77.2)
    wl.lm_pair_claims(19.0, 19.4, 5.9, 0.2)
    wl.replicate_claims("mle", 0.1, 2.1, 2.0)
    wl.binary_slope_claim(-1.0)
    bad = [
        lambda: wl.fit_kl_claim("ranking", 0.02, 20_000),
        lambda: wl.fit_kl_claim("binary", 0.01, 20_000),
        lambda: wl.lm_ppl_claim("mle", 80.0, 7.2, 77.2),
        lambda: wl.lm_ppl_claim("mle", 6.0, 7.2, 77.2),
        lambda: wl.lm_pair_claims(19.0, 21.0, 5.9, 0.2),
        lambda: wl.lm_pair_claims(19.0, 19.4, 5.9, 1.0),
        lambda: wl.replicate_claims("ranking", 0.3, 2.1, 2.0),
        lambda: wl.replicate_claims("ranking", 0.1, 2.5, 2.0),
        lambda: wl.binary_slope_claim(-0.5),
    ]
    for case in bad:
        with pytest.raises(CheckError):
            case()


def test_reference_chain_reproduces_the_bundled_corpus_figures():
    train, valid = ref.split_corpus(wl.CORPUS.read_text())
    vocab = ref.vocabulary(train)
    unigram = ref.unigram_perplexity(ref.encode(train, vocab), ref.encode(valid, vocab), len(vocab))
    index, step = ref.chain_model(wl.MAKE_CORPUS)
    assert np.allclose(step.sum(axis=1), 1.0)
    assert 6.5 < ref.chain_perplexity(index, step, valid) < 8.0
    assert abs(unigram - 77.2) < 0.05
