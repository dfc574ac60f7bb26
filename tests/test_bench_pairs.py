"""Summary math of scripts/bench_pairs.py on canned benchmark results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def side(wall, rss=70.0, failed=0, correct=True):
    return {
        "machine": {"nproc": 2},
        "result": {
            "attempted": 4, "failed": failed, "correct": correct,
            "metrics": {"wall_s": {"unit": "s", "value": wall},
                        "peak_rss_mib": {"unit": "MiB", "value": rss}},
        },
    }


def canned(parent_walls, change_walls, **change_kw):
    return [
        {"seed": i, "first": "parent" if i % 2 == 0 else "change",
         "parent": side(p), "change": side(c, **change_kw)}
        for i, (p, c) in enumerate(zip(parent_walls, change_walls))
    ]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_medians_and_gain():
    parent = [7.0, 7.4, 7.8, 7.2, 7.6, 7.1, 7.5, 7.3, 7.7, 7.9]
    change = [3.3, 3.1, 3.4, 3.2, 8.0, 3.0, 3.5, 3.3, 3.6, 3.2]
    out = bench_pairs.summarize(canned(parent, change), {"wall_s": True})
    wall = out["metrics"]["wall_s"]
    assert out["pairs"] == 10 and wall["unit"] == "s"
    assert wall["change_wins"] == 9
    assert wall["parent"] == pytest.approx({"median": 7.45, "q1": 7.225, "q3": 7.675})
    assert wall["change"]["median"] == pytest.approx(3.3)
    assert wall["gain"] is True
    # equal memory on both sides: ties count for neither side, and no gain
    rss = out["metrics"]["peak_rss_mib"]
    assert rss["change_wins"] == 0 and rss["gain"] is False


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [7.0] * 10
    change = [3.0] * 8 + [9.0] * 2
    wall = bench_pairs.summarize(canned(parent, change), {})["metrics"]["wall_s"]
    assert wall["change_wins"] == 8 and wall["gain"] is False


def test_gain_needs_ten_pairs():
    wall = bench_pairs.summarize(canned([7.0, 7.1, 7.2, 7.3, 7.4], [3.0] * 5), {})["metrics"]["wall_s"]
    assert wall["change_wins"] == 5 and wall["gain"] is False


def test_gain_needs_the_medians_apart_by_more_than_the_parent_iqr():
    parent = [5.0, 9.0] * 5
    change = [4.0, 8.0] * 5
    wall = bench_pairs.summarize(canned(parent, change), {})["metrics"]["wall_s"]
    assert wall["change_wins"] == 10
    assert wall["parent"]["q3"] - wall["parent"]["q1"] == 4.0
    assert wall["gain"] is False


def test_higher_is_better_flips_the_wins():
    wall = bench_pairs.summarize(canned([1.0, 2.0], [3.0, 1.0]), {"wall_s": False})
    assert wall["metrics"]["wall_s"]["change_wins"] == 1


def test_failed_share_and_correctness_per_side():
    out = bench_pairs.summarize(canned([1.0, 1.0], [1.0, 1.0], failed=1), {})
    assert out["parent_failed_share"] == 0.0 and out["change_failed_share"] == 0.25
    assert out["parent_all_correct"] and out["change_all_correct"]


def test_run_length_and_directions_come_from_the_benchmark_spec(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 20, "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "better": "higher"},
    ]}))
    assert bench_pairs.read_spec(tmp_path) == (
        20, {"wall_s": True, "ops_per_s": False}, {"wall_s": 0.25}
    )


def test_regression_is_a_median_worse_by_more_than_the_bound():
    # parent median 10.0, bound 0.1: worse by more than 1.0 is a regression
    parent = [9.0, 10.0, 11.0]
    for change, regressed in (([10.5, 11.0, 11.5], False), ([10.5, 11.5, 12.0], True)):
        wall = bench_pairs.summarize(canned(parent, change), {"wall_s": True},
                                     {"wall_s": 0.1})["metrics"]["wall_s"]
        assert wall["regression"] is regressed
    # higher is better: a drop below 0.9 x the parent's median regresses
    out = bench_pairs.summarize(canned(parent, [8.5, 8.9, 9.5]), {"wall_s": False},
                                {"wall_s": 0.1})
    assert out["metrics"]["wall_s"]["regression"] is True
    # no bound, no regression flag raised
    rss = out["metrics"]["peak_rss_mib"]
    assert rss["regression"] is False


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    # parent median 10.0, IQR 3.0: wider than a 0.25 bound (2.5), within a 0.5 bound (5.0)
    parent = [7.0, 9.0, 10.0, 12.0, 13.0]
    for change, bound, unresolved in (
        ([9.5, 10.0, 10.5, 9.0, 11.0], 0.25, True),
        ([9.5, 10.0, 10.5, 9.0, 11.0], 0.5, False),
        # every change run beats every parent run: resolved however wide the spread
        ([6.0, 5.5, 6.5, 5.0, 6.9], 0.25, False),
        # one change run does not: unresolved again
        ([6.0, 5.5, 6.5, 5.0, 7.5], 0.25, True),
    ):
        out = bench_pairs.summarize(canned(parent, change), {"wall_s": True}, {"wall_s": bound})
        assert out["metrics"]["wall_s"]["unresolved"] is unresolved
    # higher is better: the change must beat every parent run from above
    out = bench_pairs.summarize(canned(parent, [14.0] * 5), {"wall_s": False}, {"wall_s": 0.25})
    assert out["metrics"]["wall_s"]["unresolved"] is False
    # no bound, never unresolved
    assert out["metrics"]["peak_rss_mib"]["unresolved"] is False


def test_revision_needs_a_git_checkout(tmp_path):
    with pytest.raises(SystemExit, match="not a git checkout"):
        bench_pairs.revision(tmp_path)


def test_sides_record_each_checkout_revision_and_absolute_path(tmp_path, monkeypatch):
    for name in ("parent", "change"):
        checkout = tmp_path / name
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25}]}))
        git = ["git", "-C", str(checkout), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run(["git", "init", "-q", str(checkout)], check=True)
        subprocess.run(git + ["add", "BENCHMARK.json"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", name], check=True)
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *args: side(1.0))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "parent", "--change", "./change", "--workload", "lm",
                             "--pairs", "1", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["paths"] == {"parent": str(tmp_path.resolve() / "parent"),
                            "change": str(tmp_path.resolve() / "change")}
    assert set(doc["sides"]) == {"parent", "change"}
    assert all(len(rev) >= 7 and not rev.endswith("-dirty") for rev in doc["sides"].values())
