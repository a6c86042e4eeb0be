import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    import bench_pairs
    return bench_pairs


def test_spread_is_numpy_linear_quartiles(bench_pairs):
    s = bench_pairs.spread([4.0, 1.0, 3.0, 2.0, 10.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.0, 3.0, 4.0)
    s = bench_pairs.spread([1.0, 2.0, 3.0, 4.0])
    assert (s["q1"], s["median"], s["q3"]) == (1.75, 2.5, 3.25)
    assert s["runs"] == [1.0, 2.0, 3.0, 4.0]


def test_compare_gain_rule(bench_pairs):
    parent = [68.0, 68.1, 68.2, 68.0, 68.1, 68.3, 68.0, 68.2, 68.1, 68.1]
    change = [57.6, 57.5, 57.7, 57.6, 57.6, 57.5, 57.6, 57.7, 57.6, 68.2]  # the last pair is lost
    got = bench_pairs.compare(parent, change, "lower", 0.05)
    assert got["change_better_in"] == "9/10"
    assert got["parent"]["median"] == pytest.approx(68.1)
    assert got["parent_iqr"] == pytest.approx(68.175 - 68.025)
    assert got["change"]["median"] == pytest.approx(57.6)
    assert got["relative_change"] == pytest.approx(57.6 / 68.1 - 1.0)
    assert got["gain_met"] and got["within_bound"]
    # 8/10 is too few pairs; a tie counts for neither side
    assert not bench_pairs.compare(parent, change[:8] + [68.1, 68.2], "lower")["gain_met"]
    # every pair won, but the gain is inside the parent's spread
    noisy = [3.0, 2.6, 3.4, 2.5, 3.5, 2.9, 3.1, 2.7, 3.3, 3.0]
    small = [x - 0.1 for x in noisy]
    got = bench_pairs.compare(noisy, small, "lower")
    assert got["change_better_in"] == "10/10" and not got["gain_met"]
    # higher-is-better metrics flip the sign
    assert bench_pairs.compare(change, parent, "higher")["change_better_in"] == "9/10"


def test_compare_bound(bench_pairs):
    parent = [2.0, 2.1, 1.9, 2.0]
    assert bench_pairs.compare(parent, [2.4, 2.5, 2.5, 2.5], "lower", 0.25)["within_bound"]
    assert not bench_pairs.compare(parent, [2.6, 2.5, 2.6, 2.6], "lower", 0.25)["within_bound"]
    with pytest.raises(ValueError):
        bench_pairs.compare(parent, parent[:3])


def test_summarize_pairs(bench_pairs):
    def side(rss, wall, failed=0, digest="a"):
        return {"metrics": {"oracle_suite.peak_rss_mb": rss, "oracle_suite.wall_s": wall},
                "failed": failed, "digests": {"oracle_suite": {"validate": digest}}}
    pairs = [{"seed": 1700 + k, "first": ("parent", "change")[k % 2],
              "parent": side(68.0 + 0.1 * (k % 3), 3.0),
              "change": side(57.6, 2.9, failed=int(k == 3), digest="b" if k == 5 else "a")}
             for k in range(10)]
    metrics = {"peak_rss_mb": {"better": "lower", "bound": 0.05}, "wall_s": {"better": "lower", "bound": 0.25}}
    got = bench_pairs.summarize(pairs, metrics)
    assert got["seeds"] == list(range(1700, 1710))
    assert got["first"][:3] == ["parent", "change", "parent"]
    rss = got["end_to_end"]["oracle_suite"]["peak_rss_mb"]
    assert rss["change_better_in"] == "10/10" and rss["gain_met"] and rss["within_bound"]
    wall = got["end_to_end"]["oracle_suite"]["wall_s"]
    assert wall["parent_iqr"] == 0.0 and wall["gain_met"]
    assert got["runs_with_failed_ops"] == {"parent": 0, "change": 1}
    assert got["digests_parent_vs_change"]["oracle_suite"] == {
        "identical_seeds": "9/10", "differing": [{"seed": 1705, "keys": ["validate"]}]}
    assert bench_pairs.seed_range("1701-1703") == [1701, 1702, 1703]
    assert bench_pairs.seed_range("5,9") == [5, 9]
