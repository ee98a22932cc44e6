"""compare.py: verdicts after the choosing-metrics guide, and failures
judged seed by seed."""

from perf_ledger import compare


def test_worse_than_the_bound_is_a_regression_or_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    worse = [value * 0.8 for value in steady]
    assert compare.judge(steady, worse, "higher", 0.1)["verdict"] == "regressed"
    assert compare.judge(steady, steady, "higher", 0.1)["verdict"] == "unchanged"
    noisy = [100.0, 130.0, 75.0, 120.0, 80.0, 110.0, 90.0, 125.0, 70.0, 100.0]
    drifted = [value * 0.85 for value in noisy[::-1]]
    assert compare.judge(noisy, drifted, "higher", 0.1)["verdict"] == "unresolved"


def test_a_gain_needs_nine_wins_in_ten_and_more_than_the_spread():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    better = [value * 1.2 for value in parent]
    assert compare.judge(parent, better, "higher", 0.1)["verdict"] == "improved"
    assert compare.judge(parent[:5], better[:5], "higher", 0.1)["verdict"] \
        == "unchanged"


def _record(seed, ops_failed, violations, digest="d"):
    return {"seed": seed, "ops_attempted": 2, "ops_failed": ops_failed,
            "oracle": {"violations": violations}, "correct": True,
            "digest": digest}


def test_failures_are_compared_seed_by_seed(capsys):
    # Seed 1 has a known baseline of one faulted home, seed 2 has none:
    # the same counts on the change side are no regression ...
    parent = [_record(1, 1, 1), _record(2, 0, 0)]
    assert compare._compare_failures("home_ev", parent, parent) == 0
    # ... but a violation that appears at seed 2 is one, although the
    # largest count over all seeds did not move.
    change = [_record(1, 1, 1), _record(2, 1, 1)]
    assert compare._compare_failures("home_ev", parent, change) == 1
    assert "seed 2" in capsys.readouterr().out


def test_failures_without_a_shared_seed_are_pooled():
    parent = [_record(1, 1, 1)]
    assert compare._compare_failures("home_ev", parent, [_record(3, 1, 1)]) == 0
    assert compare._compare_failures("home_ev", parent, [_record(3, 2, 2)]) == 1
