"""The deterministic cross-check battery must pass and stay stable."""

from conftest import SELFTEST_CHECKS

from fermatlab.selftest import SELFTEST_SEED, run_selftest


def test_battery_passes(fresh_prime_cache):
    result = run_selftest()
    assert result.passed
    assert result.failures == ()
    assert result.first_failure is None


def test_check_count_is_pinned():
    # a changed count means checks were added or lost; both deserve a look
    assert run_selftest().checks_run == SELFTEST_CHECKS


def test_deterministic_across_runs():
    a, b = run_selftest(), run_selftest()
    assert a == b


def test_seed_is_fixed():
    assert SELFTEST_SEED == 0x5EED
