import pytest
from scipy import stats

from fisherwatch.validate import null_calibration, null_statistic_sample


def test_gaussian_ks_distance_equals_scipy_kstest():
    # statistics.NormalDist and scipy round the Gaussian CDF on their own,
    # so the two may part in the last bit on another sample
    args = (10, 40, 40, 200)
    ks = null_calibration(*args, seed=3)["ks_statistic_vs_gaussian"]
    want = stats.kstest(null_statistic_sample(*args, seed=3), "norm").statistic
    assert ks == pytest.approx(want, rel=0.0, abs=1e-15)
