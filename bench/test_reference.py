"""The scaling of op times to the reference host, on hand-made numbers.

Run with: PYTHONPATH=src python -m pytest bench
"""

import pytest

import reference

MS = reference.REFERENCE_MS / 1000   # the kernel's time on the reference host, in seconds


def test_a_steady_host_scales_every_op_by_the_same_factor():
    kernel = [2 * MS] * 5                                    # a host twice as slow
    scaled = reference.scale_to_reference([0.1, 0.3, 0.1, 0.3], kernel)
    assert scaled == pytest.approx([0.05, 0.15, 0.05, 0.15])


def test_each_op_takes_the_mean_of_the_kernel_runs_on_either_side():
    kernel = [MS, 3 * MS, 1.5 * MS]
    assert reference.scale_to_reference([0.02, 0.03], kernel) == pytest.approx([0.01, 0.03 / 2.25])


def test_a_slow_moment_of_the_host_cancels_out():
    kernel = [MS, MS, 1.6 * MS, 1.6 * MS, MS]
    ops = [0.02, 0.026, 0.032, 0.026]     # the same op; the host slows and recovers
    assert reference.scale_to_reference(ops, kernel) == pytest.approx([0.02] * 4)


def test_unpaired_ops_are_scaled_by_the_median_kernel_time_of_the_run():
    kernel = [MS, 2 * MS, 2 * MS, 5 * MS]
    assert reference.scale_to_reference([0.2, 0.3, 0.4], kernel, paired=False) \
        == pytest.approx([0.1, 0.15, 0.2])


def test_kernel_times_must_flank_every_op():
    with pytest.raises(ValueError):
        reference.scale_to_reference([0.02, 0.03], [MS, MS])
