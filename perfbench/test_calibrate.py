"""Tests for the host-speed calibration behind reference seconds."""

from __future__ import annotations

import pytest

from perfbench.calibrate import (
    REFERENCE_KERNEL_S,
    HostSampler,
    calibrate,
    kernel,
    reference_seconds,
)


def test_kernel_is_deterministic():
    assert kernel() == kernel()


def test_calibrate_times_the_kernel():
    assert calibrate(repeats=1) > 0.0


def test_reference_seconds_at_reference_speed_are_wall_seconds():
    assert reference_seconds(2.5, REFERENCE_KERNEL_S) == pytest.approx(2.5)


def test_a_slow_host_shrinks_wall_time_back_to_reference_speed():
    # The kernel ran twice as slowly as on the reference host, so did the job.
    assert reference_seconds(4.0, 2 * REFERENCE_KERNEL_S) == pytest.approx(2.0)
    assert reference_seconds(1.0, REFERENCE_KERNEL_S / 2) == pytest.approx(2.0)


def test_sampler_clock_leaves_out_the_time_spent_sampling():
    sampler = HostSampler()
    start = sampler.clock()
    sampler.sample()
    sampler.sample()
    assert len(sampler.samples) == 2
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert sampler.clock() - start < sampler.spent


def test_disabled_sampler_takes_no_samples():
    sampler = HostSampler(enabled=False)
    sampler.sample()
    assert sampler.samples == [] and sampler.spent == 0.0
