"""Unit tests for population schedules."""

import pytest

from repro.workload.schedules import PopulationSchedule, ramp, steps


class TestPopulationSchedule:
    def test_single_point_is_constant(self):
        schedule = PopulationSchedule([(0.0, 50)])
        assert schedule.target(-5.0) == 50
        assert schedule.target(0.0) == 50
        assert schedule.target(100.0) == 50

    def test_linear_interpolation(self):
        schedule = PopulationSchedule([(0.0, 0), (10.0, 100)])
        assert schedule.target(0.0) == 0
        assert schedule.target(5.0) == 50
        assert schedule.target(2.5) == 25
        assert schedule.target(10.0) == 100

    def test_clamped_outside_range(self):
        schedule = PopulationSchedule([(10.0, 5), (20.0, 15)])
        assert schedule.target(0.0) == 5
        assert schedule.target(100.0) == 15

    def test_multi_segment(self):
        schedule = steps([(0, 0), (10, 100), (20, 100), (30, 20)])
        assert schedule.target(15.0) == 100
        assert schedule.target(25.0) == 60
        assert schedule.target(30.0) == 20

    def test_peak_and_end_time(self):
        schedule = steps([(0, 0), (10, 80), (30, 20)])
        assert schedule.peak == 80
        assert schedule.target(30.0) == schedule.target(1e9) == 20  # held past the end

    def test_unsorted_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            PopulationSchedule([(10.0, 1), (5.0, 2)])

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            PopulationSchedule([(0.0, -1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PopulationSchedule([])

    def test_ramp_helper(self):
        schedule = ramp(10, 110, 100.0)
        assert schedule.target(0) == 10
        assert schedule.target(50) == 60
        assert schedule.target(100) == 110

    def test_ramp_with_offset(self):
        schedule = ramp(0, 100, 50.0, t0=25.0)
        assert schedule.target(0) == 0
        assert schedule.target(50.0) == 50
