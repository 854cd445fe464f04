import numpy as np
import pytest

from banachlab.errors import ConfigError, DomainError, ResolutionError
from banachlab.neighborhood_base import (
    EpsilonSchedule,
    build_custom,
    build_leveled,
    parse_base_spec,
)
from banachlab.core_model import Interval

SCHED = EpsilonSchedule()


class TestBuildLeveled:
    def test_first_level(self):
        b = build_leveled(1, levels=1)
        assert b.n_max == 2
        first, second = b.intervals
        assert first.left == 0.0 and not first.left_open
        assert first.right == 0.5 + SCHED.eps(1) and first.right_open
        assert second.left == 0.5 - SCHED.eps(2) and second.left_open
        assert second.right == 1.0 and not second.right_open

    def test_second_level_layout(self):
        b = build_leveled(1, levels=2)
        assert b.n_max == 6
        third = b.intervals[2]
        assert third.left == 0.0
        assert third.right == 0.25 + SCHED.eps(3)
        assert b.level_of == (1, 1, 2, 2, 2, 2)

    def test_start_level_two(self):
        b = build_leveled(2, levels=2)
        assert b.n_max == 4 + 8
        assert b.level_of[:4] == (2, 2, 2, 2)
        # epsilon keeps its level-1 enumeration index
        assert b.intervals[0].right == 0.25 + SCHED.eps(3)

    def test_schedule_violation(self):
        with pytest.raises(ConfigError):
            build_leveled(1, schedule=EpsilonSchedule(eps1=0.2, ratio=0.9), levels=4)

    def test_interval_lengths_and_overlaps(self):
        b = build_leveled(1, levels=6)
        for level in b.stored_levels:
            idx = b.level_indices(level)
            lengths = [b.intervals[n - 1].length for n in idx]
            assert max(lengths) < 2.0 ** -(level - 1)
            for a, c in zip(idx, idx[1:]):
                # neighbors overlap; at depths where the overlap width drops
                # below the endpoint's ulp the stored floats merely touch
                if level <= 3:
                    assert b.intervals[a - 1].right > b.intervals[c - 1].left
                else:
                    assert b.intervals[a - 1].right >= b.intervals[c - 1].left
            for a, c in zip(idx, idx[2:]):
                assert b.intervals[a - 1].right < b.intervals[c - 1].left  # non-neighbors do not


class TestMembership:
    def test_left_endpoint(self):
        b = build_leveled(1, levels=2)
        assert b.membership(0.0) == (1, 3)

    def test_right_endpoint(self):
        b = build_leveled(1, levels=2)
        assert b.membership(1.0) == (2, 6)

    def test_middle_in_both_level_one(self):
        b = build_leveled(1, levels=2)
        j = b.membership(0.5)
        assert 1 in j and 2 in j

    def test_nonempty_everywhere(self):
        b = build_leveled(1, levels=3)
        for t in np.linspace(0.0, 1.0, 257):
            assert b.membership(float(t))


class TestWeight:
    def test_weight_at_zero(self):
        b = build_leveled(1, levels=2)
        w = b.weight(0.0)
        assert w.lo == 0.625
        assert w.hi == 0.625 + 2.0 ** -6

    def test_weight_at_one(self):
        b = build_leveled(1, levels=2)
        assert b.weight(1.0).lo == 2.0 ** -2 + 2.0 ** -6

    def test_width_halves_with_truncation_depth(self):
        b = build_leveled(1, levels=4)
        widths = [b.truncated(n).weight(0.3).width for n in (10, 11, 12)]
        assert widths[1] == pytest.approx(widths[0] / 2)
        assert widths[2] == pytest.approx(widths[1] / 2)


class TestCover:
    def test_level_one_cover(self):
        b = build_leveled(1, levels=2)
        assert b.cover_for(0.7) == (1, 2)

    def test_level_two_cover(self):
        b = build_leveled(1, levels=2)
        assert b.cover_for(0.3) == (3, 4, 5, 6)

    def test_resolution_error(self):
        b = build_leveled(1, levels=2)
        with pytest.raises(ResolutionError) as exc:
            b.cover_for(0.01)
        assert exc.value.required_level is not None

    def test_cover_actually_covers(self):
        b = build_leveled(1, levels=5)
        idx = b.cover_for(0.1)
        pts = np.linspace(0.0, 1.0, 1001)
        for t in pts:
            assert any(b.intervals[n - 1].contains(float(t)) or
                       b.intervals[n - 1].closure_contains(float(t)) for n in idx)


class TestIsolation:
    def test_endpoints(self):
        b = build_leveled(1, levels=8)
        assert b.isolated_at(0.0).ok
        assert b.isolated_at(1.0).ok

    def test_dyadic_interior(self):
        b = build_leveled(1, levels=8)
        chk = b.isolated_at(0.5)
        assert chk.ok and chk.margin > 0.0

    def test_closure_boundary_point(self):
        b = build_leveled(1, levels=2)
        t = 0.5 - SCHED.eps(2)  # left closure endpoint of the second interval
        assert not b.isolated_at(t).ok

    def test_generic_point_not_certified(self):
        b = build_leveled(1, levels=4)
        assert not b.isolated_at(1 / 3).ok


class TestCustomAndSpec:
    def test_custom_finite_base_weight_exact(self):
        b = build_custom([Interval(0.2, 0.4)], has_tail=False)
        w = b.weight(0.3)
        assert w.lo == 0.5 and w.hi == 0.5

    def test_parse_leveled_spec(self):
        b = parse_base_spec("leveled:i=2,eps1=0.015625,ratio=0.25,levels=3")
        assert b.param_i == 2 and len(b.stored_levels) == 3

    def test_parse_custom_spec(self, tmp_path):
        import json

        path = tmp_path / "base.json"
        path.write_text(json.dumps([{"left": 0.0, "right": 0.6, "left_open": False},
                                    {"left": 0.4, "right": 1.0, "right_open": False}]))
        b = parse_base_spec(f"custom:@{path}")
        assert b.n_max == 2 and not b.has_tail

    @pytest.mark.parametrize("flag", ["left_open", "right_open"])
    def test_custom_open_flags_are_booleans(self, tmp_path, flag):
        # a string "false" is truthy: the interval came out open
        import json

        path = tmp_path / "base.json"
        path.write_text(json.dumps([{"left": 0.0, "right": 1.0, flag: "false"}]))
        with pytest.raises(ConfigError, match=f"an interval's {flag} must be true or false"):
            parse_base_spec(f"custom:@{path}")

    @pytest.mark.parametrize("spec", ["leveled:i=1,levels=40", "leveled:i=40,levels=1"])
    def test_interval_cap(self, spec):
        # about 2^41 and 2^40 intervals: refused before any is built
        with pytest.raises(ConfigError, match="exceeds"):
            parse_base_spec(spec)

    def test_parse_unknown(self):
        with pytest.raises(ConfigError):
            parse_base_spec("fractal:i=1")

    def test_domain_checks(self):
        b = build_leveled(1, levels=2)
        with pytest.raises(DomainError):
            b.weight(1.5)
        with pytest.raises(DomainError):
            b.membership(-0.1)
