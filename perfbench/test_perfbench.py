"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness as h  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402


class TestTailRule:
    def test_highest_percentile_with_ten_samples_beyond(self):
        assert h.tail(list(range(10_000)))[0] == 99.9
        assert h.tail(list(range(100_000)))[0] == 99.9
        assert h.tail(list(range(1000)))[0] == 99.0
        assert h.tail(list(range(999)))[0] == 98.9
        assert h.tail(list(range(200)))[0] == 95.0
        assert h.tail(list(range(24)))[0] == 58.3
        assert h.tail(list(range(20)))[0] == 50.0

    def test_every_chosen_percentile_leaves_ten_beyond(self):
        for n in range(20, 3000, 7):
            p, _ = h.tail(list(range(n)))
            assert round(n * (100 - p) / 100, 6) >= h.TAIL_BEYOND
            assert p == 99.9 or n * (100 - p - 0.1) / 100 < h.TAIL_BEYOND

    def test_small_samples_fall_back_to_the_maximum(self):
        assert h.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
        assert h.tail(list(range(19))) == (100.0, 18)

    def test_percentile_interpolates(self):
        assert h.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert h.percentile([5.0], 99) == 5.0
        assert h.tail([float(i) for i in range(1000)])[1] == 989.01


def _span(start, end, parent=-1, name="x"):
    return [name, start, end, parent, 1]


class TestSelfTime:
    def test_nested_spans(self):
        spans_ = [_span(0, 10), _span(2, 5, 0), _span(3, 4, 1)]
        assert spans.self_times(spans_) == [7, 2, 1]

    def test_adjacent_children_cover_the_parent(self):
        spans_ = [_span(0, 10), _span(0, 4, 0), _span(4, 10, 0)]
        assert spans.self_times(spans_) == [0, 4, 6]

    def test_overlapping_children_count_once(self):
        spans_ = [_span(0, 10), _span(1, 5, 0), _span(3, 7, 0)]
        assert spans.self_times(spans_)[0] == 4

    def test_children_are_clipped_to_the_parent(self):
        spans_ = [_span(0, 10), _span(8, 12, 0)]
        assert spans.self_times(spans_)[0] == 8

    def test_layers_sum_self_time_and_coverage(self):
        dump = {
            "spans": [
                _span(0, 10, name="analyze"),
                _span(1, 4, 0, "constraint_system"),
                _span(2, 3, 1, "analyze_program"),
                _span(5, 9, 0, "reduced_solve"),
                _span(6, 8, 3, "highs_solve"),
            ],
            "counters": {},
        }
        layers = spans.layer_metrics([dump])
        assert layers["derive.busy_s"] == 2
        assert layers["contexts.busy_s"] == 1
        assert layers["presolve.busy_s"] == 2
        assert layers["highs.busy_s"] == 2
        assert layers["highs.calls"] == 1
        assert layers["analysis_s"] == 10
        assert layers["coverage"] == 0.7

    def test_window_keeps_spans_that_start_inside(self):
        dump = {"spans": [_span(0, 1, name="parse_program"),
                          _span(5, 6, name="parse_program")], "counters": {}}
        assert spans.layer_metrics([dump], window=(4, 10))["parse.calls"] == 1


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestOpenLoop:
    def test_schedule_has_the_exact_rate(self):
        dues = h.due_times(seed=3, rate=8.0, seconds=15)
        assert len(dues) == 120
        assert all(i / 8.0 <= due < (i + 1) / 8.0 for i, due in enumerate(dues))

    def test_sends_at_due_time_and_counts_lateness(self):
        clock = _FakeClock()
        sent = []

        def send(i):
            sent.append(clock.now)
            if i == 0:
                clock.now += 1.0  # a stalled send

        dues = [0.0, 0.25, 0.5, 1.5]
        late = h.run_open_loop(dues, send, clock=clock, sleep=clock.sleep)
        assert sent == [0.0, 1.0, 1.0, 1.5]
        # The jobs the stall delayed are late; their latency, counted from
        # the due time, includes that wait.
        assert late == [0.0, 0.75, 0.5, 0.0]


class TestSeededInputs:
    programs = h.load_reference()

    def _requests(self, seed):
        return b"".join(
            h.request_body(endpoint, self.programs[name])
            for endpoint, name in h.serve_sequence(seed, self.programs)
        )

    def test_same_seed_gives_identical_request_bytes(self):
        assert self._requests(7) == self._requests(7)
        assert self._requests(7) != self._requests(8)

    def test_same_seed_gives_identical_cli_and_queue_inputs(self):
        assert h.cli_programs(3, self.programs) == h.cli_programs(3, self.programs)
        assert h.fresh_programs(3, self.programs) == h.fresh_programs(3, self.programs)
        assert h.due_times(3, 8.0, 5) == h.due_times(3, 8.0, 5)

    def test_cli_draw_is_the_fig10_grid_plus_eight_registry_programs(self):
        names = h.cli_programs(11, self.programs)
        kinds = [self.programs[n]["kind"] for n in names]
        assert kinds.count("fig10") == 4 and kinds.count("registry") == 8

    def test_serve_mix_shares(self):
        sequence = h.serve_sequence(5, self.programs)
        fresh = [n for _, n in sequence if self.programs[n]["kind"] == "fuzz"]
        checks = [n for ep, n in sequence if ep == "/check"]
        assert len(fresh) == len(set(fresh))
        assert set(fresh) == set(h.fresh_programs(5, self.programs, h.SERVE_FRESH_SHARE))
        assert 0.08 < len(fresh) / len(sequence) < 0.12
        assert 0.08 < len(checks) / len(sequence) < 0.12

    def test_fresh_draws_cover_every_size_stratum_each_round(self):
        order = h.fresh_programs(2, self.programs)
        ranked = sorted(order, key=lambda n: (self.programs[n]["lp_rows"], n))
        stratum = {name: i * h.FRESH_STRATA // len(ranked) for i, name in enumerate(ranked)}
        first_round = {stratum[name] for name in order[: h.FRESH_STRATA]}
        assert first_round == set(range(h.FRESH_STRATA))


class TestOutputChecks:
    OUTPUT = """moment bounds (4 moments, 508 LP vars, 284 constraints, 0.039s)
  E[C^1] in [8.3333, 8.3333]
  at {}:
    E[C^1] in [8.33332, 8.33333]
    E[C^2] in [83.8888, 83.8889]
    V[C]    in [14.4444, 14.4446]
"""

    def test_timing_token_is_stripped(self):
        other = self.OUTPUT.replace("0.039s", "0.512s")
        assert h.strip_timing(other) == h.strip_timing(self.OUTPUT)
        first = b'{"summary": "(1 moments, 0.009s)", "result": {"solve_seconds": 0.5,'
        second = b'{"summary": "(1 moments, 0.008s)", "result": {"solve_seconds": 0.4,'
        tail = b' "lp_reduction": {"presolve_seconds": 1e-4, "cols": 18}}}'
        assert h.answer_without_timing(first + tail) == h.answer_without_timing(second + tail)
        assert h.answer_without_timing(first + tail) != h.answer_without_timing(
            first + tail.replace(b"18", b"19")
        )

    def test_closed_form_reference_accepts_the_printed_bounds(self):
        entry = h.load_reference()["coupon_chain-4"]
        assert h.check_cli_output(self.OUTPUT, entry) is None

    def test_interval_missing_the_band_fails(self):
        entry = h.load_reference()["coupon_chain-4"]
        wrong = self.OUTPUT.replace("[14.4444, 14.4446]", "[14.5, 14.6]")
        assert "V[C]" in h.check_cli_output(wrong, entry)

    def test_only_the_known_infeasible_case_may_answer_422(self):
        programs = h.load_reference()
        assert h.check_response(422, b"{}", "/analyze", programs["fuzz00314"]) is None
        assert h.check_response(422, b"{}", "/analyze", programs["fuzz00000"]) is not None


def test_importtime_breakdown():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |        400 |     scipy.optimize",
        "import time:        30 |        500 |   repro.analysis",
        "import time:        20 |        600 | repro",
        "import time:        10 |         70 | repro.cli",
    ])
    assert bench.parse_importtime(stderr) == {
        "import.total_s": 670e-6,
        "import.scipy_optimize_s": 400e-6,
        "import.repro_own_s": 60e-6,
    }
