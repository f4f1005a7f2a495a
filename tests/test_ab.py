"""tools/ab.py's summary arithmetic on canned perfbench metrics: ratios,
wins, quartiles and the gain rule. No benchmark runs here."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import ab  # noqa: E402  (tools/ is not a package; ab imports its sibling replay)


def _pair(base_ops, head_ops, base_p50=8.0, head_p50=8.0):
    # p90, peak RSS and set-up time equal on both sides: every pair ties on them.
    common = {"op_p90_ms": 10.0, "peak_rss_mb": 38.0, "setup_s": 0.1}
    return {"base": {"ops_per_s": base_ops, "op_p50_ms": base_p50, **common},
            "head": {"ops_per_s": head_ops, "op_p50_ms": head_p50, **common}}


def test_metrics_are_the_end_to_end_metrics_the_benchmark_gates():
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert ab.METRICS == {m["name"]: m["better"] for m in gated}


def test_quartiles_interpolate_between_order_statistics():
    # Positions (n - 1) p of the sorted values: 1.75, 3.5 and 5.25 for n = 8.
    assert ab.quartiles([8, 1, 7, 2, 6, 3, 5, 4]) == (2.75, 4.5, 6.25)
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_ratios_wins_and_quartiles():
    pairs = [_pair(100, 110, 8.0, 7.0), _pair(120, 126, 8.0, 8.0), _pair(110, 99, 8.0, 9.0), _pair(130, 143, 9.0, 8.0)]
    s = ab.summarize(pairs)
    ops = s["ops_per_s"]
    assert ops["ratios"] == pytest.approx([1.1, 1.05, 0.9, 1.1], rel=1e-15)
    assert ops["median_ratio"] == pytest.approx(1.075, rel=1e-15)
    assert (ops["wins"], ops["pairs"], ops["better"]) == (3, 4, "higher")
    # base 100, 110, 120, 130: positions 0.75, 1.5, 2.25; head 99, 110, 126, 143.
    assert ops["base_quartiles"] == pytest.approx([107.5, 115.0, 122.5], rel=1e-15)
    assert ops["head_quartiles"] == pytest.approx([107.25, 118.0, 130.25], rel=1e-15)
    # Lower is better for latency: a tie counts for neither side.
    p50 = s["op_p50_ms"]
    assert (p50["wins"], p50["better"]) == (2, "lower")
    assert p50["ratios"] == pytest.approx([7 / 8, 1.0, 9 / 8, 8 / 9], rel=1e-15)
    assert s["op_p90_ms"]["wins"] == s["peak_rss_mb"]["wins"] == s["setup_s"]["wins"] == 0
    assert s["peak_rss_mb"]["median_ratio"] == s["setup_s"]["median_ratio"] == 1.0
    assert not any(m["gain"] for m in s.values())


@pytest.mark.parametrize(
    "head, gain",
    [
        ([110.0] * 10, True),  # 10/10 wins, median 9.5 above base's
        ([110.0] * 9 + [99.0], True),  # 9/10 wins is enough
        ([110.0] * 8 + [99.0] * 2, False),  # 8/10 is not
        ([101.4] * 10, False),  # 10/10 wins, but the median is only 0.9 above base's
        ([101.6] * 10, True),  # 1.1 above
    ],
)
def test_gain_needs_nine_tenths_of_wins_and_a_median_beyond_the_base_spread(head, gain):
    # Base 100 and 101 alternating: quartiles 100, 100.5 and 101, so an IQR of 1.
    base = [100.0, 101.0] * 5
    s = ab.summarize([_pair(b, h) for b, h in zip(base, head)])["ops_per_s"]
    assert s["base_quartiles"] == [100.0, 100.5, 101.0]
    assert s["gain"] is gain


def test_gain_on_a_lower_is_better_metric():
    # Latency, base 8.0 and 8.2: median 8.1, IQR 0.2. Every head below 8.0
    # wins every pair; 7.85 lies 0.25 below base's median, 7.95 only 0.15.
    base = [8.0, 8.2] * 5
    gain = lambda head: ab.summarize([_pair(100, 100, b, head) for b in base])["op_p50_ms"]["gain"]
    assert (gain(7.0), gain(7.85), gain(7.95)) == (True, True, False)
