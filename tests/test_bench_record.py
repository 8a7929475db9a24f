"""tools/bench_record.py reads a canned perfbench/run.py output into a
trajectory entry and appends it; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# the standard output of a short untraced decision-batch run
CANNED = """\
workload decision-batch  seed 3  seconds 2  trace 0  rounds 101
attempted 2736  failed 0  samples 2736 (274 beyond p90)  speed samples 27 \
(median 1.937 ms, range 1.853-2.107)
failed_frac                                       0 fraction
peak_rss_mb                                 20.1484 MB
queries_per_s                               3254.22 1/s
query_p50_ms                              0.0322848 ms
query_p90_ms                                0.83895 ms
setup_s                                   0.0280545 s
{"correct": true, "attempted": 2736, "failed": 0, "metrics": \
{"query_p50_ms": {"value": 0.03228476921692123, "unit": "ms"}, \
"query_p90_ms": {"value": 0.8389497970013771, "unit": "ms"}, \
"queries_per_s": {"value": 3254.2247661429733, "unit": "1/s"}, \
"peak_rss_mb": {"value": 20.1484375, "unit": "MB"}, \
"setup_s": {"value": 0.028054463998286937, "unit": "s"}}}
"""


def test_entry_reads_the_run_output():
    got = bench_record.entry(CANNED, "abc123", "parent", 3)
    assert got == {
        "commit": "abc123", "side": "parent", "seed": 3,
        "probe_median_ms": 1.937, "attempted": 2736, "failed": 0,
        "metrics": {"query_p50_ms": 0.03228476921692123,
                    "query_p90_ms": 0.8389497970013771,
                    "queries_per_s": 3254.2247661429733,
                    "peak_rss_mb": 20.1484375,
                    "setup_s": 0.028054463998286937}}


def test_append_keeps_earlier_entries(tmp_path):
    path = tmp_path / "BENCH_decision-batch.json"
    first = bench_record.entry(CANNED, "abc123", "parent", 3)
    second = bench_record.entry(CANNED, "def456", "change", 3)
    bench_record.append(path, first)
    bench_record.append(path, second)
    assert json.loads(path.read_text()) == [first, second]
    # one entry a line between the brackets
    assert len(path.read_text().splitlines()) == 4


def test_output_without_the_speed_line_is_refused():
    canned = "\n".join(line for line in CANNED.splitlines()
                       if "speed samples" not in line)
    with pytest.raises(ValueError):
        bench_record.entry(canned, "abc123", "parent", 3)
