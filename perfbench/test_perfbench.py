"""Self-tests for the benchmark's own code: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import core, serve

sys.path.insert(0, str(core.SRC))
from perfbench.core import (
    END_TO_END,
    LAYERS,
    Outcome,
    Tracer,
    percentile,
    quartiles,
    result_line,
    spread,
    tail,
    tail_percentile,
)


# -- percentiles and quartiles ------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(5000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
     (100, 90.0), (40, 75.0), (39, 50.0), (4, 50.0), (1, 50.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    p = tail_percentile(count)
    assert p == expected
    if p > 50.0:
        assert count * (100.0 - p) / 100.0 >= core.TAIL_MIN_BEYOND


def test_tail_falls_back_to_the_median_on_small_runs():
    assert tail([3.0, 1.0, 2.0, 10.0]) == 2.5
    values = list(range(1, 1001))
    assert tail(values) == percentile(values, 99.0) == 990.0


def test_quartiles_match_the_driver_rule():
    values = list(range(1, 11))
    assert quartiles(values) == (2.75, 5.5, 8.25)
    assert spread(values) == pytest.approx(1.0)
    assert spread([10.0, 10.0, 10.0, 10.0]) == 0.0


# -- spans --------------------------------------------------------------------


def test_self_time_subtracts_what_children_cover():
    tracer = Tracer()
    op = tracer.add("op", 0.0, 10.0)
    tracer.add("a", 1.0, 4.0, op)
    tracer.add("b", 3.0, 6.0, op)  # overlaps a: covers 1..6 together
    child = tracer.add("c", 7.0, 9.0, op)
    tracer.add("d", 7.5, 8.0, child)
    self_times = tracer.self_times()[0]
    assert self_times["op"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_times["c"] == pytest.approx(1.5)
    assert self_times["d"] == pytest.approx(0.5)


# -- the request plan -------------------------------------------------------


def _inputs():
    groups = {
        "google_plus": [f"{ego}/circle{i}" for ego in range(40) for i in range(4)],
        "twitter": [f"{ego}/circle{i}" for ego in range(20) for i in range(3)],
    }
    nodes = {"google_plus": list(range(5000)), "twitter": list(range(3000))}
    sizes = {"google_plus": [5, 12, 40], "twitter": [3, 9]}
    return groups, nodes, sizes


def test_same_seed_gives_the_same_plan_and_another_seed_another():
    inputs = _inputs()
    first = serve.make_plan(3, 150.0, 1500, *inputs)
    assert first == serve.make_plan(3, 150.0, 1500, *inputs)
    assert first != serve.make_plan(4, 150.0, 1500, *inputs)


def test_key_space_is_larger_than_the_response_cache():
    from repro.service.app import ServiceConfig

    groups, _, _ = _inputs()
    keys = serve.key_space(1, groups)
    assert len(set(keys)) == len(keys) == serve.KEY_SPACE
    assert serve.RESPONSE_CACHE_ENTRIES == ServiceConfig.response_cache_entries
    assert serve.KEY_SPACE >= 4 * serve.RESPONSE_CACHE_ENTRIES


def test_requests_are_classified_first_seen_or_repeat_in_plan_order():
    inputs = _inputs()
    plan = serve.make_plan(5, 150.0, 3000, *inputs)
    first_due = {}
    for request in plan:
        if request.kind in ("first", "disk", "repeat"):
            assert (request.kind != "repeat") == (request.key not in first_due)
            first_due.setdefault(request.key, request.due)
        elif request.kind in ("revalidate", "stale"):
            for key in (request.key, request.etag_of):
                assert first_due[key] <= request.due - serve.TIMEOUT_S
    kinds = [request.kind for request in plan]
    assert set(kinds) == set(serve.EXPECTED_STATUS)
    assert kinds.count("post") / len(plan) == pytest.approx(0.15, abs=0.03)
    first_seen = kinds.count("first") + kinds.count("disk")
    assert kinds.count("disk") / first_seen == pytest.approx(serve.WARM_SHARE, abs=0.1)


def test_posts_are_sized_like_stored_groups():
    groups, nodes, sizes = _inputs()
    plan = serve.make_plan(6, 150.0, 2000, groups, nodes, sizes)
    for request in plan:
        if request.kind == "post":
            dataset = request.path.split("/")[3]
            members = json.loads(request.body)["groups"][0]["members"]
            assert len(members) in sizes[dataset]
            assert len(set(members)) == len(members)


def test_single_store_plan_sends_no_compare():
    groups, nodes, sizes = _inputs()
    one = {name: value["google_plus"] for name, value in
           (("groups", groups), ("nodes", nodes), ("sizes", sizes))}
    mix = serve.PROFILES["serve-store"].mix
    assert "compare" not in dict(mix)
    assert sum(share for _, share in mix) == pytest.approx(0.95)
    plan = serve.make_plan(
        2, 100.0, 2000, {"scale": one["groups"]}, {"scale": one["nodes"]},
        {"scale": one["sizes"]}, mix,
    )
    assert {request.kind for request in plan} == set(serve.EXPECTED_STATUS) - {"compare"}
    assert all("/scale/" in request.path for request in plan)


def test_reply_checks_flag_wrong_status_and_changed_bodies():
    plan = [
        serve.Planned(0.0, "first", "GET", "/a", key=1),
        serve.Planned(0.1, "repeat", "GET", "/a", key=1),
        serve.Planned(0.2, "revalidate", "GET", "/a", key=1, etag_of=1),
        serve.Planned(0.3, "revalidate", "GET", "/a", key=1, etag_of=1),
    ]
    replies = [
        serve.Reply(status=200, etag='"k1"', digest="x"),
        serve.Reply(status=200, etag='"k1"', digest="y"),
        serve.Reply(status=304, etag='"k1"'),
        serve.Reply(status=200, etag='"k1"', digest="x"),
    ]
    assert serve.check_replies(plan, replies) == {1, 3}


# -- the result line and BENCHMARK.json ---------------------------------------


def test_result_line_prints_every_declared_metric():
    full = {name: 1.0 for name in END_TO_END}
    line = json.loads(result_line(Outcome(3, 0, True, full), trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(END_TO_END)
    with pytest.raises(core.BenchError):
        result_line(Outcome(3, 0, True, {"wall_s": 1.0}), trace=False)
    traced = json.loads(result_line(Outcome(2, 0, True, {}), trace=True))
    assert set(traced["metrics"]) == {layer.name for layer in LAYERS}


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((core.CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(core.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (layer.name, layer.unit) for layer in LAYERS
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for layer in LAYERS:
        assert set(layer.measured_on) <= set(core.WORKLOADS)
        assert layer.moves.startswith("none") or any(m in layer.moves for m in END_TO_END)


def test_readme_holds_the_layer_table_of_the_catalogue():
    readme = (core.CHECKOUT / "perfbench" / "README.md").read_text()
    assert core.layer_table() in readme


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(core.CHECKOUT / "perfbench", tmp_path / "perfbench")
    shutil.copy(core.CHECKOUT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
