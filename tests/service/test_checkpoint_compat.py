"""Version-1 checkpoints written by the hand-coded format still resume.

``data/checkpoint_v1_*.json`` were written by the snapshot code that
preceded the declarative field tables, then re-serialized compactly (same
parsed JSON).  Each is the first checkpoint (``stop_after_checkpoints=1``)
of a side-8 service run over ``alternating_arrivals(config.demand())``:

* ``gossip`` -- gossip monitoring, two dead vehicles, a Byzantine watcher
  and global-stream 10% loss;
* ``escalation`` -- ring monitoring with escalation, churn, and a
  retransmit wrapper around edge-stream 10% loss.

(Gossip does not compose with escalation, so one run cannot have both.)
``data/checkpoint_v1_expected.json`` holds the uninterrupted runs'
``result_hash`` and ``fleet_digest``; resuming a fixture must reach both.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.api.service import ServiceConfig
from repro.service import resume_service
from repro.workloads.arrivals import alternating_arrivals

DATA = Path(__file__).parent / "data"
EXPECTED = json.loads((DATA / "checkpoint_v1_expected.json").read_text())


def _fixture(name):
    payload = json.loads((DATA / f"checkpoint_v1_{name}.json").read_text())
    config = ServiceConfig.from_json(payload["config"])
    return payload, list(alternating_arrivals(config.demand()).jobs)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_resumes_to_the_recorded_hashes(name):
    payload, jobs = _fixture(name)
    resumed = resume_service(payload, jobs)
    assert resumed.resumed and not resumed.interrupted
    assert resumed.result_hash() == EXPECTED[name]["result_hash"]
    assert resumed.fleet_digest == EXPECTED[name]["fleet_digest"]


def test_optional_keys_at_their_defaults_may_be_absent():
    payload, jobs = _fixture("escalation")
    assert payload["fleet"]["crash_rounds"] == []
    assert payload["failure_plan"]["byzantine_watchers"] == []
    del payload["fleet"]["crash_rounds"]
    del payload["failure_plan"]["byzantine_watchers"]
    resumed = resume_service(payload, jobs)
    assert resumed.result_hash() == EXPECTED["escalation"]["result_hash"]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_without_optional_keys_still_loads(name):
    payload, jobs = _fixture(name)
    for section, key in (
        ("fleet", "crash_rounds"),
        ("fleet", "detection_digest"),
        ("failure_plan", "byzantine_watchers"),
    ):
        del payload[section][key]
    resumed = resume_service(payload, jobs)
    assert not resumed.interrupted
    assert resumed.jobs_total == len(jobs)


def _with(payload, path, key):
    bad = copy.deepcopy(payload)
    section = bad
    for step in path:
        section = section[step]
    section[key] = 0
    return bad


@pytest.mark.parametrize(
    "path",
    [
        ("fleet", "vehicles", "0"),
        ("fleet", "stats"),
        ("fleet",),
        ("transport",),
        ("metrics",),
        (),
    ],
    ids=["vehicle", "stats", "fleet", "transport", "metrics", "snapshot"],
)
def test_restore_rejects_keys_it_does_not_know(path):
    payload, jobs = _fixture("gossip")
    assert "0" in payload["fleet"]["vehicles"]
    with pytest.raises(ValueError, match="not_a_field"):
        resume_service(_with(payload, path, "not_a_field"), jobs)


def test_restore_rejects_a_bad_vehicle_key_and_a_bad_stats_key():
    payload, jobs = _fixture("gossip")
    bad = _with(payload, ("fleet", "vehicles", "0"), "jobs_servd")
    bad = _with(bad, ("fleet", "stats"), "replacments")
    with pytest.raises(ValueError, match=r"fleet\.vehicles\[0\].*jobs_servd"):
        resume_service(bad, jobs)
    del bad["fleet"]["vehicles"]["0"]["jobs_servd"]
    with pytest.raises(ValueError, match=r"fleet\.stats.*replacments"):
        resume_service(bad, jobs)


def test_restore_rejects_an_unknown_vehicle_index():
    payload, jobs = _fixture("gossip")
    bad = _with(payload, ("fleet", "vehicles"), "100000")
    with pytest.raises(ValueError, match="100000"):
        resume_service(bad, jobs)
