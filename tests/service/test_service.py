"""Endpoint and lifecycle coverage for the `repro serve` daemon."""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.api import SolveReport
from repro.service import ServiceError


class TestHealthAndMetrics:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        pyproject = (Path(__file__).resolve().parents[2]
                     / "pyproject.toml").read_text()
        assert re.search(r'(?m)^version\s*=\s*"([^"]+)"',
                         pyproject).group(1) == health["version"]
        assert "mist" in health["solvers"]
        assert health["workers"] == 2

    def test_metrics_initial_shape(self, client):
        metrics = client.metrics()
        assert metrics["jobs"]["submitted"] == 0
        assert metrics["cache"] == {"hits": 0, "misses": 0}
        assert metrics["solver"]["invocations"] == 0
        assert metrics["uptime_seconds"] >= 0
        assert metrics["search"] == {
            "cells_total": 0, "cells_explored": 0, "cells_pruned": 0,
            "cells_infeasible": 0, "configs_evaluated": 0,
            "configs_prefiltered": 0, "memo_hits": 0, "memo_misses": 0,
        }

    def test_metrics_accumulate_search_counters(self, client, job, stub):
        client.solve(job, solver="svc-stub", timeout=10)
        metrics = client.metrics()
        search = metrics["search"]
        assert search["cells_total"] == 4
        assert search["cells_explored"] == 2
        assert search["cells_pruned"] == 2
        assert search["memo_hits"] == 1
        assert search["memo_misses"] == 3
        # the cached repeat runs no search: counters must not move
        client.solve(job, solver="svc-stub", timeout=10)
        assert client.metrics()["search"] == search


class TestJobLifecycle:
    def test_submit_wait_report_roundtrip(self, client, job, stub):
        record = client.submit(job, solver="svc-stub")
        assert record["status"] in ("queued", "running", "done")
        assert record["fingerprint"] == job.fingerprint()
        final = client.wait(record["id"], timeout=10)
        assert final["status"] == "done"
        report = SolveReport.from_dict(final["report"])
        assert report.throughput == 7.5
        assert report.job == job

    def test_client_solve_helper(self, client, job, stub):
        report = client.solve(job, solver="svc-stub", timeout=10)
        assert isinstance(report, SolveReport)
        assert report.throughput == 7.5
        assert report.from_cache is False
        # second time: daemon answers from its plan cache
        again = client.solve(job, solver="svc-stub", timeout=10)
        assert again.from_cache is True
        assert stub.invocations == 1

    def test_progress_relayed_to_job_record(self, client, job, slow):
        record = client.submit(job, solver="svc-slow")
        assert slow.started.wait(timeout=5)
        seen = client.job(record["id"])
        assert seen["status"] == "running"
        assert seen["progress"] == {"done": 1, "total": 2}
        slow.release.set()
        final = client.wait(record["id"], timeout=10)
        assert final["progress"] == {"done": 2, "total": 2}

    def test_jobs_listing_omits_reports(self, client, job, stub):
        client.solve(job, solver="svc-stub", timeout=10)
        listed = client.jobs()
        assert len(listed) == 1
        assert listed[0]["status"] == "done"
        assert "report" not in listed[0]

    def test_cancellation(self, client, job, slow):
        record = client.submit(job, solver="svc-slow")
        assert slow.started.wait(timeout=5)
        cancelled = client.cancel(record["id"])
        assert cancelled["status"] == "cancelled"
        # the cooperative hook lands at the solver's next poll; the
        # record stays cancelled and nothing was cached
        final = client.wait(record["id"], timeout=10)
        assert final["status"] == "cancelled"
        assert client.plan(job.fingerprint(), "svc-slow") is None
        assert client.metrics()["jobs"]["cancelled"] == 1

    def test_cancel_finished_job_is_noop(self, client, job, stub):
        record = client.submit(job, solver="svc-stub")
        client.wait(record["id"], timeout=10)
        after = client.cancel(record["id"])
        assert after["status"] == "done"
        assert client.metrics()["jobs"]["cancelled"] == 0

    def test_failed_solver_marks_job_failed(self, client, job, stub):
        stub.fail_with = RuntimeError("kaboom")
        record = client.submit(job, solver="svc-stub")
        final = client.wait(record["id"], timeout=10)
        assert final["status"] == "failed"
        assert "kaboom" in final["error"]
        assert client.metrics()["jobs"]["failed"] == 1
        # a failure is not cached: the next submission searches again
        stub.fail_with = None
        report = client.solve(job, solver="svc-stub", timeout=10)
        assert report.from_cache is False
        assert stub.invocations == 2

    def test_client_solve_raises_on_failure(self, client, job, stub):
        stub.fail_with = ValueError("bad geometry")
        with pytest.raises(ServiceError, match="bad geometry"):
            client.solve(job, solver="svc-stub", timeout=10)


class TestPlansEndpoint:
    def test_miss_then_hit(self, client, job, stub):
        assert client.plan(job.fingerprint(), "svc-stub") is None
        client.solve(job, solver="svc-stub", timeout=10)
        report = client.plan(job.fingerprint(), "svc-stub")
        assert report is not None
        assert report.from_cache is True
        assert report.throughput == 7.5


class TestErrorHandling:
    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("job-doesnotexist")
        assert err.value.status == 404

    def test_unknown_solver_404(self, client, job):
        with pytest.raises(ServiceError) as err:
            client.submit(job, solver="no-such-backend")
        assert err.value.status == 404
        assert "no-such-backend" in str(err.value)

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_method_not_allowed_405(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("DELETE", "/jobs")
        assert err.value.status == 405

    def test_invalid_json_body_400(self, client):
        request = urllib.request.Request(
            client.base_url + "/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 400

    def test_missing_job_field_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs", {"solver": "svc-stub"})
        assert err.value.status == 400

    def test_invalid_job_400(self, client, job):
        bad = dict(job.to_dict(), num_gpus=0)
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs",
                            {"job": bad, "solver": "svc-stub"})
        assert err.value.status == 400
        assert "num_gpus" in str(err.value)

    def test_responses_are_strict_json(self, client):
        with urllib.request.urlopen(client.base_url + "/healthz",
                                    timeout=5) as response:
            assert response.headers["Content-Type"] == "application/json"
            json.loads(response.read().decode())


class TestRunnerIntegration:
    def test_run_via_service(self, client, stub):
        from repro.evaluation import WorkloadSpec
        from repro.evaluation.runner import run_via_service

        spec = WorkloadSpec("gpt3-1.3b", "L4", 2, 16, 2048)
        outcome = run_via_service(spec, "svc-stub",
                                  client.base_url, timeout=10)
        assert outcome.found
        assert outcome.result is None          # runtime objects never ship
        assert outcome.throughput == 7.5       # ...but measurements do
        assert outcome.extra["service_url"] == client.base_url

    def test_compare_systems_against_live_server(self, client, stub):
        from repro.evaluation import WorkloadSpec
        from repro.evaluation.runner import compare_systems

        spec = WorkloadSpec("gpt3-1.3b", "L4", 2, 16, 2048)
        comparison = compare_systems(spec, systems=("svc-stub",),
                                     service_url=client.base_url)
        assert comparison.outcomes["svc-stub"].throughput == 7.5


class TestInProcessApi:
    def test_get_job_raises_public_keyerror(self, service):
        from repro.service import UnknownJobError

        with pytest.raises(UnknownJobError):
            service.get_job("job-missing")
        with pytest.raises(KeyError):  # catchable as plain KeyError too
            service.cancel_job("job-missing")

    def test_wait_timeout_zero_fails_fast(self, client, job, slow):
        record = client.submit(job, solver="svc-slow")
        assert slow.started.wait(timeout=5)
        with pytest.raises(TimeoutError):
            client.wait(record["id"], timeout=0)

    def test_negative_content_length_400(self, client):
        import http.client as http_client

        conn = http_client.HTTPConnection(
            client.base_url.removeprefix("http://"), timeout=5)
        try:
            conn.putrequest("POST", "/jobs", skip_accept_encoding=True)
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()
