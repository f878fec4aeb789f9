"""HTTP front-end: request validation, the status mapping, and one
in-process daemon drill for routing/introspection endpoints."""

import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.api import UsageError
from repro.serve.qos import DEFAULT_BUDGET, QosPolicy
from repro.serve.server import (
    OUTCOME_FOR_EXIT,
    STATUS_FOR_EXIT,
    validate_request,
)

SOURCE = "int main(void) { return 0; }"


class TestStatusMapping:
    def test_every_cli_exit_code_has_a_status(self):
        assert STATUS_FOR_EXIT == {0: 200, 2: 403, 3: 403, 4: 422,
                                   5: 500, 64: 400}
        assert set(OUTCOME_FOR_EXIT) == set(STATUS_FOR_EXIT)


class TestValidateRequest:
    def test_minimal_run_request(self):
        payload = validate_request({"source": SOURCE})
        assert payload["profile"] == "none"
        assert payload["budget"] == DEFAULT_BUDGET
        assert payload["input"] == b""
        assert payload["mode"] == "run"

    def test_unknown_field_rejected(self):
        with pytest.raises(UsageError, match="profle"):
            validate_request({"source": SOURCE, "profle": "spatial"})

    def test_unknown_profile_rejected(self):
        with pytest.raises(UsageError, match="registered"):
            validate_request({"source": SOURCE, "profile": "bogus"})

    def test_source_required(self):
        with pytest.raises(UsageError, match="source"):
            validate_request({"profile": "spatial"})
        with pytest.raises(UsageError, match="source"):
            validate_request({"source": "   "})

    def test_non_object_body_rejected(self):
        with pytest.raises(UsageError, match="JSON object"):
            validate_request([1, 2, 3])

    def test_check_route_selects_profile(self):
        assert validate_request({"source": SOURCE},
                                route="/check")["profile"] == "spatial"
        assert validate_request({"source": SOURCE, "temporal": True},
                                route="/check")["profile"] == "temporal"

    def test_check_route_rejects_explicit_profile(self):
        with pytest.raises(UsageError, match="/check"):
            validate_request({"source": SOURCE, "profile": "full"},
                             route="/check")

    def test_temporal_field_is_check_only(self):
        with pytest.raises(UsageError, match="temporal"):
            validate_request({"source": SOURCE, "temporal": True})

    def test_compile_route_sets_mode(self):
        payload = validate_request({"source": SOURCE, "profile": "full"},
                                   route="/compile")
        assert payload["mode"] == "compile"

    def test_input_utf8(self):
        payload = validate_request({"source": SOURCE, "input": "hi\n"})
        assert payload["input"] == b"hi\n"

    def test_input_b64(self):
        payload = validate_request({"source": SOURCE,
                                    "input_b64": "AAEC"})
        assert payload["input"] == b"\x00\x01\x02"

    def test_input_b64_invalid(self):
        with pytest.raises(UsageError, match="base64"):
            validate_request({"source": SOURCE, "input_b64": "!!!"})

    def test_input_and_b64_conflict(self):
        with pytest.raises(UsageError, match="not both"):
            validate_request({"source": SOURCE, "input": "x",
                              "input_b64": "eA=="})

    def test_budget_validated_through_qos(self):
        qos = QosPolicy(max_budget=100)
        assert validate_request({"source": SOURCE, "budget": 50},
                                qos=qos)["budget"] == 50
        with pytest.raises(UsageError, match="ceiling"):
            validate_request({"source": SOURCE, "budget": 101}, qos=qos)

    def test_engine_validated(self):
        payload = validate_request({"source": SOURCE, "engine": "interp"})
        assert payload["engine"] == "interp"
        with pytest.raises(UsageError, match="engine"):
            validate_request({"source": SOURCE, "engine": "jit"})

    def test_test_fault_gated_behind_flag(self):
        with pytest.raises(UsageError, match="allow-test-faults"):
            validate_request({"source": SOURCE, "test_fault": "hang"})
        payload = validate_request({"source": SOURCE,
                                    "test_fault": "hang"},
                                   allow_test_faults=True)
        assert payload["test_fault"] == "hang"
        with pytest.raises(UsageError, match="test_fault"):
            validate_request({"source": SOURCE, "test_fault": "fire"},
                             allow_test_faults=True)


@pytest.mark.skipif(os.name != "posix",
                    reason="POSIX daemon integration drill")
class TestDaemonEndToEnd:
    """One shared in-process daemon; the heavier chaos drills live in
    the serve-smoke CI leg (scripts/ci.py --serve-smoke)."""

    @pytest.fixture(scope="class")
    def daemon(self, tmp_path_factory):
        from repro.api.env import resolve_serve
        from repro.serve.server import BackgroundDaemon

        store = str(tmp_path_factory.mktemp("serve-store"))
        config = resolve_serve(host="127.0.0.1", port=0, workers=2,
                               queue=8)
        with BackgroundDaemon(config=config, store_dir=store) as running:
            yield running

    def _post(self, daemon, path, doc):
        request = urllib.request.Request(
            f"http://127.0.0.1:{daemon.port}{path}",
            data=json.dumps(doc).encode(), method="POST")
        try:
            with urllib.request.urlopen(request, timeout=120) as resp:
                return resp.status, json.loads(resp.read()), \
                    dict(resp.headers)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), \
                dict(error.headers)

    def _get(self, daemon, path):
        with urllib.request.urlopen(
                f"http://127.0.0.1:{daemon.port}{path}",
                timeout=30) as resp:
            return resp.status, json.loads(resp.read())

    def test_run_report_matches_api(self, daemon):
        source = ('#include <stdio.h>\n'
                  'int main(void) { printf("hello\\n"); return 7; }')
        status, row, headers = self._post(daemon, "/run",
                                          {"source": source,
                                           "profile": "spatial",
                                           "name": "hello"})
        assert status == 200
        assert headers["X-Repro-Exit-Code"] == "7"
        assert row["output"] == "hello\n"
        from repro.api import run_source

        report = run_source(source, profile="spatial",
                            name="hello").to_json()
        for noisy in ("wallclock_seconds", "cache", "obs", "output"):
            row.pop(noisy, None)
            report.pop(noisy, None)
        assert row == report

    def test_detection_is_403(self, daemon):
        status, row, headers = self._post(
            daemon, "/check",
            {"source": "int main(void) { int a[2]; a[5] = 1; return 0; }"})
        assert status == 403
        assert row["trap"]["kind"] == "spatial_violation"
        assert headers["X-Repro-Exit-Code"] == "2"

    def test_malformed_json_is_400(self, daemon):
        request = urllib.request.Request(
            f"http://127.0.0.1:{daemon.port}/run", data=b"{oops",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def _raw_status(self, daemon, data, half_close=False):
        """Send raw bytes; the status code of the response.  The daemon
        closes with the rest of a rejected request unread, so the
        connection may reset once the response is in."""
        import socket

        received = b""
        with socket.create_connection(("127.0.0.1", daemon.port),
                                      timeout=30) as sock:
            try:
                sock.sendall(data)
            except (BrokenPipeError, ConnectionResetError):
                pass  # answered and closed before the rest was read
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            try:
                while b"\r\n" not in received:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    received += chunk
            except ConnectionResetError:
                pass
        return int(received.split(b" ", 2)[1])

    def test_negative_content_length_is_400(self, daemon):
        assert self._raw_status(
            daemon, b"POST /run HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
        ) == 400

    def test_truncated_body_is_400(self, daemon):
        assert self._raw_status(
            daemon, b"POST /run HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                    b'{"source": ', half_close=True) == 400

    def test_header_line_past_stream_limit_is_431(self, daemon):
        assert self._raw_status(
            daemon, b"GET /healthz HTTP/1.1\r\nX-Big: "
                    + b"a" * (70 * 1024) + b"\r\n\r\n") == 431

    def test_slowloris_client_is_408(self, daemon, monkeypatch):
        from repro.serve import server

        monkeypatch.setattr(server, "REQUEST_READ_SECONDS", 1.0)
        started = time.monotonic()
        assert self._raw_status(
            daemon, b"GET /healthz HTTP/1.1\r\nHost: x\r\n") == 408
        assert time.monotonic() - started < 10

    def test_header_bomb_is_431(self, daemon):
        headers = b"".join(b"X-H%d: v\r\n" % n for n in range(20_000))
        assert self._raw_status(
            daemon, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n") == 431

    def test_unknown_path_404_and_bad_method_405(self, daemon):
        status, body, _ = self._post(daemon, "/nope", {"source": SOURCE})
        assert status == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{daemon.port}/run", timeout=30)
        assert excinfo.value.code == 405

    def test_healthz(self, daemon):
        status, health = self._get(daemon, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert len(health["worker_pids"]) == 2
        assert health["queue_limit"] == 8
        assert "spatial" in health["profiles"]

    def test_metrics_counts_requests(self, daemon):
        self._post(daemon, "/run", {"source": SOURCE, "profile": "none"})
        status, metrics = self._get(daemon, "/metrics")
        assert status == 200
        series = metrics["series"]
        assert series.get("repro_serve_requests_total{outcome=ok}", 0) >= 1
        assert series.get("repro_serve_request_seconds_count", 0) >= 1
        assert "request_seconds_p50" in metrics["derived"]
        assert "request_seconds_p99" in metrics["derived"]

    def test_store_shared_across_workers(self, daemon):
        doc = {"source": "int main(void) { return 41; }",
               "profile": "full"}
        origins = []
        for _ in range(4):
            _, row, _ = self._post(daemon, "/run", doc)
            origins.append(row["cache"]["origin"])
        assert origins[0] == "compile"
        assert set(origins[1:]) <= {"memory", "store"}


@pytest.mark.skipif(os.name != "posix",
                    reason="POSIX daemon integration drill")
class TestTraceCrossesWorkers:
    def test_cold_and_warm_run_leave_no_orphan_spans(self, tmp_path):
        from repro.api.env import resolve_serve
        from repro.obs.trace import disable_tracing, enable_tracing
        from repro.serve.server import BackgroundDaemon

        path = tmp_path / "trace.jsonl"
        enable_tracing(path)
        try:
            config = resolve_serve(host="127.0.0.1", port=0, workers=1,
                                   queue=4)
            with BackgroundDaemon(config=config,
                                  store_dir=str(tmp_path / "store")) as daemon:
                origins = []
                for _ in range(2):  # one cold, one warm
                    request = urllib.request.Request(
                        f"http://127.0.0.1:{daemon.port}/run",
                        data=json.dumps({"source": SOURCE,
                                         "profile": "spatial"}).encode(),
                        method="POST")
                    with urllib.request.urlopen(request, timeout=120) as resp:
                        origins.append(json.loads(resp.read())["cache"]
                                       ["origin"])
        finally:
            disable_tracing()
        assert origins == ["compile", "memory"]
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        ids = {span["span"] for span in spans}
        assert [span for span in spans
                if "parent" in span and span["parent"] not in ids] == []
        requests = {span["span"] for span in spans
                    if span["name"] == "serve.request"}
        worker = [span for span in spans
                  if span["name"] in ("serve.compile", "vm.run")]
        assert len(requests) == 2 and len(worker) == 4
        assert all(span["pid"] != os.getpid() and span["parent"] in requests
                   for span in worker)
