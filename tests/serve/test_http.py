"""HTTP front end: routes, parity with the in-process service,
error mapping, request-cap shutdown."""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.serve import AuditService, serve_forever
from repro.serve.http import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def service(serving_components):
    return AuditService(serving_components)


@pytest.fixture
def live_server(service):
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_forever, args=(service,),
        kwargs={"port": 0, "ready": ready}, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not bind"
    server = ready.server
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    thread.join(10)


def get(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRoutes:
    def test_healthz(self, live_server, serving_job):
        status, body = get(live_server + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["fingerprint"] == serving_job.fingerprint
        assert body["dataset"] == "german"

    def test_manifest(self, live_server, serving_components):
        status, body = get(live_server + "/manifest")
        assert status == 200
        assert body["nodes"] == serving_components.meta["nodes"]

    def test_unknown_route_404(self, live_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(live_server + "/nope")
        assert excinfo.value.code == 404

    def test_unknown_post_route_404(self, live_server):
        status, body = post(live_server + "/nope", {})
        assert status == 404
        assert "unknown path" in body["error"]


class TestAuditParity:
    def test_http_matches_in_process(self, live_server, service,
                                     audit_rows):
        expected = service.audit_batch(audit_rows)
        status, one = post(live_server + "/audit-one-row",
                           {"row": audit_rows[0]})
        assert status == 200
        assert json.dumps(one, sort_keys=True) == \
            json.dumps(expected[0], sort_keys=True)
        status, batch = post(live_server + "/audit-batch",
                             {"rows": audit_rows})
        assert status == 200
        assert json.dumps(batch["results"], sort_keys=True) == \
            json.dumps(expected, sort_keys=True)


class TestErrors:
    def test_malformed_json_400(self, live_server):
        request = urllib.request.Request(
            live_server + "/audit-one-row", data=b"{not json")
        with obs.recording() as rec:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "not JSON" in body["error"]
        assert rec.counters["serve.errors"] == 1

    def test_missing_row_key_400(self, live_server):
        status, body = post(live_server + "/audit-one-row", {"x": 1})
        assert status == 400
        assert '"row"' in body["error"]

    def test_bad_row_400_counted_once(self, live_server):
        with obs.recording() as rec:
            status, body = post(live_server + "/audit-one-row",
                                {"row": {"bogus": 1}})
        assert status == 400
        assert "missing required columns" in body["error"]
        assert rec.counters["serve.errors"] == 1


def post_raw(base, length, body=b""):
    """POST ``body`` to /audit-one-row declaring ``Content-Length:
    length`` verbatim; return (status, JSON body, Connection header)."""
    host, port = base.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.putrequest("POST", "/audit-one-row")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        if body:
            conn.send(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), resp.getheader(
            "Connection")
    finally:
        conn.close()


class TestContentLength:
    @pytest.mark.parametrize("length", ["abc", "-5", "1.5", "0x10", "+7"])
    def test_invalid_length_400(self, live_server, length):
        with obs.recording() as rec:
            status, body, connection = post_raw(live_server, length, b"{}")
        assert status == 400
        assert "Content-Length" in body["error"]
        assert connection == "close"
        assert rec.counters["serve.errors"] == 1

    def test_oversized_length_413_without_reading(self, live_server):
        # A 1 GiB declaration with a short body: the server must answer
        # from the header alone instead of waiting for the rest.
        status, body, connection = post_raw(
            live_server, str(1 << 30), b'{"row": {}}')
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        assert connection == "close"

    def test_server_keeps_serving_after_bad_length(self, live_server):
        post_raw(live_server, "-5", b"{}")
        assert get(live_server + "/healthz")[0] == 200


class TestMaxRequests:
    def test_shuts_down_after_cap(self, service):
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_forever, args=(service,),
            kwargs={"port": 0, "max_requests": 2, "ready": ready},
            daemon=True)
        thread.start()
        assert ready.wait(10)
        host, port = ready.server.server_address[:2]
        base = f"http://{host}:{port}"
        get(base + "/healthz")
        get(base + "/manifest")
        thread.join(10)
        assert not thread.is_alive()
        assert ready.server.requests_handled == 2
