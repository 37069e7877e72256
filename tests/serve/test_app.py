"""The HTTP serving layer, end to end over a real socket."""

import json
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exec import ResultCache, config_key
from repro.experiments import sweep_config
from repro.serve import SurfaceIndex, answer_query, build_server


def _row(load, seed):
    return {
        "blocking_probability": 0.01 * load,
        "dropping_probability": 0.001 * load,
        "voice_delay_mean": 0.004 * load,
        "calls_dropped": 1.0,
        "call_attempts_handoff": 20.0,
    }


def _stub_point(config):
    """Back-fill unit of work: fabricate the row instead of simulating."""
    return _row(config.load, config.seed)


def _seed(cache_dir, loads=(0.5, 1.0, 2.0), seeds=(1,)):
    cache = ResultCache(cache_dir)
    for load in loads:
        for seed in seeds:
            cfg = sweep_config("proposed", load, seed, 8.0, 1.0)
            cache.put(config_key(cfg), _row(load, seed), cfg)


@pytest.fixture
def server(tmp_path):
    _seed(tmp_path / "cache")
    srv = build_server(
        str(tmp_path / "cache"), port=0, point_fn=_stub_point
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.stop()
    thread.join(timeout=10)


def _get(url):
    """(status, body bytes) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        with err:
            return err.code, err.read()


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["surfaces"] == 1
        assert health["backfill"]["enabled"] is True

    def test_surfaces_listing(self, server):
        status, body = _get(server.url + "/surfaces")
        assert status == 200
        listing = json.loads(body)
        (surface,) = listing["surfaces"]
        assert surface["axes"]["load"] == [0.5, 1.0, 2.0]
        assert surface["backfillable"] is True

    def test_unknown_route_is_404(self, server):
        status, body = _get(server.url + "/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_metrics_text_is_parseable(self, server):
        _get(server.url + "/healthz")
        status, body = _get(server.url + "/metrics")
        assert status == 200
        import re

        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.einf+]+$'
        )
        lines = body.decode().splitlines()
        assert lines, "empty exposition"
        for line in lines:
            assert line.startswith("# TYPE ") or sample.match(line), line
        text = body.decode()
        assert "# TYPE serve_requests_total counter" in text
        assert "# TYPE serve_request_seconds histogram" in text
        assert 'le="+Inf"' in text


class TestQueries:
    def test_exact_query_is_byte_identical(self, server):
        url = (
            server.url
            + "/query?kind=operating_point&scheme=proposed&load=1.0"
        )
        first = _get(url)
        second = _get(url)
        assert first[0] == 200
        assert first == second
        result = json.loads(first[1])
        assert result["provenance"]["mode"] == "exact"

    def test_post_is_not_implemented(self, server):
        request = urllib.request.Request(
            server.url + "/query",
            data=json.dumps(
                {"kind": "operating_point", "scheme": "proposed",
                 "load": 0.75}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        with err.value:
            assert err.value.code == 501

    @pytest.mark.parametrize("query, parameter", [
        ("kind=operating_point&scheme=proposed&load=nan", "load"),
        ("kind=operating_point&scheme=proposed&load=inf", "load"),
        ("kind=operating_point&scheme=proposed&load=1.0"
         "&n_data_stations=nan", "n_data_stations"),
        ("kind=admissible_calls&scheme=proposed"
         "&constraints=blocking_probability:nan", "constraints"),
    ], ids=["load-nan", "load-inf", "stations-nan", "ceiling-nan"])
    def test_non_finite_number_is_400(self, server, query, parameter):
        status, body = _get(server.url + "/query?" + query)

        def refuse(constant):
            raise ValueError(f"{constant} is not valid JSON")

        error = json.loads(body, parse_constant=refuse)["error"]
        assert status == 400
        assert error["code"] == "bad_request"
        assert f"'{parameter}'" in error["message"]
        assert "must be finite" in error["message"]

    @pytest.mark.parametrize("spelling, exact", [
        ("true", True), ("ON", True), ("1", True), ("Yes", True),
        ("false", False), ("No", False), ("0", False), ("OFF", False),
    ])
    def test_exact_takes_boolean_spellings(self, server, spelling, exact):
        # load 0.75 is off the seeded grid: only exact=false interpolates
        status, body = _get(
            server.url + "/query?kind=operating_point&scheme=proposed"
            f"&load=0.75&exact={spelling}"
        )
        if exact:
            assert status != 200
        else:
            assert status == 200
            assert json.loads(body)["provenance"]["mode"] == "interpolated"

    @pytest.mark.parametrize("spelling", ["maybe", "2", "tru"])
    def test_exact_refuses_other_values(self, server, spelling):
        status, body = _get(
            server.url + "/query?kind=operating_point&scheme=proposed"
            f"&load=0.75&exact={spelling}"
        )
        error = json.loads(body)["error"]
        assert status == 400
        assert error["code"] == "bad_request"
        assert "'exact'" in error["message"]
        assert error["parameter"] == "exact"

    def test_extrapolation_is_422(self, server):
        status, body = _get(
            server.url
            + "/query?kind=operating_point&scheme=proposed&load=9.0"
        )
        assert status == 422
        assert json.loads(body)["error"]["code"] == "extrapolation_refused"

    def test_missing_kind_is_400(self, server):
        status, body = _get(server.url + "/query?scheme=proposed")
        assert status == 400

    def test_pin_to_another_schemes_surface_is_404(self, server):
        (surface_id,) = server.index.surfaces
        status, body = _get(
            server.url + "/query?kind=operating_point&scheme=conventional"
            f"&surface_id={surface_id}&load=1.0"
        )
        assert status == 404
        error = json.loads(body)["error"]
        assert error["code"] == "unknown_surface"
        assert error["scheme"] == "conventional"
        assert error["surface_scheme"] == "proposed"
        # the same pin under its own scheme still answers
        status, _body = _get(
            server.url + "/query?kind=operating_point&scheme=proposed"
            f"&surface_id={surface_id}&load=1.0"
        )
        assert status == 200


class TestOneWrite:
    def test_each_reply_leaves_in_one_send(self, server, monkeypatch):
        sent = []
        for name in ("send", "sendall"):
            original = getattr(socket.socket, name)

            def counting(sock, data, *args, _original=original):
                if threading.current_thread() is not threading.main_thread():
                    sent.append(len(data))  # a server handler thread
                return _original(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, counting)
        status, body = _get(
            server.url + "/query?kind=operating_point&scheme=proposed&load=1.0"
        )
        assert status == 200
        assert len(sent) == 1
        assert sent[0] > len(body)  # the headers rode along

    def test_reset_clients_leave_no_traceback(self, server, capsys):
        host, port = server.server_address[:2]
        for _ in range(10):
            sock = socket.create_connection((host, port), timeout=10)
            sock.sendall(
                b"GET /query?kind=admissible_calls&scheme=proposed"
                b" HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            # linger 0: close with a reset, before the reply is read
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
        time.sleep(0.5)
        status, _body = _get(server.url + "/healthz")
        assert status == 200
        assert "Traceback" not in capsys.readouterr().err


class TestBackfill:
    def test_miss_backfills_then_answers(self, server):
        url = (
            server.url + "/query?kind=operating_point&scheme=proposed"
            "&load=1.5&exact=true"
        )
        status, body = _get(url)
        assert status == 202
        miss = json.loads(body)
        assert miss["status"] == "backfilling"
        assert miss["backfill"]["queued"]
        assert miss["retry_after"] >= 1

        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            status, body = _get(url)
            if status == 200:
                break
            time.sleep(0.05)
        assert status == 200, body
        result = json.loads(body)
        assert result["provenance"]["mode"] == "exact"
        # the stub's fabricated row, now served from the live index
        assert result["values"]["blocking_probability"] == pytest.approx(
            0.015
        )

        _, metrics = _get(server.url + "/metrics")
        assert "serve_backfill_completed 1" in metrics.decode()

    def test_resubmission_dedups_in_flight_keys(self, tmp_path):
        _seed(tmp_path / "cache", loads=(0.5, 2.0))
        slow = threading.Event()

        def stalled_point(config):
            slow.wait(timeout=10)
            return _row(config.load, config.seed)

        srv = build_server(
            str(tmp_path / "cache"), port=0, point_fn=stalled_point
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            url = (
                srv.url + "/query?kind=operating_point&scheme=proposed"
                "&load=1.0&exact=true"
            )
            first = json.loads(_get(url)[1])
            assert first["backfill"]["queued"]
            second = json.loads(_get(url)[1])
            assert not second["backfill"]["queued"]
            assert second["backfill"]["in_flight"]
        finally:
            slow.set()
            srv.stop()
            thread.join(timeout=10)

    def test_no_backfill_miss_is_404(self, tmp_path):
        _seed(tmp_path / "cache")
        srv = build_server(str(tmp_path / "cache"), port=0, backfill=False)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _get(
                srv.url + "/query?kind=operating_point&scheme=proposed"
                "&load=1.5&exact=true"
            )
            assert status == 404
            assert json.loads(body)["error"]["code"] == "missing_points"
        finally:
            srv.stop()
            thread.join(timeout=10)

    def test_reads_racing_backfill_match_a_fresh_index(self, tmp_path):
        """Handler threads compile the surface while the back-fill
        worker drops it; once the rows land, every answer must equal
        one from an index built afresh from the same cache."""
        _seed(tmp_path / "cache", loads=(0.5, 2.0), seeds=(1, 2))
        srv = build_server(
            str(tmp_path / "cache"), port=0, point_fn=_stub_point
        )
        serving = threading.Thread(target=srv.serve_forever, daemon=True)
        serving.start()
        base = "/query?kind=operating_point&scheme=proposed"
        cold = [f"{base}&load={x}&exact=true" for x in (0.75, 1.0, 1.5)]
        reads = ["/query?kind=admissible_calls&scheme=proposed",
                 f"{base}&load=1.1", "/surfaces"]
        unexpected = []

        def client():
            pending = list(cold)
            deadline = time.monotonic() + 20
            while pending and time.monotonic() < deadline:
                for path in [*pending, *reads]:
                    status, body = _get(srv.url + path)
                    if status == 200 and path in pending:
                        pending.remove(path)
                    elif status not in (200, 202):
                        unexpected.append((path, status, body))
            if pending:
                unexpected.append(("never answered", pending))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client) for _ in range(4)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in clients)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert unexpected == []
            fresh = SurfaceIndex.from_cache(ResultCache(tmp_path / "cache"))
            assert fresh.rows == srv.index.rows == 10
            for path in [*cold, *reads[:2]]:
                params = dict(
                    pair.split("=") for pair in path.split("?")[1].split("&")
                )
                expected = answer_query(fresh, params.pop("kind"), params)
                status, body = _get(srv.url + path)
                assert status == 200
                served = json.loads(body)
                for part in ("values", "provenance"):
                    assert json.dumps(served[part], sort_keys=True) == (
                        json.dumps(getattr(expected, part), sort_keys=True)
                    ), (path, part)
        finally:
            srv.stop()
            serving.join(timeout=10)

    def test_empty_cache_serves_no_surfaces(self, tmp_path):
        srv = build_server(str(tmp_path / "empty"), port=0, backfill=False)
        try:
            assert srv.index.surfaces == {}
        finally:
            srv.stop()  # must not hang: serve_forever never ran
