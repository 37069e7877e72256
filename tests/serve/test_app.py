"""The HTTP serving layer, end to end over a real socket."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exec import ResultCache, config_key
from repro.experiments import sweep_config
from repro.serve import build_server


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

    def test_empty_cache_serves_no_surfaces(self, tmp_path):
        srv = build_server(str(tmp_path / "empty"), port=0, backfill=False)
        try:
            assert srv.index.surfaces == {}
        finally:
            srv.stop()  # must not hang: serve_forever never ran
