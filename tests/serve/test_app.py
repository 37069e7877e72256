"""The HTTP serving layer, end to end over a real socket."""

import json
import re
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ResultCache, config_key
from repro.experiments import sweep_config
from repro.obs import MetricsRegistry
from repro.serve import SurfaceIndex, answer_query, build_server
from repro.serve.app import _Handler, _split_target


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

    def test_non_finite_gauge_renders(self, tmp_path):
        _seed(tmp_path / "cache")
        registry = MetricsRegistry()
        registry.gauge("headroom").set(float("inf"))
        srv = build_server(str(tmp_path / "cache"), port=0, backfill=False,
                           registry=registry)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _get(srv.url + "/metrics")
        finally:
            srv.stop()
            thread.join(timeout=10)
        assert status == 200
        assert "headroom +Inf\n" in body.decode()

    def test_refusals_and_unknown_routes_share_one_label(self, server):
        address = server.server_address[:2]
        _exchange(address, b"POST /query HTTP/1.1\r\nHost: x\r\n"
                           b"Content-Length: 2\r\n\r\n{}")
        _exchange(address, b"GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n")
        _exchange(address, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
        for path in ("/scan-0", "/scan,a=b"):
            assert _get(server.url + path)[0] == 404
        _status, body = _get(server.url + "/metrics")
        text = body.decode()
        # the probe after each raw request went unanswered: not counted
        assert 'serve_requests_total{endpoint="-",status="501"} 1' in text
        assert 'serve_requests_total{endpoint="-",status="505"} 1' in text
        assert 'serve_requests_total{endpoint="-",status="414"} 1' in text
        assert 'serve_requests_total{endpoint="-",status="404"} 2' in text
        counts = re.findall(
            r'^serve_request_seconds_count\{endpoint="([^"]*)"\} (\d+)$',
            text, re.M,
        )
        assert [n for label, n in counts if label == "-"] == ["5"]
        endpoints = set(re.findall(r'endpoint="([^"]*)"', text))
        assert endpoints <= {"/query", "/healthz", "/surfaces", "/metrics",
                             "-"}
        assert "scan" not in text


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


    def test_a_client_that_went_away_is_not_counted(self, server, monkeypatch):
        # /metrics counts the replies that were sent, not a 500 nobody saw
        def gone(self_):
            raise ConnectionResetError("the client reset the connection")

        monkeypatch.setattr(_Handler, "_healthz", gone)
        address = server.server_address[:2]
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(_HEAD + _CLOSE + b"\r\n")
            assert sock.recv(1024) == b""  # closed, with no reply
        status, body = _get(server.url + "/metrics")
        assert status == 200
        text = body.decode()
        assert 'status="500"' not in text
        assert 'endpoint="/healthz"' not in text


class _StdlibHandler(_Handler):
    """The handler with http.server's own request parsing and Date."""

    parse_request = BaseHTTPRequestHandler.parse_request
    date_time_string = BaseHTTPRequestHandler.date_time_string


#: sent after each case on the same socket: only a connection the case
#: left open answers it
_PROBE = b"GET /probe HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
_PROBE_REPLY = b"HTTP/1.1 404 Not Found\r\n"
_HEAD = b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
_HEAD_10 = b"GET /healthz HTTP/1.0\r\nHost: x\r\n"
_OK = ("HTTP/1.1 200 OK",)
_CLOSE = b"Connection: close\r\n"

# (raw request, status lines of its reply, connection kept open)
_RAW_CASES = {
    "http11-keeps-alive": (_HEAD + b"\r\n", _OK, True),
    "connection-close": (_HEAD + _CLOSE + b"\r\n", _OK, False),
    "close-any-case": (_HEAD + b"CONNECTION: CLOSE\r\n\r\n", _OK, False),
    "close-after-tab": (_HEAD + b"Connection:\tclose\r\n\r\n", _OK, False),
    "http10-closes": (_HEAD_10 + b"\r\n", _OK, False),
    "http10-keep-alive": (
        _HEAD_10 + b"Connection: keep-alive\r\n\r\n", _OK, True),
    "first-connection-wins": (
        _HEAD + b"Connection: keep-alive\r\n" + _CLOSE + b"\r\n", _OK, True),
    "close-trailing-spaces": (
        _HEAD + b"Connection: Close  \r\n\r\n", _OK, True),
    "space-before-colon": (_HEAD + b"Connection :close\r\n\r\n", _OK, True),
    "folded-close": (_HEAD + b"Connection:\r\n close\r\n\r\n", _OK, True),
    "colon-less-line": (_HEAD + b"bogus\r\n" + _CLOSE + b"\r\n", _OK, True),
    "empty-name": (_HEAD + b": x\r\n" + _CLOSE + b"\r\n", _OK, False),
    "from-line": (_HEAD + b"From me\r\n" + _CLOSE + b"\r\n", _OK, False),
    "vertical-tab-value": (
        _HEAD + b"X-Note: a\x0bb\r\n" + _CLOSE + b"\r\n", _OK, False),
    "bare-cr-value": (
        _HEAD + b"X-Note: a\rb\r\n" + _CLOSE + b"\r\n", _OK, True),
    "latin1-value": (
        _HEAD + b"X-Note: caf\xe9\r\n" + _CLOSE + b"\r\n", _OK, False),
    "lf-only": (
        b"GET /healthz HTTP/1.1\nHost: x\nConnection: close\n\n", _OK, False),
    "expect-100-http11": (
        _HEAD + b"Expect: 100-Continue\r\n\r\n",
        ("HTTP/1.1 100 Continue", "HTTP/1.1 200 OK"), True),
    "expect-100-http10": (
        _HEAD_10 + b"Expect: 100-continue\r\n\r\n", _OK, False),
    "post-with-body": (
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
        ("HTTP/1.1 501 Unsupported method ('POST')",), False),
    "head": (
        b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        ("HTTP/1.1 501 Unsupported method ('HEAD')",), False),
    "lowercase-get": (
        b"get /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        ("HTTP/1.1 501 Unsupported method ('get')",), False),
    "double-slash-target": (
        b"GET //healthz HTTP/1.1\r\nHost: x\r\n\r\n", _OK, True),
    "absolute-form": (
        b"GET http://x:80/healthz?a=1 HTTP/1.1\r\nHost: x\r\n\r\n", _OK,
        True),
    "fragment": (b"GET /healthz#top HTTP/1.1\r\nHost: x\r\n\r\n", _OK, True),
    # urlsplit refuses this authority; serve never reads it
    "bracket-authority": (
        b"GET http://[x/healthz HTTP/1.1\r\nHost: x\r\n\r\n", _OK, True),
    # the stdlib refuses these before it takes the version: no status line
    "http2-is-505": (b"GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n", (), False),
    "bad-version-is-400": (
        b"GET /healthz HTTX/1.1\r\nHost: x\r\n\r\n", (), False),
    "four-words": (
        b"GET /healthz extra HTTP/1.1\r\nHost: x\r\n\r\n",
        ("HTTP/1.1 400 Bad request syntax "
         "('GET /healthz extra HTTP/1.1')",), False),
    "nbsp-in-target": (
        b"GET /heal\xa0thz HTTP/1.1\r\nHost: x\r\n\r\n",
        ("HTTP/1.1 400 Bad request syntax "
         "('GET /heal\\xa0thz HTTP/1.1')",), False),
    "request-line-too-long": (
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
        ("HTTP/1.1 414 Request-URI Too Long",), False),
    "header-line-too-long": (
        _HEAD + b"X-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        ("HTTP/1.1 431 Line too long",), False),
    "100-header-lines": (
        _HEAD + b"".join(b"X-%d: v\r\n" % i for i in range(99)) + b"\r\n",
        ("HTTP/1.1 431 Too many headers",), False),
    "99-header-lines": (
        _HEAD + b"".join(b"X-%d: v\r\n" % i for i in range(98)) + b"\r\n",
        _OK, True),
    "http09": (b"GET /healthz\r\n\r\n", (), False),
    "blank-request-line": (b"\r\n", (), False),
}


def _exchange(address, raw):
    """Send ``raw`` then the probe on a fresh socket; read to EOF."""
    with socket.create_connection(address, timeout=10) as sock:
        try:
            sock.sendall(raw)
            sock.sendall(_PROBE)
        except ConnectionError:
            pass  # refused mid-send: the reply is still readable
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed on unread bytes
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestRawRequests:
    """Each raw request's reply, pinned and matched to the stdlib's."""

    @pytest.fixture(scope="class")
    def servers(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("raw") / "cache"
        _seed(cache)
        served, reference = (
            build_server(str(cache), port=0, backfill=False)
            for _ in range(2)
        )
        reference.RequestHandlerClass = _StdlibHandler
        threads = [
            threading.Thread(target=srv.serve_forever, daemon=True)
            for srv in (served, reference)
        ]
        for thread in threads:
            thread.start()
        yield served, reference
        for srv in (served, reference):
            srv.stop()
        for thread in threads:
            thread.join(timeout=10)

    @pytest.mark.parametrize(
        "raw, status_lines, kept_open",
        list(_RAW_CASES.values()),
        ids=list(_RAW_CASES),
    )
    def test_reply_matches_the_stdlib(
        self, servers, raw, status_lines, kept_open
    ):
        served, reference = servers
        reply = _exchange(served.server_address[:2], raw)
        answered_probe = reply.endswith(b'"no route /probe"}}\n')
        case_reply = (
            reply[:reply.rindex(_PROBE_REPLY)] if answered_probe else reply
        )
        found = re.findall(rb"^HTTP/1\.1 \d{3}[^\r\n]*", case_reply, re.M)
        assert tuple(line.decode("latin-1") for line in found) == (
            status_lines
        )
        assert answered_probe is kept_open

        def masked(text):
            return re.sub(rb"\r\nDate: [^\r]*", b"\r\nDate: -", text)

        expected = _exchange(reference.server_address[:2], raw)
        assert masked(reply) == masked(expected)


def _stdlib_split(target):
    """The reference: ``urlsplit``, then ``parse_qs``'s last values."""
    split = urllib.parse.urlsplit(target)
    fields = urllib.parse.parse_qs(split.query)
    return split.path, [(name, values[-1]) for name, values in fields.items()]


class TestSplitTarget:
    @pytest.mark.parametrize("target", [
        "/query?kind=operating_point&scheme=proposed&load=1.25",
        "/query?kind=a&load=1&kind=b",          # repeated: last wins
        "/query?a=&b=1&c=",                     # blank values dropped
        "/query?a&b=1&c",                       # no '=': dropped
        "/query?=x&b=1",                        # an empty name is kept
        "/query?a=1&&b=2&",                     # empty fields
        "/query?a==1&b=c=d",                    # '=' inside a value
        "/query?a=1+2&b+c=%41%42&d=%2B",        # '+' and %XX decode
        "/query?a=%zz&b=%4&c=%&d=%%41",         # invalid escapes stay
        "/query?a=%C3%A9&b=%FF&c=caf\xe9",      # UTF-8, bad byte, latin-1
        "/query?a%3Db=c",                       # '=' escaped in a name
        "/query?x=1#frag?y=2&z=3",              # fragment cut first
        "/query#?x=1",
        "/healthz/?x",
        "http://host:80/query?kind=a#f",        # absolute form
        "HTTPS://h/query?kind=a",
        "http:/query?x=1",
        "http:query?x=1",
        "http://[::1]:8/query?x=1",
        "http://host?x=1",
        "http://host#x",
        "a+b.c-d:/query?x=1",                   # scheme characters
        "1a:/query?x=1",                        # not a scheme
        "/a:b?c=d:e",
        "\x00\x1b/query?x=1",                   # leading C0 controls
        "*",
        "",
    ])
    def test_table_matches_the_stdlib(self, target):
        path, fields = _split_target(target)
        assert (path, list(fields.items())) == _stdlib_split(target)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from([
        "/", "?", "#", "&", "=", "+", "%", ":", "@", "[", "]", ".", "-",
        "a", "Z", "0", "9", "%41", "%2b", "%C3%A9", "%e9", "%zz", "\xe9",
        "\x00", "\x7f", "http:", "//", "query", "kind",
    ]), max_size=24).map("".join))
    def test_random_targets_match_the_stdlib(self, target):
        try:
            expected = _stdlib_split(target)
        except ValueError:  # urlsplit refuses a malformed authority
            return
        path, fields = _split_target(target)
        assert (path, list(fields.items())) == expected

    def test_a_malformed_authority_is_skipped_not_refused(self):
        with pytest.raises(ValueError):
            urllib.parse.urlsplit("http://[x/query?a=1")
        assert _split_target("http://[x/query?a=1") == ("/query", {"a": "1"})


def test_date_is_formatted_once_a_second(monkeypatch):
    handler = _Handler.__new__(_Handler)
    stdlib = BaseHTTPRequestHandler.date_time_string
    now = [1_700_000_000.25]
    monkeypatch.setattr(_Handler, "_date", (-1, ""))
    monkeypatch.setattr(time, "time", lambda: now[0])
    first = handler.date_time_string()
    assert first == stdlib(handler, 1_700_000_000.25)
    now[0] = 1_700_000_000.75
    assert handler.date_time_string() is first
    now[0] = 1_700_000_001.0
    assert handler.date_time_string() == stdlib(handler, 1_700_000_001.0)
    assert handler.date_time_string(86_400.0) == stdlib(handler, 86_400.0)


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
