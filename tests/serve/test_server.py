"""End-to-end server behavior over real TCP connections."""

import json
import threading
import time

import numpy as np
import pytest

from repro.serve import ClientError, MAX_FRAME_BYTES, ServerError

from .conftest import connect


def wait_until(predicate, timeout_s=5.0, interval_s=0.005):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


def make_slow(index, delay_s):
    """Wrap ``index.query`` with a sleep; returns an un-patch callable."""
    original = index.query

    def slow(*args, **kwargs):
        time.sleep(delay_s)
        return original(*args, **kwargs)

    index.query = slow
    return lambda: setattr(index, "query", original)


# -- basic verbs -------------------------------------------------------------

def test_ping_and_fields(client):
    assert client.ping() is True
    listing = client.fields()
    assert set(listing["fields"]) == {"terrain"}
    # "I-Hilbert" on the plain mount, "Sharded[I-Hilbert]" on the
    # sharded one — either way the access method is visible.
    assert "I-Hilbert" in listing["fields"]["terrain"]["method"]
    assert listing["catalog"] == []


def test_query_over_the_wire_matches_direct_engine_call(server, client,
                                                        value_band):
    srv, _, _ = server
    lo, hi = value_band
    direct = srv.facade.query("terrain", lo, hi)
    answer = client.query("terrain", lo, hi)
    assert answer["candidates"] == direct.candidate_count
    assert answer["area"] == direct.area          # JSON floats are exact
    assert answer["degraded"] is False
    assert answer["io"]["page_reads"] >= 0


@pytest.mark.parametrize("kind", ["count", "sum", "area"])
def test_aggregate_over_the_wire_matches_direct_call(server, client,
                                                     value_band, kind):
    srv, _, _ = server
    lo, hi = value_band
    for params in (dict(mode="exact"), dict(mode="hybrid", tolerance=0.0),
                   dict(mode="hybrid", tolerance=5.0), dict(mode="model")):
        direct = srv.facade.aggregate("terrain", kind, lo, hi, **params)
        answer = client.aggregate("terrain", kind, lo, hi, **params)
        assert answer["value"] == direct.value    # JSON floats are exact
        assert answer["bound"] == direct.bound
        assert answer["kind"] == kind
        assert answer["mode"] == params["mode"]
    exact = client.aggregate("terrain", kind, lo, hi, mode="exact")
    zero = client.aggregate("terrain", kind, lo, hi,
                            mode="hybrid", tolerance=0.0)
    assert zero["value"] == exact["value"]
    assert zero["bound"] == 0.0


def test_aggregate_default_mode_and_avg(client, value_band):
    lo, hi = value_band
    answer = client.aggregate("terrain", "avg", lo, hi)
    assert answer["mode"] == "hybrid"
    count = client.aggregate("terrain", "count", lo, hi, mode="exact")
    total = client.aggregate("terrain", "sum", lo, hi, mode="exact")
    exact_avg = client.aggregate("terrain", "avg", lo, hi, mode="exact")
    assert exact_avg["value"] == pytest.approx(
        total["value"] / count["value"])
    if answer["bound"] is not None:
        assert abs(answer["value"] - exact_avg["value"]) \
            <= answer["bound"] + 1e-9


def test_concurrent_clients_get_byte_identical_answers(server, dem):
    """Eight clients hammering four bands concurrently must all get the
    single-threaded oracle's answers, byte for byte."""
    srv, _, _ = server
    vr = dem.value_range
    span = vr.hi - vr.lo
    bands = [(vr.lo + f * span, vr.lo + (f + 0.2) * span)
             for f in (0.1, 0.3, 0.5, 0.7)]
    oracle = {band: srv.facade.query("terrain", *band) for band in bands}

    n_clients = 8
    barrier = threading.Barrier(n_clients)
    failures = []

    def run(k):
        try:
            with connect(server, tenant=f"tenant-{k % 3}") as c:
                barrier.wait()
                for band in bands * 3:
                    answer = c.query("terrain", *band)
                    want = oracle[band]
                    assert answer["candidates"] == want.candidate_count
                    assert answer["area"] == want.area
        except BaseException as exc:   # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(k,))
               for k in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    assert srv.counts["ok"] >= n_clients * len(bands) * 3


def test_batch_over_the_wire(server, client, value_band):
    srv, _, _ = server
    lo, hi = value_band
    queries = [(lo, hi), ((lo + hi) / 2, hi)]
    direct = srv.facade.batch("terrain", queries)
    answer = client.batch("terrain", queries)
    assert len(answer["results"]) == 2
    for got, want in zip(answer["results"], direct.results):
        assert got["candidates"] == want.candidate_count
        assert got["area"] == want.area
    assert answer["groups"] >= 1


def test_query_regions_estimate_caps_payload(client, value_band):
    lo, hi = value_band
    answer = client.query("terrain", lo, hi, estimate="regions",
                          max_regions=2)
    assert answer["regions_total"] >= len(answer["regions"])
    assert len(answer["regions"]) <= 2
    for region in answer["regions"]:
        assert {"cell_id", "area", "polygon"} <= set(region)


def test_update_changes_answers_over_the_wire(client):
    band = (123_456.0, 123_457.0)
    assert client.query("terrain", *band)["candidates"] == 0
    result = client.update("terrain", [0, 1, 4], [123_456.5] * 3)
    assert result["cells_rewritten"] > 0
    assert client.query("terrain", *band)["candidates"] > 0


# -- request validation ------------------------------------------------------

@pytest.mark.parametrize("params,code", [
    (dict(op="query", field="terrain", lo=5.0, hi=1.0), "bad-request"),
    (dict(op="query", field="terrain", lo="x", hi=1.0), "bad-request"),
    (dict(op="query", field="terrain", lo=0.0), "bad-request"),
    (dict(op="query", field="terrain", lo=0.0, hi=1.0,
          estimate="bogus"), "bad-request"),
    (dict(op="query", field="nope", lo=0.0, hi=1.0), "unknown-field"),
    (dict(op="batch", field="terrain", queries=[]), "bad-request"),
    (dict(op="batch", field="terrain", queries=[[1.0]]), "bad-request"),
    (dict(op="batch", field="terrain",
          queries=[[2.0, 1.0]]), "bad-request"),
    (dict(op="update", field="terrain", vertex_ids=[0],
          values=[1.0, 2.0]), "bad-request"),
    (dict(op="update", field="terrain", vertex_ids=[0.5],
          values=[1.0]), "bad-request"),
    (dict(op="update", field="terrain", vertex_ids=[True],
          values=[1.0]), "bad-request"),
    (dict(op="stats", field=7), "bad-request"),
    (dict(op="aggregate", field="terrain", kind="median",
          lo=0.0, hi=1.0), "bad-request"),
    (dict(op="aggregate", field="terrain", kind="count",
          lo=5.0, hi=1.0), "bad-request"),
    (dict(op="aggregate", field="terrain", kind="count",
          lo=0.0, hi=1.0, tolerance=-1.0), "bad-request"),
    (dict(op="aggregate", field="terrain", kind="count",
          lo=0.0, hi=1.0, mode="psychic"), "bad-request"),
    (dict(op="aggregate", field="nope", kind="count",
          lo=0.0, hi=1.0), "unknown-field"),
    # JSON integers past the float range.
    (dict(op="query", field="terrain", lo=0.0, hi=10**400),
     "bad-request"),
    (dict(op="batch", field="terrain", queries=[[0.0, 10**400]]),
     "bad-request"),
])
def test_invalid_requests_get_typed_errors(client, params, code):
    # Don't pop: the parametrize dicts are shared across fixture params.
    kwargs = {k: v for k, v in params.items() if k != "op"}
    with pytest.raises(ServerError) as excinfo:
        client.request(params["op"], **kwargs)
    assert excinfo.value.code == code


def test_malformed_frame_answers_and_connection_survives(client):
    response = json.loads(client.send_raw(b"definitely not json\n"))
    assert response == {"id": None, "ok": False,
                        "error": response["error"]}
    assert response["error"]["code"] == "bad-frame"
    assert client.ping()


@pytest.mark.parametrize("frame,entry", [
    ('"queries":[[NaN,1e9],[-1e9,1e9]]', "queries[0]"),
    ('"queries":[[-1e9,1e9],[-Infinity,0]]', "queries[1]"),
    ('"queries":[[-1e9,1e9],Infinity]', "queries[1]"),
    ('"queries":[[-1e9,1e999]]', "queries[0]"),
], ids=["nan-lo", "neg-inf-lo", "inf-exact", "overflow-hi"])
def test_batch_with_non_finite_bounds_is_a_bad_request(client, frame,
                                                       entry):
    # json.loads accepts NaN and ±Infinity; the frames are sent raw.
    response = json.loads(client.send_raw(
        b'{"op":"batch","field":"terrain",' + frame.encode() + b"}\n"))
    assert response["ok"] is False
    assert response["error"]["code"] == "bad-request"
    assert entry in response["error"]["message"]


@pytest.mark.parametrize("values,entry", [
    ("[NaN]", "values[0]"),
    ("[1.0,Infinity]", "values[1]"),
    ("[-Infinity,1.0]", "values[0]"),
])
def test_update_with_non_finite_values_changes_nothing(client, dem,
                                                       values, entry):
    vr = dem.value_range
    vertex_ids = list(range(values.count(",") + 1))
    response = json.loads(client.send_raw(
        f'{{"op":"update","field":"terrain","vertex_ids":{vertex_ids},'
        f'"values":{values}}}\n'.encode()))
    assert response["ok"] is False
    assert response["error"]["code"] == "bad-request"
    assert entry in response["error"]["message"]
    # The field is untouched: a full-range query still sees every cell.
    answer = client.query("terrain", vr.lo, vr.hi)
    assert answer["candidates"] == dem.num_cells


def test_oversized_frame_closes_the_connection(server):
    with connect(server) as c:
        frame = (b'{"op": "ping", "pad": "' + b"x" * MAX_FRAME_BYTES
                 + b'"}\n')
        response = json.loads(c.send_raw(frame))
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-frame"
        # The tail of an oversized line cannot be resynchronized: the
        # server closes; the next read sees EOF.
        with pytest.raises(ClientError):
            c.ping()


# -- catalog open/close ------------------------------------------------------

def test_open_is_catalog_gated_and_idempotent(boot_server, dem, tmp_path):
    npy = tmp_path / "hills.npy"
    np.save(npy, dem.heights)
    server = boot_server(catalog={"hills": npy})
    with connect(server) as c:
        with pytest.raises(ServerError) as excinfo:
            c.query("hills", 0.0, 1.0)          # catalogued, not open yet
        assert excinfo.value.code == "unknown-field"

        opened = c.open("hills")
        assert opened["opened"] is True
        assert opened["info"]["source"].endswith("hills.npy")
        again = c.open("hills")                  # idempotent
        assert again["opened"] is False

        vr = dem.value_range
        assert c.query("hills", vr.lo, vr.hi)["candidates"] > 0

        # Arbitrary paths are not in the catalog: never openable.
        with pytest.raises(ServerError) as excinfo:
            c.open(str(npy))
        assert excinfo.value.code == "unknown-field"

        assert c.close_field("hills")["closed"] is True
        with pytest.raises(ServerError) as excinfo:
            c.query("hills", 0.0, 1.0)
        assert excinfo.value.code == "unknown-field"


# -- stats & metrics ---------------------------------------------------------

def test_stats_reports_server_admission_and_tenants(server, value_band):
    srv, _, _ = server
    lo, hi = value_band
    with connect(server, tenant="alice") as c:
        c.query("terrain", lo, hi)
        stats = c.stats("terrain")
    assert stats["field"] == "terrain"
    assert stats["tenants"]["alice"]["hits"] \
        + stats["tenants"]["alice"]["misses"] > 0
    assert stats["admission"]["alice"]["admitted"] == 1
    block = stats["server"]
    assert block["requests"] >= 1
    assert block["outcomes"].get("ok", 0) >= 1
    assert block["stopping"] is False
    assert srv.requests_served >= 2


def test_metrics_verb_json_and_text(boot_server, value_band):
    server = boot_server(enable_metrics=True)
    lo, hi = value_band
    with connect(server) as c:
        c.query("terrain", lo, hi)
        dump = c.metrics()
        assert dump["format"] == "json"
        names = {m["name"] for m in dump["metrics"]}
        assert "repro_serve_requests_total" in names
        assert "repro_serve_request_ms" in names
        text = c.metrics(format="text")
        assert "repro_serve_requests_total" in text["text"]


# -- lifecycle ---------------------------------------------------------------

def test_graceful_shutdown_drains_in_flight_requests(boot_server, dem,
                                                     value_band):
    """A client mid-request during stop() gets its answer, not a reset."""
    server = boot_server()
    srv, host, port = server
    unpatch = make_slow(srv.facade.handle("terrain").index, 0.4)
    lo, hi = value_band
    answers, failures = [], []

    def run():
        try:
            with connect(server) as c:
                answers.append(c.query("terrain", lo, hi))
        except BaseException as exc:   # pragma: no cover - failure path
            failures.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        assert wait_until(lambda: srv.active_requests == 1)
        srv.harness.submit(srv.stop())       # drains before closing
        thread.join(10.0)
        assert not failures
        assert len(answers) == 1
        assert answers[0]["candidates"] >= 0
        # The listener is gone: new connections are refused.
        with pytest.raises(OSError):
            connect(server)
    finally:
        unpatch()
        thread.join(1.0)


def test_requests_during_drain_get_shutting_down(boot_server):
    server = boot_server()
    srv, _, _ = server
    with connect(server) as warm:
        assert warm.ping()
        # A connection whose first frame arrives during the drain
        # window gets the typed shutting-down answer, not a reset.
        with connect(server) as c:
            srv._stopping = True             # simulate drain window
            try:
                with pytest.raises(ServerError) as excinfo:
                    c.ping()
                assert excinfo.value.code == "shutting-down"
            finally:
                srv._stopping = False


def test_max_requests_stops_the_server(boot_server):
    server = boot_server(max_requests=2)
    srv, _, _ = server
    with connect(server) as c:
        assert c.ping()
        assert c.ping()
        srv.harness.submit(srv.wait_stopped())
        with pytest.raises(ClientError):
            c.ping()
    with pytest.raises(OSError):
        connect(server)


def test_stop_is_idempotent(server):
    srv, _, _ = server
    srv.harness.submit(srv.stop())
    srv.harness.submit(srv.stop())           # second call: waits, no-op
    assert srv.active_requests == 0
