"""Per-layer metrics of the traced run, and the fixed-batch model table.

Every metric here is derived from the spans :mod:`spans` records around the
program's public functions, from the program's own counters read through its
public accessors, or from the benchmark's per-request observations.  A
metric of a layer the workload does not exercise (the wire on an in-process
workload) reads 0.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

import traffic
from drivers import open_loop, percentile
from repro.serving import AsyncPredictionServer, ServerConfig
from repro.serving.http.schemas import request_to_wire
from spans import SpanTable, Tracer, covered_share

TABLE_BATCHES = (1, 8, 32, 128)
TABLE_REPEATS = 15


def _quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def model_table(model, workloads, rewarm_records) -> tuple[dict, dict]:
    """``LearnedWMP.predict`` per-workload cost at fixed batch sizes, warm.

    Timed untraced (these give ``model.predict.b*_us``), then once more under
    the tracer for the per-layer split.  The cold row clears the model's
    plan-feature cache before each lone-workload call.
    """
    clock = time.perf_counter
    rows: dict[str, dict] = {}
    cursor = 0

    def take(n):
        nonlocal cursor
        chunk = [workloads[(cursor + j) % len(workloads)] for j in range(n)]
        cursor += n
        return chunk

    for batch in TABLE_BATCHES:
        per_workload = []
        for _ in range(TABLE_REPEATS):
            chunk = take(batch)
            start = clock()
            model.predict(chunk)
            per_workload.append(1e6 * (clock() - start) / batch)
        rows[f"b{batch}"] = _quartiles(per_workload)

    tracer = Tracer()
    tracer.install()
    try:
        for batch in TABLE_BATCHES:
            first = len(tracer.spans)
            for _ in range(TABLE_REPEATS):
                model.predict(take(batch))
            table = SpanTable(tracer.spans[first:])
            n = batch * TABLE_REPEATS
            rows[f"b{batch}"]["split_us_per_workload"] = {
                name: 1e6 * float(table.self_times(name).sum()) / n
                for name in ("model.predict", "features.featurize", "features.fingerprint",
                             "templates.assign", "regressor.predict")
            }
    finally:
        tracer.uninstall()

    cold = []
    featurizer = model.featurizer
    for _ in range(TABLE_REPEATS):
        chunk = take(1)
        featurizer.clear()
        start = clock()
        model.predict(chunk)
        cold.append(1e6 * (clock() - start))
    rows["cold_b1"] = _quartiles(cold)
    model.templates.assign(rewarm_records)

    metrics = {f"model.predict.b{b}_us": (rows[f"b{b}"]["median"], "us") for b in TABLE_BATCHES}
    metrics["model.predict.cold_b1_us"] = (rows["cold_b1"]["median"], "us")
    return metrics, rows


def counters(setup) -> dict:
    """The program's own cumulative counters, read through public accessors."""
    server = setup.server
    feature = setup.model.feature_cache_stats()
    cache = server.cache_stats()
    return {
        "feature_hits": feature.hits,
        "feature_misses": feature.misses,
        "cache_hits": cache.hits if cache else 0,
        "cache_misses": cache.misses if cache else 0,
        "coalesced": server.coalesced_requests,
    }


def timed_snapshot(server) -> float:
    start = time.perf_counter()
    server.snapshot()
    return 1e3 * (time.perf_counter() - start)


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _queue_and_handoff(spans, phases, in_process: bool):
    """Submit→model-start wait and model-return→future-resolved handoff.

    A batch span lists its workloads by identity; each is matched to the
    latest ``submit_request`` of the same workload that started before the
    batch did.
    """
    submits = defaultdict(list)  # id(workload) -> [(start, request_id)]
    for s in spans:
        if s[1] == "driver.submit":
            submits[s[6][0]].append((s[2], s[6][1]))
    for entries in submits.values():
        entries.sort()
    starts = {wid: [start for start, _ in entries] for wid, entries in submits.items()}
    done_at = {}
    for phase in phases:
        for i in range(phase.n_sent):
            done_at[phase.requests[i].request_id] = phase.done[i]
    waits, handoffs = [], []
    for s in spans:
        if s[1] != "model.predict":
            continue
        for wid in s[6]:
            index = bisect.bisect_right(starts.get(wid, ()), s[2]) - 1
            if index < 0:
                continue
            submitted, request_id = submits[wid][index]
            waits.append(1e3 * (s[2] - submitted))
            if in_process and request_id in done_at:
                handoffs.append(1e6 * (done_at[request_id] - s[3]))
    return waits, handoffs


def per_layer(setup, spans, phases, plain_peak, before, after, snapshots, tail_q) -> dict:
    table = SpanTable(spans)
    peak, low = phases["peak"], phases["low"]
    timed = [phases["low"], phases["high"]]
    sent = sum(p.n_sent for p in phases.values())
    shed = sum(p.counts()["shed"] for p in phases.values())
    predicts = table.by_name.get("model.predict", [])
    n_workloads = sum(len(s[6]) for s in predicts)
    peak_table = SpanTable(spans, peak.started, peak.finished)
    in_process = setup.plan.front != "gateway"
    rate_spans = [s for s in spans if any(p.started <= s[2] <= p.finished for p in timed)]
    waits, handoffs = _queue_and_handoff(rate_spans, timed, in_process)
    hit_us = [
        1e6 * (p.done[i] - p.sent[i])
        for p in phases.values()
        for i in range(p.n_sent)
        if in_process and p.hit[i] and p.verdict[i] == "ok"
    ]
    traced_peak = peak.rate_of_answers()
    untraced_peak = plain_peak.rate_of_answers()
    sync_spans = [(s[2], s[3]) for s in spans]
    uncovered = [
        1.0 - covered_share(sync_spans, low.due[i], low.done[i])
        for i in range(low.n_sent)
        if low.verdict[i] == "ok"
    ]
    feature_requests = (after["feature_hits"] - before["feature_hits"]) + (
        after["feature_misses"] - before["feature_misses"]
    )
    cache_requests = (after["cache_hits"] - before["cache_hits"]) + (
        after["cache_misses"] - before["cache_misses"]
    )
    m = {
        "model.busy_ratio": (
            _ratio(peak_table.busy_s("model.predict"), peak.finished - peak.started), "ratio"),
        "model.calls": (len(predicts), "count"),
        "model.workloads": (n_workloads, "count"),
        "features.featurize.us_per_query": (table.self_us_per("features.featurize"), "us"),
        "features.fingerprint.us_per_plan": (table.mean_us("features.fingerprint"), "us"),
        "features.cache_hit_ratio": (
            _ratio(after["feature_hits"] - before["feature_hits"], feature_requests), "ratio"),
        "templates.assign.us_per_query": (table.self_us_per("templates.assign"), "us"),
        "regressor.predict.us_per_call": (table.mean_us("regressor.predict"), "us"),
        "cache.hit_ratio": (
            _ratio(after["cache_hits"] - before["cache_hits"], cache_requests), "ratio"),
        "cache.signature.us": (table.mean_us("cache.signature"), "us"),
        "kernel.submit.us": (table.self_mean_us("kernel.submit"), "us"),
        "kernel.batch_done.us": (table.mean_us("kernel.batch_done"), "us"),
        "kernel.batch_size_mean": (_ratio(n_workloads, len(predicts)), "count"),
        "kernel.coalesced_ratio": (
            _ratio(after["coalesced"] - before["coalesced"], sent), "ratio"),
        "kernel.shed_ratio": (_ratio(shed, sent), "ratio"),
        "kernel.queue_depth_max": (setup.server.snapshot().max_queue_depth, "count"),
        "driver.submit.us": (table.mean_us("driver.submit"), "us"),
        "driver.queue_wait_ms.p50": (percentile(waits, 50) if waits else 0.0, "ms"),
        "driver.queue_wait_ms.p95": (percentile(waits, tail_q) if waits else 0.0, "ms"),
        "driver.handoff_us.p50": (percentile(handoffs, 50) if handoffs else 0.0, "us"),
        "driver.hit_latency_us.p50": (percentile(hit_us, 50) if hit_us else 0.0, "us"),
        "telemetry.record.us": (table.mean_us("telemetry.record"), "us"),
        "telemetry.snapshot_ms": (snapshots[-1], "ms"),
        "trace.peak_rps": (traced_peak, "1/s"),
        "trace.untraced_peak_rps": (untraced_peak, "1/s"),
        "trace.overhead_ratio": (1.0 - _ratio(traced_peak, untraced_peak), "ratio"),
        "trace.unaccounted_ratio": (
            statistics.median(uncovered) if uncovered else 0.0, "ratio"),
    }
    m.update(_wire(setup, table))
    return m


def _wire(setup, table: SpanTable) -> dict:
    """Wire, gateway and client layers (0 on the in-process workloads)."""
    names = ("wire.request_bytes", "wire.encode_request.us", "wire.decode_request.us",
             "wire.result.us", "gateway.handler.us", "client.roundtrip_ms.p50",
             "client.transport_ms.p50")
    units = ("bytes", "us", "us", "us", "us", "ms", "ms")
    if setup.plan.front != "gateway":
        return {name: (0.0, unit) for name, unit in zip(names, units)}
    sample = [item.request() for item in setup.items[:64]]
    request_bytes = statistics.mean(
        len(json.dumps(request_to_wire(r), separators=(",", ":"), sort_keys=True))
        for r in sample
    )
    handler = {s[6]: s[3] - s[2] for s in table.by_name.get("gateway.handler", [])}
    roundtrips = table.by_name.get("client.roundtrip", [])
    own = dict(zip((s[0] for s in roundtrips), table.self_times("client.roundtrip")))
    transport = [
        1e3 * (own[s[0]] - handler[s[6]]) for s in roundtrips if s[6] in handler
    ]
    values = (
        request_bytes,
        table.mean_us("wire.encode_request"),
        table.mean_us("wire.decode_request"),
        table.mean_us("wire.encode_result") + table.mean_us("wire.decode_result"),
        table.mean_us("gateway.handler"),
        1e3 * float(np.median(table.durations("client.roundtrip"))) if roundtrips else 0.0,
        percentile(transport, 50) if transport else 0.0,
    )
    return {name: (value, unit) for name, value, unit in zip(names, values, units)}


def contention(setup, tail_q) -> tuple[dict, dict]:
    """The two-tenant contention scenario on the asyncio driver, untraced.

    Plays the scenario's own schedule (on/off bursts of a deadline-bound,
    cache-bypassing noisy tenant against a priority-1 steady tenant) on a
    fresh ``AsyncPredictionServer`` with the scenario's queue bound and
    tenant quotas, serving the run's model.
    """
    compiled = traffic.load_contention(setup.seed)
    items = compiled.schedule
    expected = traffic.Expected(setup.model, [item.workload for item in items])
    config = ServerConfig(
        max_queue_depth=128,
        tenant_weights=compiled.spec.tenant_weights(),
        tenant_max_inflight=compiled.spec.tenant_max_inflight(),
    )
    offsets = np.array([item.at_s for item in items])
    with AsyncPredictionServer(setup.model, config=config) as server:
        phase = open_loop("contention", server.submit_request, items,
                          [i.to_request() for i in items], offsets,
                          len(items) / compiled.duration_s)
    phase.verify(expected)
    misses = defaultdict(int)
    sent = defaultdict(int)
    good = 0
    for i in range(phase.n_sent):
        item = items[i]
        sent[item.tenant] += 1
        in_time = phase.verdict[i] == "ok" and (
            item.deadline_s is None or phase.done[i] - phase.due[i] <= item.deadline_s
        )
        good += in_time
        misses[item.tenant] += not in_time
    steady = phase.latencies_ms(tenant="steady")
    metrics = {
        "scenario.goodput_rps": (good / compiled.duration_s, "1/s"),
        "scenario.miss_ratio": (_ratio(sum(misses.values()), phase.n_sent), "ratio"),
        "scenario.steady_tail_p95_ms": (percentile(steady, tail_q), "ms"),
        "scenario.steady_miss_ratio": (_ratio(misses["steady"], sent["steady"]), "ratio"),
    }
    summary = phase.summary(tail_q)
    summary.update(per_tenant_sent=dict(sent), per_tenant_missed=dict(misses),
                   inexact_answers=expected.inexact)
    return metrics, {"contention": summary, "counts": phase.counts()}
