"""Unit tests of the benchmark harness itself (``pytest bench/``).

Not part of the repo's tier-1 ``testpaths``: these test the measuring
instrument, not the program. ``test_end_to_end.py`` drives a real
subprocess server; everything here is synthetic and fast.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import bounds  # noqa: E402
import compare  # noqa: E402
import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import server  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import traced_server  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Trace  # noqa: E402


# -- percentiles and +inf accounting ---------------------------------------------
def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert stats.percentile(samples, 50) == 50.0
    assert stats.percentile(samples, 99) == 99.0
    assert stats.percentile(samples, 100) == 100.0
    assert stats.percentile([7.0], 99) == 7.0


def test_failed_requests_count_as_infinite_latency():
    samples = [float(v) for v in range(1, 99)]  # 98 ok
    # 2 failures in 100: the 99th percentile lands on a failure.
    assert stats.percentile(samples, 99, failed=2) == math.inf
    assert stats.percentile(samples, 98, failed=2) == 98.0
    # The median is untouched by a few failures, but not by a majority.
    assert stats.percentile(samples, 50, failed=2) == 50.0
    assert stats.percentile([1.0], 50, failed=3) == math.inf
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_the_drivers_quartile_distance():
    import statistics

    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )
    assert stats.relative_spread([5.0]) == 0.0
    assert stats.relative_range([9.0, 10.0, 12.0]) == pytest.approx(0.3)


def _synthetic_result() -> loadgen.RoundResult:
    result = loadgen.RoundResult(phases=workloads.phase_seconds(10.0))
    result.open_start = 100.0
    count = 8
    result.open_sent = result.writes_sent = count
    # Due every 0.25 s from t=100; the first two fall in the 0.5 s warm-up.
    result.due = [100.0 + 0.25 * k for k in range(count)]
    result.done = [due + 0.010 for due in result.due]
    result.placed = [(1, k, True, 21000) for k in range(count)]
    return result


def test_open_latency_is_timed_from_due_and_skips_warmup():
    result = _synthetic_result()
    samples, failed = run.open_latencies(result)
    assert failed == 0
    assert len(samples) == 6  # due >= 100.5
    assert samples == pytest.approx([10.0] * 6)
    # A refused and an unanswered request both count as failed.
    result.placed[5] = None
    result.placed[6] = None
    result.done[6] = None
    samples, failed = run.open_latencies(result)
    assert (len(samples), failed) == (4, 2)
    assert run._finite_ms(stats.percentile(samples, 99, failed)) == run.INF_MS


def test_ops_failed_counts_errors_unanswered_and_bad_reads():
    result = _synthetic_result()
    result.reads_sent = 5
    result.read_errors = 1
    result.write_errors = {-32001: 2}
    result.done[7] = None
    assert run.count_ops(result) == (13, 4)


# -- open-loop schedule against a live (fake) server --------------------------------
class _FakeServer:
    """A minimal JSON-RPC peer on its own thread and event loop, so the
    generator's loop can be stalled without stalling the replies."""

    health_at_boot = {"stateRoot": "00", "height": 0}

    def __init__(self) -> None:
        self.port = 0
        self._ready = threading.Event()
        self._loop = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        assert self._ready.wait(10)

    def cpu_seconds(self) -> float:
        return 0.0

    def rss_mb(self) -> float:
        return 1.0

    def _serve(self) -> None:
        async def handle(reader, writer):
            committed = 0
            while line := await reader.readline():
                request = json.loads(line)
                method = request["method"]
                if method == "repro_sendTransaction":
                    committed += 1
                    result = {"blockHeight": 1, "txIndex": committed - 1,
                              "success": True, "gasUsed": 21000,
                              "txHash": f"{request['id']:064x}"}
                elif method == "repro_getProof":
                    result = {"proof": "00", "stateRoot": "00",
                              "address": "1", "balance": 0, "nonce": 0}
                elif method == "repro_health":
                    result = {"height": 0, "stateRoot": "00"}
                elif method == "repro_getReceipt":
                    result = {"txHash": request["params"]["txHash"]}
                else:  # stats, balances
                    result = {} if method == "repro_stats" else 1
                reply = {"jsonrpc": "2.0", "id": request["id"],
                         "result": result}
                writer.write(json.dumps(reply).encode() + b"\n")

        async def main():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            self.port = server.sockets[0].getsockname()[1]
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            server.close()

        asyncio.run(main())

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10)
        assert not self._thread.is_alive()


def test_open_loop_times_from_due_when_the_generator_stalls():
    workload = workloads.Workload(
        name="t", why="", traffic="transfer", server_flags=(),
        open_rate=200.0, pool_rate=2000.0, reads_beside_writes=True,
    )
    seconds = 2.5  # open phase: 1 s = 200 requests
    frames = [
        workloads._FRAME % (i, b"00")
        for i in range(workloads.pool_size(workload, seconds))
    ]
    pool = workloads.FramePool(
        transactions=[None] * len(frames), frames=frames,
        accounts=[1, 2, 3], sha256="",
    )
    fake = _FakeServer()
    try:
        async def main():
            driver = loadgen.RoundDriver(workload, pool, 3, seconds, fake)
            # Block the generator's own loop for 0.3 s mid-phase: every
            # request due meanwhile leaves late, but is timed from when
            # it was due.
            asyncio.get_running_loop().call_later(0.4, time.sleep, 0.3)
            return await driver.run()

        result = asyncio.run(main())
    finally:
        fake.close()
    assert result.open_sent == 200
    assert run.count_ops(result)[1] == 0
    for k in range(result.open_sent):  # the schedule never slips
        assert result.due[k] - result.due[0] == pytest.approx(
            k / 200.0, abs=1e-9
        )
    assert 250.0 < max(result.late_ms) < 400.0
    stalled = [
        (result.done[k] - result.due[k]) * 1000.0
        for k in range(result.open_sent)
    ]
    # Charged to the requests the stall delayed, not hidden by it.
    assert max(stalled) > 250.0
    # The closed loop kept one block in flight after the open phase,
    # and the read loop ran beside both on the second connection.
    assert result.writes_sent > result.open_sent
    assert result.reads_ok and result.read_errors == 0
    assert {kind for _s, _d, kind in result.reads_ok} == {
        "balance", "proof", "receipt"
    }


# -- the host-speed reference ---------------------------------------------------------
def test_host_speed_is_units_per_cpu_second_of_the_windows_samples():
    ref, units = hostspeed.REFERENCE_SPEED, hostspeed.UNITS_PER_SAMPLE
    full = units / ref  # CPU seconds one sample takes at reference speed
    # (wall time the sample ended, CPU seconds it took): reference speed
    # for two samples, then half speed.
    host = hostspeed.HostSpeed(
        [(1.0, full), (2.0, full), (3.0, 2 * full), (4.0, 2 * full)]
    )
    assert host.speed(0.0, 2.0) == pytest.approx(ref)
    assert host.speed(2.5, 4.0) == pytest.approx(ref / 2)
    assert host.speed(0.0, 4.0) == pytest.approx(ref * 4 / 6)
    # At half speed all-CPU work takes twice as long...
    assert host.scale_rate(1000.0, 2.5, 4.0, 1.0) == pytest.approx(2000.0)
    assert host.scale_duration(1.0, 2.5, 4.0, 1.0) == pytest.approx(0.5)
    # ...and work that is half timer one and a half times as long.
    assert host.stretch(2.5, 4.0, 0.5) == pytest.approx(1.5)
    assert host.scale_duration(1.5, 2.5, 4.0, 0.5) == pytest.approx(1.0)
    assert host.scale_rate(1000.0, 2.5, 4.0, 0.5) == pytest.approx(1500.0)
    assert (host.samples(0.0, 2.0), host.samples(2.5, 9.0)) == (2, 2)
    # No sample there: factor 1, never a division by zero...
    assert host.samples(10.0, 11.0) == 0
    assert host.speed(10.0, 11.0) == ref
    assert hostspeed.HostSpeed([]).scale_rate(7.0, 0.0, 1.0, 0.8) == 7.0


def test_a_window_the_probe_did_not_sample_fails_the_run():
    # ...but such a run is failed, not reported unscaled.
    result = _synthetic_result()
    result.open_end = 102.0
    result.closed_start, result.closed_end = 103.0, 109.0
    booted = [(90.0, 1.0), (95.0, 1.0)]
    every_40ms = [(90.0 + 0.04 * k, 0.002) for k in range(500)]
    host = hostspeed.HostSpeed(every_40ms)
    assert run.probe_failures(host, booted, result) == []
    # The probe died during the second boot.
    dead = hostspeed.HostSpeed([s for s in every_40ms if s[0] < 95.05])
    failures = run.probe_failures(dead, booted, result)
    assert [f.split(" samples in the ")[1].split(" (")[0]
            for f in failures] == ["boot 2", "open window", "closed window"]
    assert len(run.probe_failures(hostspeed.HostSpeed([]), booted, result)) == 4


def test_probe_process_samples_on_a_duty_cycle_and_stops(tmp_path):
    probe = hostspeed.Probe(tmp_path / "samples.json")
    started = time.perf_counter()
    time.sleep(0.6)
    host = probe.stop()
    assert probe.proc.poll() is not None
    elapsed = time.perf_counter() - started
    assert 3 <= len(host._at) <= elapsed / hostspeed.SLEEP_S + 1
    assert sum(host._cpu) < 0.25 * elapsed  # a probe, not a load
    speed = host.speed(started, started + elapsed)
    assert 0.05 * hostspeed.REFERENCE_SPEED < speed
    assert speed < 20 * hostspeed.REFERENCE_SPEED


# -- booting the server -----------------------------------------------------------------
def test_boot_finds_the_port_when_two_lines_arrive_at_once():
    # A boot on a populated directory prints "recovered height" and
    # "listening on" back to back; both are in the pipe before the first
    # read. The port must be found at once, not after a timed-out select.
    process = server.ServerProcess("unused")
    process.proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time; sys.stderr.write('recovered height 3 from d\\n"
         "repro serve: listening on 127.0.0.1:4242 (64 genesis accounts)"
         "\\n'); sys.stderr.flush(); time.sleep(30)"],
        stderr=subprocess.PIPE, bufsize=0,
    )
    try:
        time.sleep(0.5)
        started = time.perf_counter()
        assert process._await_listening(started) == 4242
        assert time.perf_counter() - started < 5.0
    finally:
        process.kill()
    # A server that dies before listening is an error carrying its stderr.
    process.proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.exit('no such flag')"],
        stderr=subprocess.PIPE, bufsize=0,
    )
    with pytest.raises(server.ServerError, match="no such flag"):
        process._await_listening(time.perf_counter())
    process.kill()


# -- span arithmetic -----------------------------------------------------------------
def _trace() -> Trace:
    main, worker = 1, 2
    return Trace([
        # worker thread: propose [0,4] > discover [1,3]; commit [5,9] >
        # seal [5,6] > update [5.2,5.8]; append [6,8] > sync [7,8]
        Span(1, 0, "Node.propose_block", worker, 0.0, 4.0,
             {"height": 1, "txs": ["aa", "bb"]}),
        Span(2, 1, "dag.discover_access_sets", worker, 1.0, 3.0, None),
        Span(3, 0, "Node.commit_block", worker, 5.0, 9.0,
             {"height": 1, "txs": 2}),
        Span(4, 3, "Node.seal_state_root", worker, 5.0, 6.0, None),
        Span(5, 4, "StateTrie.update", worker, 5.2, 5.8, 7),
        Span(6, 3, "ChainStore.append_block", worker, 6.0, 8.0, None),
        Span(7, 6, "WalWriter.sync", worker, 7.0, 8.0, None),
        # event loop: submit overlaps propose; two reply frames after
        # the commit, then a getReceipt re-encoding the first one.
        Span(8, 0, "BlockBuilder.submit", main, -1.0, -0.5, "aa"),
        Span(9, 0, "BlockBuilder.submit", main, 3.5, 4.5, "zz"),
        Span(10, 0, "protocol.encode_frame", main, 9.5, 9.6, [1, 0]),
        Span(11, 0, "protocol.encode_frame", main, 9.7, 9.8, [1, 1]),
        Span(12, 0, "protocol.encode_frame", main, 9.9, 10.0, [1, 0]),
    ], missing=["EVM.execute_transaction"], main_thread=main)


def test_self_time_is_duration_minus_children():
    trace = _trace()
    by_id = {span.id: span for span in trace.spans}
    window = (-10.0, 20.0)
    assert spans.self_time(trace, by_id[1], *window) == pytest.approx(2.0)
    assert spans.self_time(trace, by_id[3], *window) == pytest.approx(1.0)
    assert spans.self_time(trace, by_id[4], *window) == pytest.approx(0.4)
    assert spans.self_time(trace, by_id[6], *window) == pytest.approx(1.0)
    assert spans.self_time(trace, by_id[7], *window) == pytest.approx(1.0)


def test_self_time_clips_to_the_window():
    trace = _trace()
    by_id = {span.id: span for span in trace.spans}
    # [2, 5.5]: propose keeps [2,4] minus discover's [2,3] = 1.
    assert spans.self_time(trace, by_id[1], 2.0, 5.5) == pytest.approx(1.0)
    # commit keeps [5,5.5], all of it inside seal; seal minus update's
    # [5.2,5.5].
    assert spans.self_time(trace, by_id[3], 2.0, 5.5) == pytest.approx(0.0)
    assert spans.self_time(trace, by_id[4], 2.0, 5.5) == pytest.approx(0.2)


def test_union_length_merges_overlaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert spans.union_length([]) == 0.0
    assert spans.merge([(5, 6), (0, 2), (2, 3)]) == [(0, 3), (5, 6)]


def test_accounting_books_every_instant_once():
    trace = _trace()
    books = spans.accounting(trace, 0.0, 10.0)
    # worker covers [0,4]+[5,9] = 8; loop covers [3.5,4.5]+0.3 = 1.3;
    # they overlap on [3.5,4]; union = 8 + 0.5 + 0.3 = 8.8.
    assert books["uncovered_s"] == pytest.approx(1.2)
    assert books["thread_overlap_s"] == pytest.approx(0.5)
    assert books["engine_s"] == pytest.approx(8.0)
    # The named self time keeps the wait; the waterfall books it to the
    # worker, and then the shares close on the wall time.
    assert books["self_s_by_name"]["BlockBuilder.submit"] == (
        pytest.approx(1.0)
    )
    assert books["exclusive_s_by_name"]["BlockBuilder.submit"] == (
        pytest.approx(0.5)
    )
    assert books["accounted_share"] == pytest.approx(1.0)
    shares = spans.waterfall(books)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["(no span)"] == pytest.approx(0.12)


def test_queue_and_resolve_waits_join_on_shared_ids():
    trace = _trace()
    # "aa" was submitted at -0.5 and proposed at 0; "zz" never proposed.
    assert spans.queue_waits(trace, -5.0, 20.0) == pytest.approx([0.5])
    # First frame per (height, index) only: the getReceipt copy is out.
    assert spans.resolve_waits(trace, -5.0, 20.0) == pytest.approx(
        [0.6, 0.8]
    )


def test_layer_metrics_omit_what_a_missing_wrap_point_feeds():
    trace = _trace()
    result = types.SimpleNamespace(
        closed_measure_start=0.0, closed_measure_end=10.0,
        open_measure_start=-5.0, open_end=20.0,
        open_start=-5.0, round_end=20.0,
        committed_between=lambda t0, t1: (2, 42000),
    )
    books = spans.accounting(trace, 0.0, 10.0)
    metrics = spans.layer_metrics(trace, result, books)
    assert metrics["chain.discover_us"] == pytest.approx(1e6)
    assert metrics["trie.update_us"] == pytest.approx(0.3e6)
    assert metrics["storage.fsyncs_per_ktx"] == pytest.approx(500.0)
    assert metrics["trie.nodes_rehashed_per_tx"] == pytest.approx(3.5)
    assert metrics["serve.engine_share"] == pytest.approx(0.8)
    trace.missing.append("dag.discover_access_sets")
    assert "chain.discover_us" not in spans.layer_metrics(
        trace, result, books
    )
    # ...and the driver's result line still names it, reading 0.
    line = json.loads(run.contract_line(
        {"metrics": {}, "failures": [], "attempted": 1, "failed": 0},
        run.PER_LAYER,
    ))
    assert line["metrics"]["chain.discover_us"] == {
        "value": 0.0, "unit": "us/tx"
    }
    assert set(line["metrics"]) == {name for name, _, _ in run.PER_LAYER}


# -- the span recorder ----------------------------------------------------------------
def test_recorder_links_parents_and_lists_unresolved_wrap_points():
    module = types.ModuleType("bench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    def boom():
        raise KeyError("no")

    module.inner, module.outer, module.boom = inner, outer, boom
    sys.modules["bench_fake_layer"] = module
    try:
        recorder = traced_server.SpanRecorder()
        recorder.install((
            ("fake.outer", "bench_fake_layer", "outer",
             lambda args, result: result),
            ("fake.inner", "bench_fake_layer", "inner", None),
            ("fake.boom", "bench_fake_layer", "boom", None),
            ("fake.renamed", "bench_fake_layer", "Gone.method", None),
            ("fake.moved", "bench_no_such_module", "f", None),
        ))
        assert recorder.missing == ["fake.renamed", "fake.moved"]
        assert module.outer(1) == 4
        with pytest.raises(KeyError):
            module.boom()
    finally:
        del sys.modules["bench_fake_layer"]
    by_name = {recorder.names[s[2]]: s for s in recorder.spans}
    outer_span, inner_span = by_name["fake.outer"], by_name["fake.inner"]
    assert inner_span[1] == outer_span[0]  # parent id
    assert outer_span[1] == 0
    assert outer_span[6] == 4 and inner_span[6] is None  # tags
    assert outer_span[4] <= inner_span[4] <= inner_span[5] <= outer_span[5]
    assert by_name["fake.boom"][1] == 0  # the stack unwound on the raise


def test_every_wrap_point_resolves_at_this_commit():
    script = (
        "import sys; sys.path.insert(0, %r); import traced_server as t; "
        "r = t.SpanRecorder(); r.install(); print(r.missing)"
        % str(BENCH_DIR)
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(run.SRC_DIR)), timeout=120,
    )
    assert out.stdout.strip() == "[]", out.stderr


# -- the compare rule -------------------------------------------------------------------
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    judge = compare.verdict
    assert judge(steady, steady, "higher", 0.10)["verdict"] == "same"
    # 20% lower throughput, tight runs: worse, with A's median as base.
    slow = [v * 0.8 for v in steady]
    row = judge(steady, slow, "higher", 0.10)
    assert row["verdict"] == "worse"
    assert row["worse_by"] == pytest.approx(0.2)
    # The same numbers are a gain for a lower-is-better metric.
    assert judge(steady, slow, "lower", 0.10)["verdict"] == "better"
    # Inside the bound, and not a 9/10 win beyond A's quartiles: same.
    nudge = [100.2, 100.8, 99.3, 100.4, 99.6]
    assert judge(steady, nudge, "higher", 0.10)["verdict"] == "same"
    # Spread wider than the bound: unresolved, not "same"...
    noisy_a = [100.0, 130.0, 70.0, 115.0, 85.0]
    noisy_b = [95.0, 125.0, 72.0, 110.0, 80.0]
    assert judge(noisy_a, noisy_b, "higher", 0.10)["verdict"] == "unresolved"
    # ...unless every run of B beats every run of A.
    clear = [200.0, 260.0, 150.0, 230.0, 170.0]
    assert judge(noisy_a, clear, "higher", 0.10)["verdict"] == "better"
    assert judge(clear, noisy_a, "higher", 0.10)["verdict"] == "worse"


def test_compare_reads_suite_documents():
    def cells(scale, **kinds):
        return {
            name: {"unit": unit, "better": better,
                   "values": [v * scale for v in values]}
            for name, (unit, better, values) in kinds.items()
        }

    def doc(scale):
        return {"workloads": {"transfer": {
            "end_to_end": cells(
                scale, tx_per_s=("tx/s", "higher", [1000.0, 1010.0, 990.0]),
            ) | cells(1.0, setup_s=("s", "lower", [0.5, 0.51, 0.49])),
            # As measured the runs agree: the loss is the scaling's.
            "raw": {"tx_per_s_raw": [900.0, 905.0, 895.0],
                    "loadgen.late_ms_p99": [1.0, 1.0, 1.0]},
            "unresolved": cells(
                1 / scale,
                latency_p99_ms=("ms", "lower", [80.0, 82.0, 81.0]),
            ),
        }}}

    benchmark = {"end_to_end": [
        {"name": "tx_per_s", "unit": "tx/s", "better": "higher",
         "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}
    rows = compare.compare(doc(1.0), doc(0.7), benchmark)
    assert [(r["metric"], r["verdict"], r["gated"]) for r in rows] == [
        ("tx_per_s", "worse", True), ("tx_per_s_raw", "same", False),
        ("setup_s", "same", True), ("latency_p99_ms", "worse", False),
    ]


# -- deterministic, self-describing load ---------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_one_pool(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.build_pool(workload, 11, 300)
    again = workloads.build_pool(workload, 11, 300)
    other = workloads.build_pool(workload, 12, 300)
    assert first.frames == again.frames and first.sha256 == again.sha256
    assert first.sha256 != other.sha256
    hashes = {tx.hash() for tx in first.transactions}
    assert len(hashes) == 300  # no duplicate the server would refuse
    frame = json.loads(first.frames[5])
    assert frame["id"] == 5 and frame["method"] == "repro_sendTransaction"
    assert bytes.fromhex(frame["params"]["tx"]) == (
        first.transactions[5].to_rlp()
    )


def test_pools_match_across_interpreter_invocations():
    script = (
        "import sys; sys.path[:0] = [%r, %r]; import workloads as w; "
        "print([w.build_pool(x, 11, 200).sha256 "
        "for x in w.WORKLOADS.values()])" % (str(BENCH_DIR), str(run.SRC_DIR))
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed), timeout=120,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(outputs) == 1 and outputs.pop().startswith("['")


def test_workload_names_and_rates_are_the_fixed_ones():
    table = {w.name: (w.open_rate, w.server_flags)
             for w in workloads.WORKLOADS.values()}
    assert table == {
        "transfer": (600.0, ()),
        "contracts": (60.0, ()),
        "hotburst_packed": (400.0, (
            "--packing", "conflict_aware", "--executor", "parallel",
            "--workers", "2")),
        "reads_beside_writes": (400.0, ()),
    }
    assert workloads.phase_seconds(20.0) == {
        "open_s": 8.0, "open_warmup_s": 1.0, "closed_s": 12.0,
        "closed_warmup_s": 2.0,
    }
    assert [w.name for w in workloads.WORKLOADS.values()
            if w.reads_beside_writes] == ["reads_beside_writes"]


def test_benchmark_json_matches_the_code():
    benchmark = json.loads((run.REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["command"] == ["python3", "bench/run.py"]
    assert benchmark["paths"] == ["bench"]
    assert benchmark["run_seconds"] == run.DEFAULT_SECONDS
    # The schema has no field for the phase windows (nor for
    # ``"claim": null``): each workload's ``why`` ends with them.
    phases = workloads.phase_seconds(benchmark["run_seconds"])
    windows = (
        f" [open {phases['open_s']:g} s + closed {phases['closed_s']:g} s; "
        f"traced 2 x ({phases['open_s'] / 2:g} + "
        f"{phases['closed_s'] / 2:g} s)]"
    )
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (w.name, w.why + windows) for w in workloads.WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 for w in benchmark["workloads"])
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark["per_layer"]] == list(run.PER_LAYER)
    for metric in benchmark["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert max(m["bound"] for m in benchmark["end_to_end"]) == next(
        m["bound"] for m in benchmark["end_to_end"] if m["name"] == "setup_s"
    )


def test_committed_bounds_are_what_the_committed_evidence_gives():
    suites, tens = bounds.load()
    assert (len(suites), len(tens)) == (5, 2)
    assert all(document["claim"] is None for document in suites)
    assert all(len(values) == 10 for ten in tens
               for cells in ten.values() for values in cells.values())
    table = bounds.derive(suites, tens)
    benchmark = json.loads((run.REPO_ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["bound"] for m in benchmark["end_to_end"]} == {
        name: row["bound"] for name, row in table.items()
        if row["bound"] is not None
    }
    assert [name for name, row in table.items() if row["bound"] is None] == [
        name for name, _unit, _better in run.UNRESOLVED
    ]
