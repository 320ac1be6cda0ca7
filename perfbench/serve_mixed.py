"""Workload ``serve-mixed``: open-loop traffic against a ``repro serve`` daemon.

Starts ``python3 -m repro serve --port 0 --backend process
--serve-workers 2`` as a subprocess and drives it over 2 keep-alive
connections, open loop, in two phases: ``low`` (8 req/s for 62.5% of the
run) and ``high`` (20 req/s for the rest), both below the 2-connection
closed-loop capacity of about 39 req/s.  This exercises the serve layer —
HTTP front, queue, IPC to the worker processes, the per-worker result
stores — where the compute behind each request is cheap.

Request mix (exact shares per phase, order drawn from the seed):

- 80% repeat compiles from a pool warmed on both workers during set-up:
  12% falcon qaoa, 13% falcon qv, 30% hummingbird qaoa, 5% hummingbird
  qv, 20% eagle qaoa.  Served alone these take about 15, 25, 55, 115
  and 145 ms, so the shares put p50 in the middle of the hummingbird-qaoa
  band and p90 in the middle of the eagle-qaoa band;
- 5% first-seen compiles (falcon qaoa/qv and hummingbird qaoa in turn,
  with generator seeds drawn from the workload seed);
- 10% repeat simulates of small cells warmed on both workers (store
  reads);
- 5% first-seen small simulates (new crosstalk samples; store writes).

Requests are due at evenly spaced times; each is sent by whichever
connection is free, and its latency runs from its due time, so a stall
also delays the requests queued behind it.  The end-to-end latency
percentiles are the ``low`` phase's; the ``high`` phase gives goodput,
and its latency percentiles are per-layer numbers of the traced run,
because queueing at 20 req/s makes them vary too much from run to run
(interquartile range up to half the median over five seeds) to gate on.  Every response is checked
after the run: compile digests against ``serve.loadtest.one_shot``,
simulate results against an in-process ``campaigns.evaluate_cell``.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np

import compile_heavyhex
from harness import (
    ROOT,
    Tracer,
    child_pids,
    peak_rss_mb,
    percentile,
    ratio,
)

CONNECTIONS = 2
PHASES = (("low", 8.0, 0.625), ("high", 20.0, 0.375))
#: Answered correctly within this long after its due time = goodput.
GOODPUT_LIMIT_S = 0.5
#: Share of each request kind; ("compile", device, circuit) kinds are
#: repeats from the warmed pool.
SHARES = {
    ("compile", "falcon", "qaoa"): 0.12,
    ("compile", "falcon", "qv"): 0.13,
    ("compile", "hummingbird", "qaoa"): 0.30,
    ("compile", "hummingbird", "qv"): 0.05,
    ("compile", "eagle", "qaoa"): 0.20,
    "first_compile": 0.05,
    "repeat_sim": 0.10,
    "first_sim": 0.05,
}
#: Generator seeds of the warmed compile pool, per (device, circuit).
POOL_SEEDS = {
    ("falcon", "qaoa"): (0, 1, 2),
    ("falcon", "qv"): (0, 1, 2),
    ("hummingbird", "qaoa"): (0, 1),
    ("hummingbird", "qv"): (0,),
    ("eagle", "qaoa"): (0,),
}
COMPILE_POOL = [(d, c, s) for (d, c), seeds in POOL_SEEDS.items() for s in seeds]
FIRST_SEEN_COMPILES = (("falcon", "qaoa"), ("falcon", "qv"), ("hummingbird", "qaoa"))


def small_cell(benchmark: str, device_seed: int):
    from repro.campaigns.spec import FIG23_DEVICE, Cell

    return Cell(benchmark, 4, "gau+par", device=replace(FIG23_DEVICE, seed=device_seed))


def sim_pool():
    return [small_cell(b, s) for b in ("QAOA", "Ising") for s in (7, 8)]


class Daemon:
    """A ``repro serve`` subprocess whose output is drained until it ends."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--backend", "process", "--serve-workers", str(CONNECTIONS)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self.port: int | None = None
        self._ready = threading.Event()
        self._drains = [
            threading.Thread(target=self._drain, args=(self.proc.stdout, True)),
            threading.Thread(target=self._drain, args=(self.proc.stderr, False)),
        ]
        for thread in self._drains:
            thread.start()
        if not self._ready.wait(60.0) or self.port is None:
            self.stop()
            raise RuntimeError("repro serve printed no 'listening on' line")

    def _drain(self, stream, parse_port: bool) -> None:
        for line in stream:
            if parse_port and self.port is None:
                found = re.search(r"listening on [^:\s]+:(\d+)", line)
                if found:
                    self.port = int(found.group(1))
                    self._ready.set()
        self._ready.set()

    def rss_mb(self) -> float:
        """Peak RSS of the daemon plus its worker processes."""
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return sum(peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Ask the daemon to shut down, then reap it and its workers.

        Callers close their own client connections first.
        """
        from repro.serve.client import ServeClient, ServeError

        workers = child_pids(self.proc.pid) if self.proc.poll() is None else []
        if self.port is not None and self.proc.poll() is None:
            admin = ServeClient("127.0.0.1", self.port, timeout_s=10.0)
            try:
                admin.shutdown()
            except (ServeError, OSError):
                pass
            finally:
                admin.close()
        try:
            self.proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in workers:
            reap(pid)
        for thread in self._drains:
            thread.join(timeout=10.0)


def reap(pid: int) -> None:
    """Wait (bounded) for a worker process to go; kill it if it stays."""
    for _ in range(100):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def warm(port: int) -> None:
    """Send every pool request to both workers, one connection per worker.

    Each request goes out on the first connection, then 20 ms later on
    the second: the first is being served by then, so the second lands
    on the other (idle) worker instead of joining the first's batch.
    """
    from repro.serve.client import ServeClient

    clients = [ServeClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
    requests = [("compile", combo) for combo in COMPILE_POOL]
    requests += [("simulate", cell) for cell in sim_pool()]
    errors = []

    def send(client, verb, payload) -> None:
        try:
            if verb == "compile":
                client.compile(*payload)
            else:
                client.simulate(payload)
        except Exception as exc:  # re-raised on the calling thread below
            errors.append(exc)

    try:
        clients[0].wait_ready()
        for verb, payload in requests:
            threads = []
            for client in clients:
                thread = threading.Thread(target=send, args=(client, verb, payload))
                thread.start()
                threads.append(thread)
                time.sleep(0.02)
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
    finally:
        for client in clients:
            client.close()


def setup(tracer: Tracer) -> dict:
    daemon = Daemon()
    try:
        warm(daemon.port)
    except BaseException:
        daemon.stop()
        raise
    return {"daemon": daemon}


def teardown(contexts: dict) -> None:
    contexts["daemon"].stop()


def make_phase(rng, rate: float, duration: float) -> list[tuple]:
    """``(due offset, kind, payload)`` requests of one phase."""
    n = int(round(rate * duration))
    first_seed = int(rng.integers(1_000, 2**31 - n))
    kinds = []
    for kind, share in SHARES.items():
        kinds += [kind] * int(round(share * n))
    kinds = kinds[:n] + ["repeat_sim"] * (n - len(kinds))
    kinds = [kinds[i] for i in rng.permutation(n)]
    sims = sim_pool()
    requests, fresh = [], 0
    for i, kind in enumerate(kinds):
        if kind == "first_compile":
            device, circuit = FIRST_SEEN_COMPILES[fresh % len(FIRST_SEEN_COMPILES)]
            payload = ("compile", (device, circuit, first_seed + i))
            fresh += 1
        elif kind == "repeat_sim":
            payload = ("simulate", sims[int(rng.integers(len(sims)))])
        elif kind == "first_sim":
            payload = ("simulate", small_cell("QAOA", first_seed + i))
        else:
            _, device, circuit = kind
            seeds = POOL_SEEDS[device, circuit]
            payload = ("compile", (device, circuit, seeds[int(rng.integers(len(seeds)))]))
            kind = "repeat_compile"
        requests.append((i / rate, kind, payload))
    return requests


def drive(port: int, requests: list[tuple]) -> list[dict]:
    """Send ``requests`` open loop over the keep-alive connections."""
    from repro.serve.client import ServeClient, ServeError

    clients = [ServeClient("127.0.0.1", port, timeout_s=60.0) for _ in range(CONNECTIONS)]
    records: list[dict] = [{} for _ in requests]
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.perf_counter() + 0.05

    def connection(client) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            offset, kind, (verb, payload) = requests[i]
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                if verb == "compile":
                    response, status = client.compile(*payload), 200
                else:
                    response, status = client.simulate(payload), 200
            except ServeError as exc:
                response, status = exc.payload, exc.status
            except (OSError, http.client.HTTPException):
                response, status = None, 0
            done = time.perf_counter()
            records[i] = {
                "kind": kind, "verb": verb, "payload": payload,
                "due": due, "sent": sent, "done": done,
                "status": status, "response": response,
            }

    threads = [threading.Thread(target=connection, args=(c,)) for c in clients]
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
        for client in clients:
            client.close()
    return records


def check(records: list[dict]) -> None:
    """Mark every record ``ok`` if it has the right answer (untimed)."""
    from repro.campaigns.runner import evaluate_cell
    from repro.serve.loadtest import one_shot

    digests, results = {}, {}
    for record in records:
        response = record["response"] or {}
        record["ok"] = False
        if record["status"] != 200 or response.get("status") != "ok":
            continue
        payload = record["payload"]
        if record["verb"] == "compile":
            if payload not in digests:
                digests[payload] = one_shot(*payload)["digest"]
            record["ok"] = response.get("digest") == digests[payload]
        else:
            if payload not in results:
                results[payload] = evaluate_cell(payload)
            record["ok"] = response.get("result") == results[payload]


def latency(record: dict) -> float:
    return record["done"] - record["due"]


def run_pass(daemon, seed: int, seconds: float, salt: int) -> dict:
    """Both phases against ``daemon``; returns {phase: records}."""
    rng = np.random.default_rng([seed, salt])
    phases = {}
    for name, rate, share in PHASES:
        requests = make_phase(rng, rate, share * seconds)
        phases[name] = drive(daemon.port, requests)
    return phases


def stats(daemon) -> dict:
    from repro.serve.client import ServeClient

    client = ServeClient("127.0.0.1", daemon.port, timeout_s=10.0)
    try:
        return client.stats()
    finally:
        client.close()


def run(seed: int, seconds: float, trace: bool, contexts: dict, tracer: Tracer) -> dict:
    daemon = contexts["daemon"]
    plain = {}
    if not trace:
        phases = run_pass(daemon, seed, seconds, 0)
        rss = daemon.rss_mb()
    else:
        # Untraced pass first, then the same schedule with fresh
        # first-seen seeds between two /stats snapshots.
        plain = run_pass(daemon, seed, seconds, 0)
        before = stats(daemon)
        phases = run_pass(daemon, seed, seconds, 1)
        after = stats(daemon)
    records = [r for phase in phases.values() for r in phase]
    every = records + [r for phase in plain.values() for r in phase]
    check(every)
    out = {
        "attempted": len(every),
        "failed": sum(not r["ok"] for r in every),
    }
    low, high = phases["low"], phases["high"]
    if not trace:
        span = max(r["done"] for r in high) - min(r["due"] for r in high)
        good = sum(r["ok"] and latency(r) <= GOODPUT_LIMIT_S for r in high)
        out["metrics"] = {
            "throughput_per_s": good / span,
            "latency_p50_s": percentile([latency(r) for r in low], 0.50),
        }
        out["context"] = {"latency_p90_s": percentile([latency(r) for r in low], 0.90)}
        out["rss_mb"] = rss
        return out
    out["metrics"] = serve_layers(records, phases, plain, before, after, tracer)
    return out


def serve_layers(records, phases, plain, before, after, tracer) -> dict:
    # The daemon builds these topologies out of sight; time the same calls.
    compile_heavyhex.setup(tracer)
    answered = [r for r in records if r["status"] == 200]
    server = [r["response"]["elapsed_s"] for r in answered]
    front = [(r["done"] - r["sent"]) - r["response"]["elapsed_s"] for r in answered]
    compiles = [r for r in answered if r["verb"] == "compile"]
    fresh_sims = [
        r for r in answered if r["verb"] == "simulate" and not r["response"].get("cached")
    ]
    sims = sum(r["verb"] == "simulate" for r in records)
    plan_hits = after["plan_cache"]["hits"] - before["plan_cache"]["hits"]
    plan_misses = after["plan_cache"]["misses"] - before["plan_cache"]["misses"]
    # A request's latency splits into generator wait (due -> sent, both
    # connections busy), front and server time; what none covers is
    # unattributed.  Failed requests have no server time to split off.
    total = sum(latency(r) for r in records)
    covered = sum(r["sent"] - r["due"] for r in records)
    covered += sum(r["done"] - r["sent"] for r in answered)
    plain_records = [r for phase in plain.values() for r in phase]
    plain_mean = np.mean([latency(r) for r in plain_records])
    traced_mean = np.mean([latency(r) for r in records])
    return {
        "device.topology_s": tracer.time["device.topology"],
        "scheduling.zzx_s": sum(r["response"]["elapsed_s"] for r in compiles),
        "scheduling.calls": len(compiles),
        "scheduling.layers": sum(r["response"]["num_layers"] for r in compiles),
        "scheduling.plan_cache.hits": plan_hits,
        "scheduling.plan_cache.misses": plan_misses,
        "scheduling.plan_cache.hit_ratio": ratio(plan_hits, plan_hits + plan_misses),
        "runtime.execute_s.statevector": sum(r["response"]["elapsed_s"] for r in fresh_sims),
        "serve.server_s.p50": percentile(server, 0.50),
        "serve.front_s.p50": percentile(front, 0.50),
        "serve.front_s.p90": percentile(front, 0.90),
        "serve.generator_late_s.p90": percentile(
            [r["sent"] - r["due"] for r in records], 0.90
        ),
        "serve.high.p50_s": percentile([latency(r) for r in phases["high"]], 0.50),
        "serve.high.p90_s": percentile([latency(r) for r in phases["high"]], 0.90),
        "serve.store_hit_ratio": ratio(
            after["store_hits"] - before["store_hits"], sims
        ),
        "serve.plan_cache.hit_ratio": ratio(plan_hits, plan_hits + plan_misses),
        "serve.worker_respawns": after["respawns"] - before["respawns"],
        "serve.status_non200": sum(r["status"] != 200 for r in records),
        "trace.overhead_frac": ratio(traced_mean - plain_mean, plain_mean),
        "trace.unattributed_frac": ratio(total - covered, total),
    }
