"""Out-of-band measurement of fidstore, done entirely from the benchmark.

Both probes work by replacing public methods of fidstore classes with
wrappers for the length of a `with Patches()` block, and putting the
originals back on exit; no module under src/ changes and nothing they
record reaches the adversary trace.

PhaseMeter is always installed. It tells the phases of a round apart
(setup, txn, maint, check, recover, verify), counts channel round trips,
channel bytes, message kinds and crypto calls per phase, and times each
transaction from `Database.begin` to its commit or abort.

Tracer is installed only for the traced run. It records a span around each
wrapped call (name, start, end, parent, txn id) while a round is in a
measured phase, sums calls, inclusive and self time per span name, and
keeps the first MAX_KEPT_SPANS spans of the first traced round so they can
be written out when the benchmark ends.
"""

from __future__ import annotations

import gc
import time
from array import array
from collections import Counter

from fidstore import (
    atrest_storage,
    durability,
    integrity_dbms,
    mapping_store,
    messages,
    privacy_proxy,
    wal,
    zone_sim,
)

from .metrics import PHASES as MEASURED_PHASES

# Only the measured phases feed metrics; setup is the preload and verify
# the read-back after recovery.
ALL_PHASES = ("setup",) + MEASURED_PHASES + ("verify",)

MSG_KINDS = {value: name[4:].lower() for name, value in vars(messages).items()
             if name.startswith("MSG_")}

MAX_KEPT_SPANS = 100_000


class Patches:
    """Swaps class attributes for wrappers and undoes every change, in
    reverse order, on exit."""

    def __init__(self):
        self._undo: list = []

    def wrap(self, cls: type, name: str, make) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make(original))
        self._undo.append(lambda: setattr(cls, name, original))

    def gc_callback(self, callback) -> None:
        gc.callbacks.append(callback)
        self._undo.append(lambda: gc.callbacks.remove(callback))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()


def is_zone_codec(topo, codec) -> bool:
    """True for the privacy zone's envelope codecs: the field codec of the
    cipher baseline and the proxy's client-boundary codec. The client's own
    codec runs on the user's machine and is not counted."""
    privacy = topo.privacy
    return codec is privacy.zone_codec or codec is privacy.proxy.client_codec


def atrest_counters(topo) -> dict[str, int]:
    layer = topo.privacy.atrest
    return {"hits": layer.hits, "faults": layer.faults,
            "prefetched": layer.prefetched, "stale_dropped": layer.stale_dropped}


class PhaseMeter:
    """Per-phase traffic and crypto counts plus per-transaction latency for
    one round at a time; `start_round` resets it."""

    def __init__(self):
        self.start_round(None)

    def start_round(self, topo) -> None:
        self.topo = topo
        self.phase = "setup"
        self.counts = {p: Counter() for p in ALL_PHASES}
        self.kinds = {p: Counter() for p in ALL_PHASES}
        self.starts: dict[int, float] = {}
        self.latencies: list[float] = []
        self.finish_times: list[float] = []
        self.committed: list[bool] = []
        self.first_begin: float | None = None
        self.last_end: float | None = None
        self.preload_s = 0.0
        self.gc2_s = 0.0
        self._gc_start = 0.0
        self.atrest_txn: dict[str, int] = {}
        self.set_phase("setup")

    def set_phase(self, phase: str) -> None:
        if self.phase == "txn" and phase != "txn":
            before = self.atrest_txn
            self.atrest_txn = {k: v - before[k]
                               for k, v in atrest_counters(self.topo).items()}
        self.phase = phase
        self.measuring = phase in MEASURED_PHASES
        self._counts = self.counts[phase]
        self._kinds = self.kinds[phase]

    def crypto(self, phase: str) -> int:
        c = self.counts[phase]
        return c["seals"] + c["opens"] + c["envelope"]

    # -- garbage-collector pauses -------------------------------------------

    def _on_gc(self, event: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if event == "start":
            self._gc_start = time.perf_counter()
        elif self.measuring:
            self.gc2_s += time.perf_counter() - self._gc_start

    # -- wrappers -------------------------------------------------------------

    def install(self, patches: Patches) -> None:
        meter = self
        perf = time.perf_counter

        def request(orig):
            def wrapper(channel, raw):
                response = orig(channel, raw)
                counts = meter._counts
                counts["calls"] += 1
                counts["bytes"] += len(raw) + len(response)
                meter._kinds[raw[0]] += 1
                return response
            return wrapper

        def count(key):  # every attempt is crypto work, even one that fails
            def make(orig):
                def wrapper(*args, **kwargs):
                    meter._counts[key] += 1
                    return orig(*args, **kwargs)
                return wrapper
            return make

        def envelope(orig):
            def wrapper(codec, *args):
                if is_zone_codec(meter.topo, codec):
                    meter._counts["envelope"] += 1
                return orig(codec, *args)
            return wrapper

        def preload(orig):
            def wrapper(runner, db):
                if meter.phase != "setup":  # a set-up timed on its own
                    return orig(runner, db)
                t0 = perf()
                tables = orig(runner, db)
                meter.preload_s = perf() - t0
                meter.atrest_txn = atrest_counters(runner.topo)
                meter.set_phase("txn")
                return tables
            return wrapper

        def begin(orig):
            def wrapper(db):
                t0 = perf()
                txn = orig(db)
                if meter.phase == "txn":
                    meter.starts[txn.txn_id] = t0
                    if meter.first_begin is None:
                        meter.first_begin = t0
                return txn
            return wrapper

        def finish(committed):
            def make(orig):
                def wrapper(db, txn):
                    orig(db, txn)
                    start = meter.starts.pop(txn.txn_id, None)
                    if start is not None:
                        now = perf()
                        meter.latencies.append(now - start)
                        meter.finish_times.append(now)
                        meter.committed.append(committed)
                        meter.last_end = now
                return wrapper
            return make

        def enter(phase, after):
            def make(orig):
                def wrapper(*args, **kwargs):
                    if meter.phase in after:
                        meter.set_phase(phase)
                    return orig(*args, **kwargs)
                return wrapper
            return make

        patches.wrap(zone_sim.Channel, "request", request)
        patches.wrap(atrest_storage.BlockSealer, "seal", count("seals"))
        patches.wrap(atrest_storage.BlockSealer, "open", count("opens"))
        patches.wrap(privacy_proxy.EnvelopeCodec, "encrypt", envelope)
        patches.wrap(privacy_proxy.EnvelopeCodec, "decrypt", envelope)
        # _preload is the one private method wrapped: it is where the setup
        # phase ends inside run_program.
        patches.wrap(zone_sim._Runner, "_preload", preload)
        patches.wrap(integrity_dbms.Database, "begin", begin)
        patches.wrap(integrity_dbms.Database, "commit", finish(True))
        patches.wrap(integrity_dbms.Database, "abort", finish(False))
        patches.wrap(integrity_dbms.Database, "vacuum", enter("maint", ("txn",)))
        patches.wrap(integrity_dbms.Database, "orphan_gc", enter("maint", ("txn",)))
        patches.wrap(zone_sim.ZoneTopology, "check_invariant",
                     enter("check", ("txn", "maint")))
        patches.gc_callback(self._on_gc)


# (class, span-name prefix, methods). The prefix's first component names
# the layer: the module the method belongs to, except that the zone hosts'
# recover methods are booked to the layer whose replay they run.
TRACED = [
    (zone_sim.ZoneTopology, "zone_sim", ("run_program", "check_invariant",
                                         "recover_all")),
    (zone_sim.Channel, "zone_sim.channel", ("request",)),
    (zone_sim.IntegrityZoneHost, "integrity_dbms", ("recover",)),
    (zone_sim.PrivacyZoneHost, "wal", ("recover",)),
    (integrity_dbms.Database, "integrity_dbms", (
        "begin", "commit", "abort", "insert_row", "update_row",
        "visible_version", "vacuum", "orphan_gc", "create_table")),
    (integrity_dbms.FidBackend, "integrity_dbms", (
        "promote", "release", "aggregate", "compare_many")),
    (integrity_dbms.CipherBackend, "integrity_dbms", (
        "promote", "release", "aggregate", "compare_many")),
    (messages.ProxyClient, "messages.client", (
        "ingest", "reveal", "exec_batch", "exec_operator", "end_query",
        "promote", "delete", "flush_log", "create_partition", "prefetch",
        "is_live", "list_live", "cipher_ingest", "cipher_reveal",
        "cipher_exec")),
    (messages.PrivacyDispatcher, "messages.dispatch", ("handle",)),
    (privacy_proxy.PrivacyProxy, "privacy_proxy", (
        "ingest", "reveal", "exec_operator", "exec_batch", "end_query",
        "query_temp")),
    (privacy_proxy.EnvelopeCodec, "privacy_proxy.envelope", ("encrypt",
                                                             "decrypt")),
    (mapping_store.MappingStore, "mapping_store", (
        "put", "get", "delete", "promote", "create_partition",
        "drop_temporary", "release_partition", "is_live", "live_fids",
        "read_block", "partition_blocks")),
    (atrest_storage.AtRestLayer, "atrest_storage", (
        "on_read", "on_write", "prefetch_partition", "seal_block",
        "open_block", "flush_dirty")),
    (atrest_storage.BlockSealer, "atrest_storage", ("seal", "open")),
    (wal.Wal, "wal", ("append", "flush")),
    (durability.DurableBuffer, "durability", ("append", "sync")),
    (durability.SnapshotStore, "durability.snapshot", ("put_atomic",)),
]

# Database methods whose argument at this position (after self) is the Txn
# the call works for; spans opened inside take its id.
_TXN_ARG = {"commit": 0, "abort": 0, "insert_row": 0, "update_row": 0,
            "visible_version": 2}
_NO_TXN = {"integrity_dbms.vacuum", "integrity_dbms.orphan_gc",
           "zone_sim.check_invariant", "zone_sim.recover_all"}


class Tracer:
    """Spans around every method in TRACED, recorded while the meter is in
    a measured phase."""

    def __init__(self, meter: PhaseMeter):
        self.meter = meter
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.keep = False
        self.kept = {f: array("q") for f in ("id", "parent", "name", "start",
                                              "end", "txn")}
        self.dropped = 0
        self.start_round()

    def start_round(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.incl_ns = [0] * n
        self.self_ns = [0] * n
        self.extra: Counter = Counter()
        self.txn = 0
        self._stack: list[list[int]] = []
        self._next_id = 1

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for totals in (self.calls, self.incl_ns, self.self_ns):
                totals.append(0)
        return nid

    def by_name(self, totals: list[int]) -> dict[str, int]:
        return dict(zip(self.names, totals))

    def _span(self, name: str, pre=None, post=None, skip=None):
        nid = self._name_id(name)
        tracer = self
        meter = self.meter
        clock = time.perf_counter_ns
        kept = self.kept
        no_txn = name in _NO_TXN

        def make(orig):
            def wrapper(*args, **kwargs):
                if not meter.measuring or (skip is not None and skip(args)):
                    return orig(*args, **kwargs)
                token = pre(args) if pre is not None else None
                if no_txn:
                    tracer.txn = 0
                stack = tracer._stack
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
                parent = stack[-1][0] if stack else 0
                frame = [span_id, clock(), 0]
                stack.append(frame)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - frame[1]
                    tracer.calls[nid] += 1
                    tracer.incl_ns[nid] += duration
                    tracer.self_ns[nid] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
                    if tracer.keep:
                        if len(kept["id"]) < MAX_KEPT_SPANS:
                            for field, value in (("id", span_id), ("parent", parent),
                                                 ("name", nid), ("start", frame[1]),
                                                 ("end", end), ("txn", tracer.txn)):
                                kept[field].append(value)
                        else:
                            tracer.dropped += 1
                if post is not None:
                    post(args, result, token)
                return result
            return wrapper
        return make

    def install(self, patches: Patches) -> None:
        def wal_pending(args):
            return args[0].buffer.pending_len

        def buffer_pending(args):
            return args[0].pending_len

        def wal_append(args, result, before):
            self.extra["wal.append_bytes"] += max(0, args[0].buffer.pending_len - before)

        def wal_flush(args, result, before):
            if before:
                self.extra["wal.useful_flushes"] += 1

        def sync(args, result, before):
            buffer, topo = args[0], self.meter.topo
            zone = ("privacy" if buffer is topo.store_wal_buffer else
                    "integrity" if buffer is topo.dbwal_buffer else "other")
            self.extra["durability.sync_bytes." + zone] += before

        def replayed(key):
            def post(args, result, token):
                self.extra[key] += result
            return post

        def client_codec(args):
            return not is_zone_codec(self.meter.topo, args[0])

        def txn_at(pos):
            def pre(args):
                self.txn = args[pos + 1].txn_id
            return pre

        special = {
            "wal.append": dict(pre=wal_pending, post=wal_append),
            "wal.flush": dict(pre=wal_pending, post=wal_flush),
            "durability.sync": dict(pre=buffer_pending, post=sync),
            "wal.recover": dict(post=replayed("wal.replayed_records")),
            "integrity_dbms.recover": dict(
                post=replayed("integrity_dbms.replayed_records")),
            "privacy_proxy.envelope.encrypt": dict(skip=client_codec),
            "privacy_proxy.envelope.decrypt": dict(skip=client_codec),
        }
        for method, pos in _TXN_ARG.items():
            special["integrity_dbms." + method] = dict(pre=txn_at(pos))

        def begin_post(args, txn, token):
            self.txn = txn.txn_id
        special["integrity_dbms.begin"] = dict(post=begin_post)

        for cls, prefix, methods in TRACED:
            for method in methods:
                name = f"{prefix}.{method}"
                patches.wrap(cls, method, self._span(name, **special.get(name, {})))

    def write_spans(self, path: str) -> int:
        """Writes the kept spans as tab-separated text; returns the count."""
        kept = self.kept
        with open(path, "w") as fh:
            fh.write("# id\tparent\tname\tstart_ns\tend_ns\ttxn\n")
            rows = zip(kept["id"], kept["parent"], kept["name"], kept["start"],
                       kept["end"], kept["txn"])
            names = self.names
            for span_id, parent, nid, start, end, txn in rows:
                fh.write(f"{span_id}\t{parent}\t{names[nid]}\t{start}\t{end}\t{txn}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} further spans not kept\n")
        return len(kept["id"])
