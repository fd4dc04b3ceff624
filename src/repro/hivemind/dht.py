"""A Kademlia-style distributed hash table over the simulated network.

Hivemind spans a DHT over all participating peers for metadata storage
— training progress, peer health, matchmaking coordination (Section
2.1, citing Kademlia). This is a real implementation: 160-bit XOR
metric, k-buckets, iterative lookups with parallelism ``alpha``, and
TTL-expiring values. Every RPC is a round trip through the
:class:`~repro.network.fabric.Fabric`, so DHT operations cost genuine
simulated latency (which is what makes geo-distributed matchmaking
slower than zone-local matchmaking).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional

from ..network import Fabric
from ..simulation import Environment
from ..telemetry import NULL_TELEMETRY

__all__ = ["DhtNetwork", "DhtNode", "node_id_for", "xor_distance"]

NODE_ID_BITS = 160
_RPC_BYTES = 512.0
_RPC_TIMEOUT_S = 3.0


@lru_cache(maxsize=65536)
def node_id_for(name: str) -> int:
    """Deterministic 160-bit node/key id from a string (memoised —
    progress keys are re-hashed every epoch by every peer)."""
    return int.from_bytes(hashlib.sha1(name.encode()).digest(), "big")


def xor_distance(a: int, b: int) -> int:
    return a ^ b


@dataclass(frozen=True)
class _Contact:
    node_id: int
    site: str


class RoutingTable:
    """k-buckets indexed by the distance's bit length."""

    def __init__(self, owner_id: int, k: int = 8):
        self.owner_id = owner_id
        self.k = k
        self._buckets: dict[int, list[_Contact]] = {}

    def add(self, contact: _Contact) -> None:
        if contact.node_id == self.owner_id:
            return
        index = xor_distance(self.owner_id, contact.node_id).bit_length()
        bucket = self._buckets.setdefault(index, [])
        if contact in bucket:
            bucket.remove(contact)
        bucket.append(contact)  # most-recently-seen at the tail
        if len(bucket) > self.k:
            bucket.pop(0)

    def remove(self, node_id: int) -> None:
        for bucket in self._buckets.values():
            bucket[:] = [c for c in bucket if c.node_id != node_id]

    def closest(self, target: int, count: int) -> list[_Contact]:
        contacts = [c for bucket in self._buckets.values() for c in bucket]
        contacts.sort(key=lambda c: xor_distance(c.node_id, target))
        return contacts[:count]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


#: Internal marker distinguishing "this attempt failed, retry" from a
#: legitimate ``None``-ish RPC response.
_RPC_FAILED = object()


class DhtNetwork:
    """Transport + registry; RPCs travel through the fabric.

    Without a ``fault_tolerance`` policy
    (:class:`repro.faults.FaultTolerance`) behaviour is exactly the
    legacy one: a single attempt whose transfers wait forever. With one,
    RPCs get its bounded retry-with-backoff (``dht_max_retries``,
    ``dht_backoff_s``, ``backoff_factor``) on top of the dead-peer
    timeout, plus its per-attempt transport timeout
    (``dht_rpc_timeout_s``) that aborts the in-flight transfer.
    """

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        telemetry=None,
        fault_tolerance=None,
    ):
        self.env = env
        self.fabric = fabric
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.fault_tolerance = fault_tolerance
        self._ops_counter = self.telemetry.counter(
            "dht_ops_total", "DHT RPCs issued, by method"
        )
        self._timeout_counter = self.telemetry.counter(
            "dht_timeouts_total", "DHT RPCs that hit a dead peer"
        )
        self._retries_counter = self.telemetry.counter(
            "dht_retries_total", "DHT RPC attempts beyond the first"
        )
        #: Bound span factory + per-method interned span names and
        #: counter children: RPCs are the most frequent instrumented
        #: operation, so skip per-call label/name construction.
        self._span = (self.telemetry.tracer.span if self.telemetry.enabled
                      else self.telemetry.span)
        self._per_method: dict[str, tuple[str, object]] = {}
        self.nodes: dict[int, "DhtNode"] = {}
        self.rpc_count = 0

    def register(self, node: "DhtNode") -> None:
        self.nodes[node.node_id] = node

    def unregister(self, node_id: int) -> None:
        self.nodes.pop(node_id, None)

    def rpc(self, src: "DhtNode", dst_id: int, method: str, *args):
        """Round-trip RPC as a simulation process; returns the response
        or ``None`` once the retry budget is exhausted (dead peer, or
        transport timeouts when the policy sets ``dht_rpc_timeout_s``)."""
        self.rpc_count += 1
        cached = self._per_method.get(method)
        if cached is None:
            cached = self._per_method[method] = (
                f"dht:{method}",
                self._ops_counter.labels(method=method),
            )
        name, ops_child = cached
        ops_child.inc()
        ft = self.fault_tolerance
        for attempt in range(ft.dht_max_retries + 1 if ft is not None else 1):
            if attempt:
                self._retries_counter.inc(method=method)
                yield self.env.timeout(
                    ft.dht_backoff_s * ft.backoff_factor ** (attempt - 1)
                )
            # Re-resolve each attempt: the peer may have died — or
            # rejoined — while we were backing off.
            dst = self.nodes.get(dst_id)
            if dst is None or not dst.alive:
                self._timeout_counter.inc(method=method)
                yield self.env.timeout(_RPC_TIMEOUT_S)
                continue
            response = yield from self._attempt(src, dst, name, method, args)
            if response is not _RPC_FAILED:
                return response
        return None

    def _attempt(self, src: "DhtNode", dst: "DhtNode", name: str,
                 method: str, args: tuple):
        """One round trip; returns the response or ``_RPC_FAILED`` when
        a transport timeout cancelled a leg."""
        ft = self.fault_tolerance
        timeout_s = ft.dht_rpc_timeout_s if ft is not None else None
        with self._span(name, category="dht", track=src.site, dst=dst.site):
            request = self.fabric.transfer(src.site, dst.site, _RPC_BYTES,
                                           tag="dht")
            if timeout_s is None:
                yield request
            else:
                yield self.env.any_of([request,
                                       self.env.timeout(timeout_s)])
                if not request.triggered:
                    self.fabric.abort(request, reason="dht-timeout")
                    self._timeout_counter.inc(method=method)
                    return _RPC_FAILED
            handler = dst._handler_cache.get(method)
            if handler is None:
                handler = dst._handler_cache[method] = getattr(
                    dst, f"handle_{method}"
                )
            response = handler(src, *args)
            reply = self.fabric.transfer(dst.site, src.site, _RPC_BYTES,
                                         tag="dht")
            if timeout_s is None:
                yield reply
            else:
                yield self.env.any_of([reply, self.env.timeout(timeout_s)])
                if not reply.triggered:
                    self.fabric.abort(reply, reason="dht-timeout")
                    self._timeout_counter.inc(method=method)
                    return _RPC_FAILED
        dst.routing.add(src.contact)
        return response


class DhtNode:
    """One DHT participant, co-located with a training peer."""

    def __init__(
        self,
        network: DhtNetwork,
        site: str,
        name: Optional[str] = None,
        k: int = 8,
        alpha: int = 3,
    ):
        self.network = network
        self.site = site
        self.name = name or site
        self.node_id = node_id_for(self.name)
        #: This node's interned contact record — always value-equal to a
        #: freshly built one, so sharing it is free (and the identity
        #: fast path speeds up bucket membership checks).
        self.contact = _Contact(self.node_id, site)
        self._handler_cache: dict[str, Any] = {}
        self.routing = RoutingTable(self.node_id, k=k)
        self.k = k
        self.alpha = alpha
        self.alive = True
        self._store: dict[int, tuple[Any, float]] = {}
        network.register(self)

    @property
    def env(self) -> Environment:
        return self.network.env

    def leave(self) -> None:
        """Drop out of the network (spot interruption)."""
        self.alive = False
        self.network.unregister(self.node_id)

    def rejoin(self, bootstrap: Optional["DhtNode"]):
        """Come back after a :meth:`leave` with a cold routing table
        and an empty store (the replacement VM has fresh state), then
        re-run the join procedure."""
        self.alive = True
        self._store.clear()
        self.routing = RoutingTable(self.node_id, k=self.k)
        self.network.register(self)
        yield from self.join(bootstrap)
        return self

    # -- RPC handlers (executed at the remote node) -------------------------

    def handle_ping(self, sender: "DhtNode") -> bool:
        return True

    def handle_find_node(self, sender: "DhtNode", target: int) -> list[_Contact]:
        return self.routing.closest(target, self.k)

    def handle_store(self, sender: "DhtNode", key_id: int, value: Any,
                     expires_at: float) -> bool:
        self._store[key_id] = (value, expires_at)
        return True

    def handle_find_value(
        self, sender: "DhtNode", key_id: int
    ) -> tuple[Optional[Any], list[_Contact]]:
        entry = self._store.get(key_id)
        if entry is not None:
            value, expires_at = entry
            if expires_at >= self.env.now:
                return value, []
            del self._store[key_id]
        return None, self.routing.closest(key_id, self.k)

    # -- client operations (simulation processes) ----------------------------

    def join(self, bootstrap: Optional["DhtNode"]):
        """Join via a bootstrap node and populate the routing table."""
        if bootstrap is not None and bootstrap is not self:
            self.routing.add(bootstrap.contact)
            yield from self._iterative_find(self.node_id)
        return self

    def store(self, key: str, value: Any, ttl_s: float = 60.0):
        """Store at the k nodes closest to the key."""
        key_id = node_id_for(key)
        closest = yield from self._iterative_find(key_id)
        targets = closest or [self.contact]
        expires_at = self.env.now + ttl_s
        for contact in targets[: self.k]:
            if contact.node_id == self.node_id:
                self.handle_store(self, key_id, value, expires_at)
            else:
                yield from self.network.rpc(
                    self, contact.node_id, "store", key_id, value, expires_at
                )
        return True

    def get(self, key: str):
        """Look up a key; returns the value or ``None``."""
        key_id = node_id_for(key)
        local = self.handle_find_value(self, key_id)[0]
        if local is not None:
            return local
        queried: set[int] = set()
        shortlist = self.routing.closest(key_id, self.k)
        while True:
            candidates = [c for c in shortlist if c.node_id not in queried]
            if not candidates:
                return None
            for contact in candidates[: self.alpha]:
                queried.add(contact.node_id)
                response = yield from self.network.rpc(
                    self, contact.node_id, "find_value", key_id
                )
                if response is None:
                    continue
                value, contacts = response
                if value is not None:
                    return value
                for new_contact in contacts:
                    self.routing.add(new_contact)
                    if new_contact.node_id not in queried:
                        shortlist.append(new_contact)
            shortlist.sort(key=lambda c: xor_distance(c.node_id, key_id))
            shortlist = shortlist[: self.k]

    def _iterative_find(self, target: int):
        """Iterative FIND_NODE; returns contacts closest to ``target``."""
        queried: set[int] = set()
        shortlist = self.routing.closest(target, self.k)
        improved = True
        while improved:
            improved = False
            candidates = [c for c in shortlist if c.node_id not in queried]
            for contact in candidates[: self.alpha]:
                queried.add(contact.node_id)
                response = yield from self.network.rpc(
                    self, contact.node_id, "find_node", target
                )
                if response is None:
                    continue
                for new_contact in response:
                    self.routing.add(new_contact)
                    if new_contact not in shortlist:
                        shortlist.append(new_contact)
                        improved = True
            shortlist.sort(key=lambda c: xor_distance(c.node_id, target))
            shortlist = shortlist[: self.k]
        return shortlist
