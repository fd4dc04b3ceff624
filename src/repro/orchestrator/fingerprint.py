"""Canonical run-request fingerprints for the content-addressed cache.

A fingerprint is a plain JSON document that captures *everything* a
simulated run's output depends on: the experiment key and its resolved
hardware groups, the model, the target batch size, epoch count, spot
pricing flag, every config override (fault schedules included), the
calibration table digest, and the cache schema / fingerprint versions.
Two requests with equal fingerprints are guaranteed to produce
byte-identical results, because the simulation is a pure function of
its config and seed.

The canonical form is deliberately strict: only JSON scalars,
lists/tuples, string-keyed dicts and a small registry of revivable
dataclasses (:class:`~repro.faults.FaultSchedule`,
:class:`~repro.faults.FaultTolerance`,
:class:`~repro.cloud.InterruptionModel`,
:class:`~repro.hivemind.PeerSpec`,
:class:`~repro.cloud.SpotPriceModel` and the control-plane policies)
are accepted. Anything else —
live telemetry sinks, ad-hoc objects — raises :class:`Uncacheable`
when the job is built, so such a run is rejected rather than hashed
from an unstable representation; telemetry reaches runs through
:func:`~repro.telemetry.use_telemetry` instead.

Bump :data:`FINGERPRINT_VERSION` whenever the simulation's semantics
change in a result-affecting way that the fingerprint fields cannot
see; every existing cache entry then misses (and ``repro cache gc``
collects the stale generation).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from typing import Any

__all__ = [
    "FINGERPRINT_VERSION",
    "Uncacheable",
    "calibration_digest",
    "canonical",
    "canonical_json",
    "fingerprint_key",
    "revive",
]

#: Bumped when run semantics change without a visible config change;
#: part of every fingerprint, so a bump invalidates the whole cache.
#: v2: control-plane policies joined the fingerprint (PR 5), so cached
#: static results cannot shadow adaptive ones and vice versa.
#: v3: ``averaging_bytes`` counts only averaging flows, and run payloads
#: carry ``bytes_by_tag``.
#: v4: DHT RPCs are fixed-delay messages, not fabric flows, so runs
#: with a DHT time their matchmaking and meter their aborts differently.
#: v5: run payloads lost ``losses`` and each epoch its ``loss`` (the
#: numeric training path is gone), so older records cannot be revived.
#: v6: run payloads keep one ``traffic`` table, not per-class, per-site,
#: per-pair and per-tag totals and ``averaging_bytes``.
FINGERPRINT_VERSION = 6

_KIND = "__kind__"
_VALUE = "__value__"


class Uncacheable(TypeError):
    """The run request contains a value the cache cannot canonicalize."""


def _revivable_classes() -> dict[str, Any]:
    """Name → class for every dataclass the canonical form may carry.

    Imported lazily: this module sits below the experiment stack and
    must stay importable without dragging the whole simulator in.
    """
    from ..cloud import InterruptionModel, SpotPriceModel
    from ..controlplane import (
        AdaptivePolicy,
        MigrationPolicy,
        ScalingPolicy,
        TbsPolicy,
    )
    from ..faults import FaultSchedule, FaultTolerance
    from ..hivemind import PeerSpec

    return {
        "AdaptivePolicy": AdaptivePolicy,
        "FaultSchedule": FaultSchedule,
        "FaultTolerance": FaultTolerance,
        "InterruptionModel": InterruptionModel,
        "MigrationPolicy": MigrationPolicy,
        "PeerSpec": PeerSpec,
        "ScalingPolicy": ScalingPolicy,
        "SpotPriceModel": SpotPriceModel,
        "TbsPolicy": TbsPolicy,
    }


def canonical(value: Any) -> Any:
    """Reduce ``value`` to the canonical JSON-able form (or raise)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise Uncacheable("non-finite floats cannot be fingerprinted")
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        if set(value) == {_KIND, _VALUE}:
            # Already-canonical tagged payload (canonical() is
            # idempotent so fingerprints can embed canonical values).
            if value[_KIND] not in _revivable_classes():
                raise Uncacheable(
                    f"unknown canonical kind {value[_KIND]!r}"
                )
            return value
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise Uncacheable(
                    f"dict keys must be strings, got {type(key).__name__}"
                )
            if key in (_KIND, _VALUE):
                raise Uncacheable(f"reserved key {key!r} in mapping")
            out[key] = canonical(item)
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        classes = _revivable_classes()
        name = type(value).__name__
        if name not in classes or not isinstance(value, classes[name]):
            raise Uncacheable(
                f"{type(value).__name__} is not a revivable dataclass; "
                f"known: {sorted(classes)}"
            )
        if name == "FaultSchedule":
            # FaultSchedule has its own stable serialization (nested
            # fault dataclasses, schema-tagged).
            return {_KIND: name, _VALUE: value.to_dict()}
        fields = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {_KIND: name, _VALUE: fields}
    raise Uncacheable(
        f"cannot canonicalize {type(value).__name__} for the run cache"
    )


def revive(value: Any) -> Any:
    """Inverse of :func:`canonical`: rebuild tagged dataclasses."""
    if isinstance(value, list):
        return [revive(item) for item in value]
    if isinstance(value, dict):
        kind = value.get(_KIND)
        if kind is None:
            return {key: revive(item) for key, item in value.items()}
        classes = _revivable_classes()
        if kind not in classes:
            raise Uncacheable(f"unknown canonical kind {kind!r}")
        payload = value[_VALUE]
        if kind == "FaultSchedule":
            return classes[kind].from_dict(payload)
        kwargs = {key: revive(item) for key, item in payload.items()}
        # Tuples became lists in transit; the revivable dataclasses all
        # accept sequences where their annotations say tuple.
        cls = classes[kind]
        field_types = {f.name: f for f in dataclasses.fields(cls)}
        for key, item in kwargs.items():
            if isinstance(item, list) and key in field_types:
                kwargs[key] = tuple(item)
        return cls(**kwargs)
    return value


def canonical_json(value: Any) -> str:
    """Deterministic JSON text of an already-canonical value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def fingerprint_key(fingerprint: dict) -> str:
    """Content address: sha256 over the canonical fingerprint JSON."""
    text = canonical_json(canonical(fingerprint))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def calibration_digest() -> str:
    """Digest of the calibrated throughput table.

    Folded into every fingerprint so recalibrating a GPU/model pair
    invalidates exactly the runs whose numbers it could change (all of
    them, conservatively — the table is global state).
    """
    from ..hardware.calibration import CALIBRATED_SPS

    flat = {f"{gpu}|{model}": sps
            for (gpu, model), sps in sorted(CALIBRATED_SPS.items())}
    text = canonical_json(flat)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
