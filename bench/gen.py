"""Seeded generator of airport cargo logs for the benchmark.

It walks the airport process of the bundled fixtures directly (it does not
use ``oconform.simulate``).  Each flight is

    Fuel plane -> Check-in per bag -> Load cargo -> Lift off
    -> Unload (a non-empty subset of the bags) -> Pick up @ dest per bag -> Clean

Bags left out of Unload reach ``Pick up @ dest`` through the reference net's
silent transition.  Flights are interleaved.  Flights come in blocks with one
flight per bag count, and the number of bags skipping Unload follows from
the bag count, so every seed yields logs of the same size and mix; the seed
decides the order of flights within a block, which bags skip, and the
interleaving.

Only the standard library is used, and the output depends on nothing but
the arguments: the same arguments give the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

CONCURRENT_FLIGHTS = 4  # flights in progress at once when planes are not shared

FUEL, CHECKIN, LOAD, LIFTOFF, UNLOAD, PICKUP, CLEAN = (
    "Fuel plane", "Check-in", "Load cargo", "Lift off", "Unload",
    "Pick up @ dest", "Clean")


def skipped_bags(bags: int) -> int:
    """Bags that skip Unload: about 30%, never all of them."""
    return (3 * bags + 5) // 10


def _flight(rng: random.Random, plane: str, bags: list[str]) -> list[tuple[str, list[str]]]:
    skip = set(rng.sample(bags, skipped_bags(len(bags))))
    unloaded = [b for b in bags if b not in skip]
    checkins = rng.sample(bags, len(bags))
    pickups = rng.sample(bags, len(bags))
    return ([(FUEL, [plane])]
            + [(CHECKIN, [b]) for b in checkins]
            + [(LOAD, [plane, *bags]), (LIFTOFF, [plane]),
               (UNLOAD, [plane, *unloaded])]
            + [(PICKUP, [b]) for b in pickups]
            + [(CLEAN, [plane])])


@dataclass(frozen=True)
class Generated:
    """Log-JSON bytes, and per block of flights the indices of its events."""

    data: bytes
    blocks: tuple[tuple[int, ...], ...]


def generate(seed: int, events: int, *, shared_planes: int = 0,
             bags: tuple[int, ...] = (1, 2, 3)) -> Generated:
    """A log of whole blocks of flights, at least ``events`` events.

    A block has one flight per entry of ``bags``, in shuffled order, so
    every log holds the same mix of flight shapes.  ``shared_planes`` > 0
    reuses that many long-lived planes (``plane_shared_{i % n}``); each
    plane's flights run one after another, and the planes' flight chains
    are interleaved.  Otherwise every flight has its own plane and up to
    CONCURRENT_FLIGHTS flights are interleaved.
    """
    rng = random.Random(seed)
    objects: dict[str, str] = {}
    streams: list[list[tuple[int, str, list[str]]]] = []
    total = 0
    flight = 0
    while total < events:
        for count in rng.sample(bags, len(bags)):
            plane = (f"plane_shared_{flight % shared_planes}" if shared_planes
                     else f"plane_{flight}")
            bag_ids = [f"bag_{flight}_{k}" for k in range(count)]
            objects[plane] = "plane"
            objects.update((b, "baggage") for b in bag_ids)
            block = flight // len(bags)
            steps = [(block, act, omap) for act, omap in _flight(rng, plane, bag_ids)]
            if shared_planes and flight >= shared_planes:
                streams[flight % shared_planes].extend(steps)
            else:
                streams.append(steps)
            total += len(steps)
            flight += 1

    width = shared_planes or CONCURRENT_FLIGHTS
    pending = [list(reversed(s)) for s in reversed(streams)]
    active: list[list[tuple[int, str, list[str]]]] = []
    merged = []
    while pending or active:
        while pending and len(active) < width:
            active.append(pending.pop())
        i = rng.randrange(len(active))
        merged.append(active[i].pop())
        if not active[i]:
            del active[i]

    blocks: list[list[int]] = [[] for _ in range(flight // len(bags))]
    for index, (block, _act, _omap) in enumerate(merged):
        blocks[block].append(index)
    doc = {
        "object_types": ["baggage", "plane"],
        "objects": dict(sorted(objects.items())),
        "events": [{"id": f"e{i}", "activity": act, "omap": sorted(omap)}
                   for i, (_block, act, omap) in enumerate(merged, start=1)],
    }
    data = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return Generated(data, tuple(tuple(b) for b in blocks))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
