"""Deterministic peer selection and digest helpers for gossip monitoring.

The gossip failure detector (``FleetConfig.monitoring = "gossip"``)
replaces the single-watcher timer of the Section 3.2.5 monitoring ring
with three layers, following the tunable-fanout gossiping family of
De Florio & Blondia and pod-style quorum attestation:

1. **Epidemic freshness.** Every round each vehicle piggybacks a digest
   of its most recently heard ``(pair_key, round)`` entries to ``fanout``
   peers, so liveness information spreads in O(log n) rounds and survives
   the lossy/corrupting transports (which only mutate protocol messages,
   never digests).
2. **Multi-reporter suspicion.** A pair is suspected only once
   ``suspicion_threshold`` *distinct* vehicles have reported it silent --
   reports travel inside the digests, deduplicated by reporter identity.
3. **Quorum attestation.** The ring watcher collects ``quorum``
   co-signatures (``SuspectMessage``/``AttestMessage``) before starting
   the replacement search, masking up to ``quorum - 1`` Byzantine
   watchers.

Peer selection must be byte-identical at any worker, process, or shard
count, so it never consults a shared RNG: each draw is keyed blake2b
over ``(identity, per-vehicle counter, slot)``, a pure function of state
that checkpoints and restores exactly.

A gossip round costs O(fanout) work per vehicle: peer sampling is an
order statistic over the sorted candidates (no copy of the fleet), with
the same picks as popping from a copied pool, and a digest sorts only the
entries that can make its cap.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left, insort
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.grid.lattice import Point

__all__ = ["GOSSIP_KEY", "GOSSIP_ENTRY_CAP", "select_peers", "freshest_entries"]

#: Domain-separation key for the peer-selection hash.  Fixed forever:
#: changing it would silently re-route every gossip run.
GOSSIP_KEY = b"repro-gossip"

#: Maximum number of ``(pair_key, round)`` freshness entries per digest.
#: Caps digest size at O(1) per message regardless of fleet size; the
#: freshest entries are the ones worth spreading.
GOSSIP_ENTRY_CAP = 8


def _draw(identity: Hashable, counter: int, slot: int, modulus: int) -> int:
    """One deterministic draw in ``[0, modulus)`` keyed by vehicle state."""
    payload = repr((identity, counter, slot)).encode("utf-8")
    digest = hashlib.blake2b(payload, key=GOSSIP_KEY, digest_size=8).digest()
    return int.from_bytes(digest, "big") % modulus


def select_peers(
    identity: Hashable,
    counter: int,
    candidates: Sequence[Hashable],
    fanout: int,
) -> List[Hashable]:
    """Pick ``fanout`` gossip peers without replacement, deterministically.

    ``candidates`` must be sorted ascending without duplicates, the
    canonical order every worker shares; the sender itself is excluded.
    The draws sample a shrinking pool: draw ``slot`` picks position
    ``_draw(identity, counter, slot, size - slot)`` among the candidates
    not yet picked, so the same vehicle is never drawn twice in one round,
    and the per-vehicle ``counter`` advances the stream between rounds --
    two vehicles (or two rounds) never share a draw sequence.

    The pool is never built: the sender is found with ``bisect`` and each
    draw becomes a candidate position by stepping over the positions
    already picked (an order statistic of the remaining pool).  The picks
    are those of popping from a copied pool, at O(fanout^2 + log n) per
    call instead of O(n).
    """
    own = bisect_left(candidates, identity)
    if own == len(candidates) or candidates[own] != identity:
        own = len(candidates)  # the sender is not a candidate
    size = len(candidates) - (own < len(candidates))
    taken: List[int] = []
    chosen: List[Hashable] = []
    for slot in range(min(fanout, size)):
        position = _draw(identity, counter, slot, size - slot)
        for previous in taken:
            if previous > position:
                break
            position += 1
        insort(taken, position)
        chosen.append(candidates[position + (position >= own)])
    return chosen


def freshest_entries(
    last_heard: Dict[Point, int], cap: int = GOSSIP_ENTRY_CAP
) -> Tuple[Tuple[Point, int], ...]:
    """The ``cap`` freshest ``(pair_key, round)`` entries, canonically ordered.

    Most recent round first, ties broken by pair key so the digest is a
    pure function of the ``last_heard`` mapping (byte-identical across
    dict insertion orders).  Only the entries at or above the ``cap``-th
    largest round can make the cut, so only those are sorted.
    """
    if 0 < cap < len(last_heard):
        floor = heapq.nlargest(cap, last_heard.values())[-1]
        items = [item for item in last_heard.items() if item[1] >= floor]
    else:
        items = list(last_heard.items())
    items.sort(key=lambda item: (-item[1], item[0]))
    return tuple(items[:cap])
