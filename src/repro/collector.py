"""What CPython's cyclic collector walks in a served process.

A served process (``repro serve``, ``repro replicate``) keeps what it
commits — the chain, the receipt window, the world state and its trie —
and makes no reference cycles doing so: all of it is freed by reference
counting or stays live. Yet every full (generation-2) collection walks
all of it again. On a 15 s ``transfer`` run that was 9–10 collections
and 0.8–1.0 s, and not one of them freed an object it walked.

:class:`CollectorPolicy` freezes (``gc.freeze()``) what each full
collection leaves alive, at the moment that collection has just shown
it live, so later full collections walk only what was promoted since.

A cycle that later forms among frozen objects and becomes garbage is
still reclaimed, within a stated bound: once as many objects have been
frozen since the last full walk of *everything* as that walk found
live, the next full collection unfreezes first and walks everything
again. Each object is so walked at most about once more over its life,
and frozen garbage waits for at most that much new freezing.
"""

from __future__ import annotations

import gc
import time

from .obs import MetricsRegistry

#: CPython's oldest generation: collecting it is a full collection.
OLDEST = 2


class CollectorPolicy:
    """Freeze what each full collection proves live, while entered.

    A context manager: entering appends its callback to
    ``gc.callbacks``; leaving removes it and unfreezes everything, so the
    process is left with the default collector. It publishes into
    *metrics* (a served process hands in ``RpcServer.metrics``, so
    ``repro_stats`` reads them): ``gc.collections{generation=…}``,
    ``gc.pause_ms{generation=…}`` (the collection and this policy's
    work in it), ``gc.unfrozen_walks`` (full collections that walked
    every tracked object) and the gauge ``gc.frozen`` (objects frozen
    since the last of those, its own survivors included: frozen objects
    that reference counting freed since are not subtracted).
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        # Every series exists from here: the callback runs on whichever
        # thread allocated, and only ever increments.
        counter = metrics.counter
        generations = range(OLDEST + 1)
        self._m_collections = [
            counter("gc.collections", generation=g) for g in generations
        ]
        self._m_pause_ms = [
            counter("gc.pause_ms", generation=g) for g in generations
        ]
        for pause in self._m_pause_ms:
            # A float from the start: a value's JSON type may not depend
            # on whether anything happened yet.
            pause.inc(0.0)
        self._m_unfrozen_walks = counter("gc.unfrozen_walks")
        self._m_frozen = metrics.gauge("gc.frozen")
        #: Objects the last full walk of everything left alive.
        self.live_at_walk = 0
        #: Objects frozen since that walk.
        self.frozen_since = 0
        self._started = 0.0
        self._walks_everything = False

    def __enter__(self) -> CollectorPolicy:
        gc.callbacks.append(self._on_collection)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_collection)
        gc.unfreeze()

    def _on_collection(self, phase: str, info: dict) -> None:
        generation = info["generation"]
        if phase == "start":
            self._started = time.perf_counter()
            self._walks_everything = (
                generation == OLDEST
                and self.frozen_since >= self.live_at_walk
            )
            if self._walks_everything:
                # Frozen garbage cycles are reclaimed by this collection.
                gc.unfreeze()
            return
        if generation == OLDEST:
            # What the walk left alive, counted in the generation it
            # was walked in (``gc.get_freeze_count()`` would walk every
            # frozen object to count them).
            survivors = len(gc.get_objects(generation=OLDEST))
            gc.freeze()
            if self._walks_everything:
                self._m_unfrozen_walks.inc()
                self.live_at_walk = survivors
                self.frozen_since = 0
            else:
                self.frozen_since += survivors
            self._m_frozen.set(self.live_at_walk + self.frozen_since)
        self._m_collections[generation].inc()
        self._m_pause_ms[generation].inc(
            (time.perf_counter() - self._started) * 1e3
        )
