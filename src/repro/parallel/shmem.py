"""Shared-memory re-homing of the pooled tile and RHS storage.

The pooled layouts of :class:`~repro.solvers.tilepool.TileArena` and
:class:`~repro.solvers.sptrsv.RhsPool` are already the right shape for
zero-copy multiprocess execution: each shape class is one contiguous
``(count, …)`` float64 block, so re-homing a pool onto a
``multiprocessing.shared_memory`` segment changes *nothing* about
indexing, views, or kernel-group gather/scatter — workers attach the
same segments by name and rebuild the identical ``(class, slot)`` maps
from the same deterministic construction (row-major ``np.nonzero`` tile
order, ``np.unique`` shape classing), so a ``spec`` is just the
partition, the tile coordinates and the segment names.  Factor data
never crosses a queue: only task-id slices do.

Lifecycle: the creating (coordinator) side owns the segments and must
``unlink()`` them; attaching (worker) sides only ``close()``.  Attachers
opt out of the ``resource_tracker`` so a worker exiting does not unlink
segments the coordinator still serves to its siblings.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.solvers.sptrsv import RhsPool
from repro.solvers.tilepool import TileArena
from repro.sparse.blocking import Partition


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without registering it for unlink.

    Python 3.13 grew ``track=False``; older interpreters register every
    attachment with the resource tracker, which would unlink the segment
    when the *attaching* process exits — out from under the creator and
    every sibling.  Unregister explicitly on those interpreters.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    # register-then-unregister is not equivalent: sibling attachers share
    # the spawning process's tracker, whose name cache is a set, so the
    # paired messages race into KeyError noise inside the tracker.  Keep
    # attachment invisible to it instead.
    real_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = real_register


def _rehome(pools: list[np.ndarray]
            ) -> tuple[list[shared_memory.SharedMemory], list[np.ndarray]]:
    """Copy each pool into a fresh shared segment; return both lists."""
    segments = []
    shared = []
    for pool in pools:
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(1, pool.nbytes))
        arr = np.ndarray(pool.shape, dtype=pool.dtype, buffer=shm.buf)
        arr[...] = pool
        segments.append(shm)
        shared.append(arr)
    return segments, shared


def _map_onto(pools: list[np.ndarray], names: tuple[str, ...]
              ) -> tuple[list[shared_memory.SharedMemory], list[np.ndarray]]:
    """Replace locally-allocated pools with views of named segments."""
    if len(pools) != len(names):
        raise ValueError("segment names do not match the pool layout")
    segments = []
    shared = []
    for pool, name in zip(pools, names):
        shm = _attach_segment(name)
        segments.append(shm)
        shared.append(np.ndarray(pool.shape, dtype=pool.dtype,
                                 buffer=shm.buf))
    return segments, shared


def _release(obj) -> None:
    """Drop pool views and close the segments (creator keeps the names).

    The pool arrays are dropped first — reference counting frees them
    at once.  Only when a segment's buffer is still exported afterwards
    (an export caught in a reference cycle) is the heap collected and
    the close retried: a full collection costs time proportional to
    everything alive in the process, and every pool solve closes two RHS
    pools on each side.  A buffer exported even then (a caller holding
    one) downgrades close to a no-op rather than an error — ``unlink``
    is what removes the ``/dev/shm`` name.
    """
    obj.pools = []
    if _close_segments(obj._segments):
        return
    gc.collect()
    _close_segments(obj._segments)


def _close_segments(segments) -> bool:
    """Close every segment that can be; False if any is still exported
    (a ``SharedMemory.close`` that failed can be called again)."""
    done = True
    for shm in segments:
        try:
            shm.close()
        except BufferError:
            done = False
    return done


@dataclass(frozen=True)
class SharedArenaSpec:
    """Picklable recipe for attaching one :class:`SharedTileArena`."""

    part: Partition
    tile_bi: np.ndarray
    tile_bj: np.ndarray
    names: tuple[str, ...]


@dataclass(frozen=True)
class SharedRhsSpec:
    """Picklable recipe for attaching one :class:`SharedRhsPool`."""

    part: Partition
    nrhs: int
    names: tuple[str, ...]


class SharedTileArena(TileArena):
    """A :class:`TileArena` whose pools live in shared-memory segments.

    Drop-in for the engine (same ``view``/``locate``/``stamp``/pool
    indexing), so :func:`repro.solvers.engine.run_batch_on_arena` and
    the per-task kernels run on it unchanged.  Construct normally on the
    coordinator (``_owner`` side), ship :meth:`spec` through a queue,
    and :meth:`attach` in each worker.
    """

    def __init__(self, part: Partition, bfill: np.ndarray):
        super().__init__(part, bfill)
        self._segments, self.pools = _rehome(self.pools)
        self._owner = True

    def spec(self) -> SharedArenaSpec:
        """The attachment recipe (partition, tile coords, segment names)."""
        return SharedArenaSpec(part=self.part, tile_bi=self.tile_bi,
                               tile_bj=self.tile_bj,
                               names=tuple(s.name for s in self._segments))

    @classmethod
    def attach(cls, spec: SharedArenaSpec) -> "SharedTileArena":
        """Rebuild the index maps locally and map pools onto the named
        segments.  The reconstruction is deterministic in (part, tile
        coords), so classes, slots and shapes match the creator's."""
        self = cls.__new__(cls)
        nb = spec.part.nblocks
        bfill = np.zeros((nb, nb), dtype=bool)
        bfill[spec.tile_bi, spec.tile_bj] = True
        TileArena.__init__(self, spec.part, bfill)
        self._segments, self.pools = _map_onto(self.pools, spec.names)
        self._owner = False
        return self

    def close(self) -> None:
        """Detach from the segments (both sides)."""
        _release(self)

    def unlink(self) -> None:
        """Remove the segment names from the system (creator only)."""
        if not self._owner:
            raise RuntimeError("only the creating side may unlink")
        for shm in self._segments:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


class SharedRhsPool(RhsPool):
    """An :class:`RhsPool` whose pools live in shared-memory segments.

    The solve phase's cross-owner x-block deliveries happen through
    these pools: an UPDATE task on one worker reads the source RHS block
    another worker's DIAG task solved, with no message or copy.
    """

    def __init__(self, part: Partition, b2: np.ndarray | None = None,
                 *, nrhs: int | None = None):
        super().__init__(part, b2=b2, nrhs=nrhs)
        self._segments, self.pools = _rehome(self.pools)
        self._owner = True

    def spec(self) -> SharedRhsSpec:
        """The attachment recipe (partition, RHS width, segment names)."""
        return SharedRhsSpec(part=self.part, nrhs=self.nrhs,
                             names=tuple(s.name for s in self._segments))

    @classmethod
    def attach(cls, spec: SharedRhsSpec) -> "SharedRhsPool":
        """Rebuild the index locally and map pools onto the segments."""
        self = cls.__new__(cls)
        RhsPool.__init__(self, spec.part, nrhs=spec.nrhs)
        self._segments, self.pools = _map_onto(self.pools, spec.names)
        self._owner = False
        return self

    def close(self) -> None:
        """Detach from the segments (both sides)."""
        _release(self)

    def unlink(self) -> None:
        """Remove the segment names from the system (creator only)."""
        if not self._owner:
            raise RuntimeError("only the creating side may unlink")
        for shm in self._segments:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
