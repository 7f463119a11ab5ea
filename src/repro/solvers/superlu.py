"""SuperLU_DIST-analogue substrate: supernodal, dense panels.

Mirrors the properties §3.5.1 relies on: supernodes are *small* (many
matrices have mostly width-1..4 supernodes), so the baseline launches an
enormous number of tiny kernels — the regime where Trojan Horse's
aggregation yields the paper's largest speedups (up to 418× in Figure 10).

The baseline scheduler is ``"serial"`` (one kernel per task, as the
Table-5 kernel counts of SuperLU_DIST v9.1.0 imply); ``"levelbatch"``
models the newer batched SuperLU of reference [53] and is exposed for the
ablation benches.
"""

from __future__ import annotations

from repro.core.fusion import FusedBackend, merge_schur_tasks, schur_groups
from repro.solvers.base import BlockSolverBase
from repro.sparse import CSRMatrix
from repro.symbolic import find_supernodes


class SuperLUSolver(BlockSolverBase):
    """Supernodal dense-panel solver (SuperLU_DIST analogue).

    Parameters
    ----------
    a:
        System matrix.
    max_supernode:
        Maximum supernode width.  The paper tunes the real solver to 256;
        the scaled default here is 32 (DESIGN.md §3).
    relax:
        Relaxed-supernode amalgamation slack (explicit zeros admitted per
        merged column).
    merge_schur:
        Apply the §3.5.1 integration when scheduling with the Trojan
        Horse: all Schur updates of one supernode row fuse into a single
        larger GEMM task, taming the CPU-side aggregation bottleneck.
        ``factorize()`` runs a fused task's members one by one
        (:class:`~repro.core.fusion.FusedBackend`); every same-pattern
        ``refactorize()`` replays the recorded launches with the members
        expanded and pre-grouped into stacked kernels
        (:class:`~repro.solvers.base.WarmPlan`), bit-identically.  With
        ``merge_schur=False`` (or a non-trojan scheduler) both calls
        execute launches as batched kernel groups (``batch_kernels`` /
        ``REPRO_BATCH_KERNELS``, see :class:`BlockSolverBase`).
    """

    solver_name = "superlu"
    sparse_tiles = False
    default_scheduler = "serial"

    def __init__(self, a: CSRMatrix, max_supernode: int = 32, relax: int = 1,
                 merge_schur: bool = True, **kwargs):
        super().__init__(a, **kwargs)
        self.max_supernode = max_supernode
        self.relax = relax
        self.merge_schur = merge_schur

    def _build_partition(self, permuted: CSRMatrix):
        fill = self._cached_fill(permuted)
        part = find_supernodes(fill, max_size=self.max_supernode,
                               relax=self.relax)
        return part, fill

    def _fuses(self) -> bool:
        return self.scheduler == "trojan" and self.merge_schur

    def _prepare_schedule(self, engine, backend):
        if self._fuses():
            fusion = merge_schur_tasks(engine.dag)
            return fusion.dag, FusedBackend(backend, fusion, engine.dag)
        return engine.dag, backend

    def _schedule_members(self, engine):
        if self._fuses():
            return schur_groups(engine.dag)[1:]
        return None

    def _schedule_config(self, engine) -> tuple:
        return super()._schedule_config(engine) + (self.merge_schur,)
