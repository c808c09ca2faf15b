"""Per-system convergence logging.

Ginkgo's batched kernels take a ``LogType`` template argument that records,
for each system in the batch, the iteration count at convergence and the
final residual norm.  :class:`BatchLogger` is the equivalent here, with an
optional full residual history (used by the convergence-study example and
the tests that validate Table III).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchLogger"]


class BatchLogger:
    """Records per-system convergence data during a batched solve.

    Parameters
    ----------
    record_history:
        When True, every iteration's per-system residual-norm vector is
        stored (O(iterations × num_batch) memory).  Off by default.
    """

    def __init__(self, record_history: bool = False) -> None:
        self.record_history = bool(record_history)
        self._iterations: np.ndarray | None = None
        self._halted: np.ndarray | None = None
        self._res_norms: np.ndarray | None = None
        self._history: list[np.ndarray] | None = [] if record_history else None
        self._num_batch: int | None = None

    # -- solver-facing API -------------------------------------------------

    def initialize(self, num_batch: int) -> None:
        """Reset state for a batch of ``num_batch`` systems."""
        self._num_batch = num_batch
        self._iterations = np.zeros(num_batch, dtype=np.int64)
        self._halted = np.zeros(num_batch, dtype=bool)
        self._res_norms = np.full(num_batch, np.inf)
        if self.record_history is True:
            self._history = []

    def log_iteration(
        self, iteration: int, res_norms: np.ndarray, newly_converged: np.ndarray
    ) -> None:
        """Record one solver iteration.

        Parameters
        ----------
        iteration:
            Iteration index just completed (0-based).
        res_norms:
            Current per-system residual norms (all systems, including
            already-converged ones whose values are frozen).
        newly_converged:
            Mask of systems that converged *at this* iteration.
        """
        if self._iterations is None:
            raise RuntimeError("logger used before initialize()")
        self._iterations[newly_converged] = iteration + 1
        self._res_norms[newly_converged] = res_norms[newly_converged]

    def log_converged(
        self, iteration: int, indices: np.ndarray, res_norms: np.ndarray
    ) -> None:
        """Record convergence for systems named by *global* batch indices.

        The compacted solve path works on a gathered sub-batch; it reports
        convergence with the systems' original batch indices and the
        already-sliced residual norms.  Semantics match
        :meth:`log_iteration` exactly.
        """
        if self._iterations is None:
            raise RuntimeError("logger used before initialize()")
        self._iterations[indices] = iteration + 1
        self._res_norms[indices] = res_norms

    def log_history(self, res_norms: np.ndarray) -> None:
        """Append one per-iteration residual snapshot (when enabled)."""
        if self._history is not None:
            self._history.append(res_norms.copy())

    def log_halted(self, indices: np.ndarray, trips: int) -> None:
        """Record systems deactivated *without* converging (health guards).

        ``trips`` is the number of loop trips the systems actually ran —
        a system that breaks down at entry bills 0 iterations, not
        ``max_iter``.  :meth:`finalize` will not overwrite these counts.
        """
        if self._iterations is None:
            raise RuntimeError("logger used before initialize()")
        self._iterations[indices] = trips
        self._halted[indices] = True

    def finalize(self, res_norms: np.ndarray, unconverged: np.ndarray, max_iter: int) -> None:
        """Record final state for systems that never converged.

        Systems halted early by the health guards keep the trip count
        recorded at deactivation instead of being billed ``max_iter``.
        """
        if self._iterations is None:
            raise RuntimeError("logger used before initialize()")
        self._iterations[unconverged & ~self._halted] = max_iter
        self._res_norms[unconverged] = res_norms[unconverged]

    def snapshot(self) -> tuple:
        """``(iterations, halted, res_norms)`` of the latest solve.

        The arrays are the logger's own; :meth:`initialize` binds fresh
        ones, so a snapshot survives later solves unchanged.
        """
        return self._iterations, self._halted, self._res_norms

    def restore(
        self,
        iterations: np.ndarray,
        halted: np.ndarray,
        res_norms: np.ndarray,
        *,
        history: list | None = None,
    ) -> None:
        """Load a whole batch's record (the merged chunks of a solve)."""
        self._num_batch = iterations.shape[0]
        self._iterations = iterations
        self._halted = halted
        self._res_norms = res_norms
        if self._history is not None:
            self._history = list(history or [])

    # -- user-facing API -----------------------------------------------------

    @property
    def iterations(self) -> np.ndarray:
        """Per-system iteration counts at convergence (int64)."""
        if self._iterations is None:
            raise RuntimeError("logger holds no data; run a solve first")
        return self._iterations

    @property
    def residual_norms(self) -> np.ndarray:
        """Per-system residual norms at convergence."""
        if self._res_norms is None:
            raise RuntimeError("logger holds no data; run a solve first")
        return self._res_norms

    @property
    def history(self) -> list[np.ndarray]:
        """Per-iteration residual-norm snapshots (requires record_history)."""
        if self._history is None:
            raise RuntimeError("history recording was not enabled")
        return self._history

    def convergence_curve(self, system: int) -> np.ndarray:
        """Residual norms of one system across iterations (from history)."""
        hist = self.history
        return np.array([h[system] for h in hist])
