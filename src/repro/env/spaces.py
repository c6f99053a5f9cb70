"""Minimal observation/action space abstractions (Gym substitute).

Only the features the library needs are implemented: bounds checking, sampling
and, for the setpoint space, the mapping between discrete action indices and
(heating, cooling) setpoint pairs, one pair at a time or one column at a time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.config import ActionSpaceConfig
from repro.utils.rng import RNGLike, ensure_rng


class Box:
    """A bounded continuous space of fixed shape."""

    def __init__(self, low: Sequence[float], high: Sequence[float], names: Optional[Sequence[str]] = None):
        self.low = np.asarray(low, dtype=float)
        self.high = np.asarray(high, dtype=float)
        if self.low.shape != self.high.shape:
            raise ValueError("low and high must have the same shape")
        if np.any(self.low > self.high):
            raise ValueError("low must be element-wise <= high")
        self.names = list(names) if names is not None else [f"x{i}" for i in range(self.low.size)]
        if len(self.names) != self.low.size:
            raise ValueError("names length must match dimensionality")

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of one point of the space (that of ``low``/``high``)."""
        return self.low.shape

    @property
    def dim(self) -> int:
        """Number of scalar components of one point."""
        return int(self.low.size)

    def contains(self, x: Sequence[float]) -> bool:
        """Whether ``x`` has the space's shape and lies within the bounds (1e-9 slack)."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != self.low.shape:
            return False
        return bool(np.all(arr >= self.low - 1e-9) and np.all(arr <= self.high + 1e-9))

    def clip(self, x: Sequence[float]) -> np.ndarray:
        """``x`` as a float array clipped element-wise into ``[low, high]``."""
        return np.clip(np.asarray(x, dtype=float), self.low, self.high)

    def sample(self, rng: RNGLike = None) -> np.ndarray:
        """One point drawn uniformly from the box."""
        gen = ensure_rng(rng)
        return gen.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return f"Box(dim={self.dim})"


class Discrete:
    """A finite space of ``n`` integer actions ``{0, ..., n-1}``."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = int(n)

    def contains(self, value: int) -> bool:
        """Whether ``value`` converts to an integer in ``[0, n)``."""
        try:
            ivalue = int(value)
        except (TypeError, ValueError):
            return False
        return 0 <= ivalue < self.n

    def sample(self, rng: RNGLike = None) -> int:
        """One action index drawn uniformly from ``[0, n)``."""
        gen = ensure_rng(rng)
        return int(gen.integers(0, self.n))

    def __repr__(self) -> str:
        return f"Discrete(n={self.n})"


class SetpointSpace(Discrete):
    """Discrete action space over valid (heating, cooling) setpoint pairs.

    The table is ``config.joint_actions()`` and is never empty (``Discrete``
    rejects ``n = 0``), so :meth:`ActionSpaceConfig.clip
    <repro.utils.config.ActionSpaceConfig.clip>` always lands on a pair of it:
    the clipped heating setpoint is at least ``heating_min``, the cooling one
    at most ``cooling_max``, and the fix-up makes heating ≤ cooling.
    """

    def __init__(self, config: Optional[ActionSpaceConfig] = None):
        self.config = config or ActionSpaceConfig()
        self._pairs: List[Tuple[int, int]] = self.config.joint_actions()
        self._pair_to_index = {pair: i for i, pair in enumerate(self._pairs)}
        super().__init__(len(self._pairs))
        # (heating - heating_min, cooling - cooling_min) -> index, for the
        # columnar lookup; slots with heating > cooling hold 0 and fail the
        # round trip through the table.
        self._table = np.array(self._pairs, dtype=np.int64)
        self._index_grid = np.zeros(
            (self.config.num_heating, self.config.num_cooling), dtype=np.int64
        )
        self._index_grid[
            self._table[:, 0] - self.config.heating_min,
            self._table[:, 1] - self.config.cooling_min,
        ] = np.arange(self.n)

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        """A copy of the (heating, cooling) table, in action-index order."""
        return list(self._pairs)

    def to_pair(self, index: int) -> Tuple[int, int]:
        """Map an action index to its (heating, cooling) setpoint pair."""
        if not self.contains(index):
            raise IndexError(f"Action index {index} outside [0, {self.n})")
        return self._pairs[int(index)]

    def to_index(self, heating: float, cooling: float) -> int:
        """The index of ``config.clip(heating, cooling)``, which is always in the table."""
        return self._pair_to_index[self.config.clip(heating, cooling)]

    def clip_arrays(
        self, heating: np.ndarray, cooling: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Columnar :meth:`ActionSpaceConfig.clip`, exact element by element.

        Returns two float arrays whose ``i``-th entries equal
        ``config.clip(heating[i], cooling[i])``: ``np.round`` rounds .5 ties
        to even exactly as Python's ``round`` does, and the clamps and the
        heating > cooling fix-up run in the same order.  A batch shares one
        action table, and the clip depends only on it, so one space clips the
        whole batch.
        """
        low_h, high_h = self.config.heating_min, self.config.heating_max
        low_c, high_c = self.config.cooling_min, self.config.cooling_max
        h = np.minimum(np.maximum(np.round(heating), low_h), high_h)
        c = np.minimum(np.maximum(np.round(cooling), low_c), high_c)
        bad = h > c
        c_fix = np.minimum(np.maximum(h, low_c), high_c)
        return np.where(bad, np.minimum(h, c_fix), h), np.where(bad, c_fix, c)

    def indices(self, heating: np.ndarray, cooling: np.ndarray) -> np.ndarray:
        """Action indices (int64) of setpoint columns, the inverse of :meth:`to_pair`.

        Exact: every ``(heating[i], cooling[i])`` must equal a pair of the
        table, whatever the dtype.  Any other pair (off the grid, heating
        above cooling, fractional, NaN) raises ``ValueError`` instead of
        landing on a neighbour: each looked-up index must map back to the
        pair it was looked up for.
        """
        config = self.config
        rows = np.asarray(heating).astype(np.int64) - config.heating_min
        cols = np.asarray(cooling).astype(np.int64) - config.cooling_min
        found = self._index_grid[
            np.clip(rows, 0, config.num_heating - 1), np.clip(cols, 0, config.num_cooling - 1)
        ]
        pairs = self._table[found]
        if not ((pairs[:, 0] == heating) & (pairs[:, 1] == cooling)).all():
            raise ValueError("Setpoint pair outside the action table")
        return found

    def heating_actions(self, cooling_setpoint: Optional[int] = None) -> List[int]:
        """Action indices sorted by heating setpoint for a fixed cooling setpoint."""
        cooling = cooling_setpoint if cooling_setpoint is not None else self.config.cooling_max
        indices = [
            self._pair_to_index[(h, cooling)]
            for h in self.config.heating_setpoints
            if (h, cooling) in self._pair_to_index
        ]
        return indices
