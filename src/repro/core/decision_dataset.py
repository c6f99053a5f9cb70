"""Decision-dataset generation by Monte-Carlo distillation (Section 3.2.1).

A decision dataset ``Pi = {(s, d, a*)}`` pairs policy inputs with the
*deterministic* optimal action distilled from the stochastic optimiser: for
every input the random-shooting optimiser is run several times (the Monte-Carlo
method of the paper) and the most frequent best first action ``a*`` is kept.

Inputs are drawn from the noise-augmented historical distribution
(:class:`repro.core.sampling.AugmentedHistoricalSampler`), which is the paper's
importance-sampling answer to the dimensionality of the input space.  Since the
sampled inputs are not tied to a specific timestamp, the optimiser plans under
a persistence forecast (the sampled disturbance held constant over the planning
horizon) — the same simplification BMS-data-driven extraction has to make.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sampling import AugmentedHistoricalSampler
from repro.data import ActionBatch, ObservationBatch
from repro.utils.rng import RNGLike, ensure_rng, spawn_rngs

#: Index of the occupant-count feature inside the policy-input vector.
_OCCUPANT_COUNT_FEATURE = 5


@dataclass
class DecisionDataset:
    """The decision dataset Pi: policy inputs and distilled action labels."""

    inputs: np.ndarray
    action_labels: np.ndarray
    action_pairs: List[Tuple[int, int]]
    generation_seconds_per_entry: float = 0.0
    monte_carlo_runs: int = 1

    def __post_init__(self) -> None:
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.action_labels = np.asarray(self.action_labels, dtype=int)
        if len(self.inputs) != len(self.action_labels):
            raise ValueError("inputs and action_labels must have the same length")
        if len(self.action_pairs) == 0:
            raise ValueError("action_pairs must not be empty")
        if len(self.action_labels) and (
            self.action_labels.min() < 0 or self.action_labels.max() >= len(self.action_pairs)
        ):
            raise ValueError("action labels must index into action_pairs")

    def __len__(self) -> int:
        return len(self.action_labels)

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1] if len(self.inputs) else 0

    def setpoints(self) -> np.ndarray:
        """The (heating, cooling) pairs corresponding to each label, shape (n, 2)."""
        pairs = np.asarray(self.action_pairs, dtype=int)
        return pairs[self.action_labels]

    # ------------------------------------------------------- columnar views
    def observation_batch(self) -> ObservationBatch:
        """The inputs as a columnar :class:`~repro.data.ObservationBatch` (no copy)."""
        return ObservationBatch.from_rows(self.inputs)

    def action_batch(self) -> ActionBatch:
        """The labels as an :class:`~repro.data.ActionBatch` with resolved setpoints."""
        return ActionBatch(self.action_labels).with_setpoints(
            np.asarray(self.action_pairs, dtype=float)
        )

    def subset(self, count: int, seed: RNGLike = None) -> "DecisionDataset":
        """A uniformly subsampled dataset of at most ``count`` entries.

        Used by the data-efficiency experiment (Fig. 6/7), which sweeps the
        number of decision data points used to fit the tree.
        """
        if count >= len(self):
            return DecisionDataset(
                self.inputs.copy(),
                self.action_labels.copy(),
                list(self.action_pairs),
                self.generation_seconds_per_entry,
                self.monte_carlo_runs,
            )
        rng = ensure_rng(seed)
        idx = np.sort(rng.choice(len(self), size=count, replace=False))
        return DecisionDataset(
            self.inputs[idx],
            self.action_labels[idx],
            list(self.action_pairs),
            self.generation_seconds_per_entry,
            self.monte_carlo_runs,
        )

    def merge(self, other: "DecisionDataset") -> "DecisionDataset":
        """Concatenate two decision datasets sharing the same action table."""
        if self.action_pairs != other.action_pairs:
            raise ValueError("Cannot merge decision datasets with different action tables")
        return DecisionDataset(
            np.vstack([self.inputs, other.inputs]),
            np.concatenate([self.action_labels, other.action_labels]),
            list(self.action_pairs),
            max(self.generation_seconds_per_entry, other.generation_seconds_per_entry),
            max(self.monte_carlo_runs, other.monte_carlo_runs),
        )

    def label_distribution(self) -> Counter:
        """How often each action label occurs (diagnostics)."""
        return Counter(self.action_labels.tolist())


class DecisionDatasetGenerator:
    """Distils the stochastic optimiser into deterministic decisions."""

    def __init__(
        self,
        optimizer,
        sampler: AugmentedHistoricalSampler,
        action_pairs: Sequence[Tuple[int, int]],
        monte_carlo_runs: int = 5,
        planning_horizon: int = 20,
        occupancy_threshold: float = 0.5,
    ):
        if monte_carlo_runs <= 0:
            raise ValueError("monte_carlo_runs must be positive")
        if planning_horizon <= 0:
            raise ValueError("planning_horizon must be positive")
        self.optimizer = optimizer
        self.sampler = sampler
        self.action_pairs = [tuple(int(v) for v in pair) for pair in action_pairs]
        self.monte_carlo_runs = monte_carlo_runs
        self.planning_horizon = planning_horizon
        self.occupancy_threshold = occupancy_threshold

    # ------------------------------------------------------------------ single
    def distill_decision(self, policy_input: np.ndarray, rng: RNGLike = None) -> int:
        """The most frequent best action over repeated optimiser runs for one input."""
        policy_input = np.asarray(policy_input, dtype=float).ravel()
        state = float(policy_input[0])
        disturbance = policy_input[1:]
        occupied = bool(disturbance[_OCCUPANT_COUNT_FEATURE - 1] > self.occupancy_threshold)
        forecast = np.repeat(disturbance.reshape(1, -1), self.planning_horizon, axis=0)
        occupied_forecast = [occupied] * self.planning_horizon

        run_rngs = spawn_rngs(ensure_rng(rng), self.monte_carlo_runs)
        votes = Counter()
        for run_rng in run_rngs:
            result = self.optimizer.plan(state, forecast, occupied_forecast, rng=run_rng)
            votes[int(result.best_action_index)] += 1
        # Deterministic tie-break: highest vote count, then smallest action index.
        return sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]

    # ------------------------------------------------------------------- batch
    def distill_decisions(
        self, inputs: Union[np.ndarray, ObservationBatch], rng: RNGLike = None
    ) -> np.ndarray:
        """Distil every input at once through the optimiser's batched planner.

        All ``num_inputs × monte_carlo_runs`` planning problems are flattened
        into one :meth:`~repro.agents.random_shooting.RandomShootingOptimizer.plan_batch`
        call and the Monte-Carlo votes are counted with one ``bincount``.  The
        per-problem generators are spawned from ``rng`` in exactly the order
        the serial loop consumes them, so labels are identical seed-for-seed
        to repeated :meth:`distill_decision` calls.

        ``inputs`` may be a plain ``(n, 6)`` array or a columnar
        :class:`~repro.data.ObservationBatch`; either way the whole path down
        to the dynamics model is array ops on the columnar buffer.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        num_inputs = len(inputs)
        runs = self.monte_carlo_runs
        base_rng = ensure_rng(rng)
        run_rngs: List = []
        for _ in range(num_inputs):
            run_rngs.extend(spawn_rngs(base_rng, runs))

        states = np.repeat(inputs[:, 0], runs)
        disturbances = np.repeat(inputs[:, 1:], runs, axis=0)
        occupied = disturbances[:, _OCCUPANT_COUNT_FEATURE - 1] > self.occupancy_threshold
        n_problems = num_inputs * runs
        # Persistence forecast: the sampled disturbance held over the horizon,
        # as a zero-copy broadcast view.
        forecasts = np.broadcast_to(
            disturbances[:, np.newaxis, :],
            (n_problems, self.planning_horizon, disturbances.shape[1]),
        )
        occupied_forecasts = np.broadcast_to(
            occupied[:, np.newaxis], (n_problems, self.planning_horizon)
        )

        plan = self.optimizer.plan_batch(
            states, forecasts, occupied_forecasts, rngs=run_rngs
        )
        best_first = np.asarray(plan.best_action_indices, dtype=np.int64).reshape(
            num_inputs, runs
        )
        # Vectorised vote counting; argmax takes the first maximum, which is
        # the serial tie-break (highest count, then smallest action index).
        num_actions = len(self.action_pairs)
        offsets = np.arange(num_inputs)[:, np.newaxis] * num_actions
        counts = np.bincount(
            (best_first + offsets).ravel(), minlength=num_inputs * num_actions
        ).reshape(num_inputs, num_actions)
        return np.argmax(counts, axis=1)

    def generate(
        self,
        num_entries: int,
        seed: RNGLike = None,
        inputs: Optional[np.ndarray] = None,
        method: str = "batched",
        chunk_inputs: Optional[int] = None,
    ) -> DecisionDataset:
        """Generate a decision dataset of ``num_entries`` distilled decisions.

        ``inputs`` can be supplied directly (e.g. a grid for ablations); by
        default they are drawn from the augmented historical distribution.

        ``method`` selects the execution path: ``"batched"`` (default) runs
        all Monte-Carlo RS problems through the vectorised planner,
        ``"serial"`` keeps the original one-input-at-a-time reference loop.
        Both paths consume the generator identically and produce identical
        labels for identical seeds.  ``chunk_inputs`` bounds how many inputs
        the batched path flattens at once.  The default is
        ``2048 // (monte_carlo_runs * num_samples)`` inputs, at least one:
        about 2k candidate sequences in flight when one input's plans are
        fewer than that (1920 at the tiny preset's 3 x 64), which fits the
        flattened model batches in cache (much larger chunks are
        memory-bandwidth-bound and slower).  At paper defaults one input
        alone is 5 x 1000 = 5000 sequences, so the chunk is a single input.
        """
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        if method not in ("batched", "serial"):
            raise ValueError(f"Unknown method {method!r}; use 'batched' or 'serial'")
        rng = ensure_rng(seed)
        if inputs is None:
            inputs = self.sampler.sample(num_entries, rng)
        else:
            inputs = np.atleast_2d(np.asarray(inputs, dtype=float))[:num_entries]

        use_batched = method == "batched" and hasattr(self.optimizer, "plan_batch")
        labels = np.empty(len(inputs), dtype=int)
        start = time.perf_counter()
        if use_batched:
            if chunk_inputs is None:
                rows_per_input = self.monte_carlo_runs * getattr(
                    self.optimizer, "num_samples", 1000
                )
                chunk_inputs = max(1, 2048 // max(rows_per_input, 1))
            for lo in range(0, len(inputs), chunk_inputs):
                hi = min(lo + chunk_inputs, len(inputs))
                labels[lo:hi] = self.distill_decisions(inputs[lo:hi], rng=rng)
        else:
            for i, row in enumerate(inputs):
                labels[i] = self.distill_decision(row, rng=rng)
        elapsed = time.perf_counter() - start

        return DecisionDataset(
            inputs=inputs,
            action_labels=labels,
            action_pairs=self.action_pairs,
            generation_seconds_per_entry=elapsed / max(len(inputs), 1),
            monte_carlo_runs=self.monte_carlo_runs,
        )
