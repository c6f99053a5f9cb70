"""Historical transition data: collection, storage and train/test handling.

The paper's pipeline starts from a historical dataset ``T = {(s, d, a, s')}``
extracted from the building management system.  In the reproduction the
"historical data" is produced by running a behaviour controller (by default the
building's rule-based schedule controller with exploration noise) in the
simulated building, exactly as prior MBRL-for-HVAC work bootstraps its models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.env.hvac_env import HVACEnvironment
from repro.utils.rng import RNGLike, ensure_rng


@dataclass(frozen=True)
class Transition:
    """One historical transition ``(s, d, a, s')``."""

    state: float
    disturbance: np.ndarray
    action: Tuple[int, int]
    next_state: float

    @property
    def policy_input(self) -> np.ndarray:
        """The concatenated (s, d) vector used as policy input."""
        return np.concatenate(([self.state], self.disturbance))

    @property
    def model_input(self) -> np.ndarray:
        """The concatenated (s, d, a) vector used as dynamics-model input."""
        return np.concatenate(([self.state], self.disturbance, self.action))


class TransitionDataset:
    """A container of transitions with matrix views for model training."""

    def __init__(self, transitions: Optional[Iterable[Transition]] = None):
        self._transitions: List[Transition] = list(transitions) if transitions else []

    # ------------------------------------------------------------ collection
    def add(self, transition: Transition) -> None:
        """Append one transition."""
        self._transitions.append(transition)

    def extend(self, transitions: Iterable[Transition]) -> None:
        """Append every transition of ``transitions``, in order."""
        self._transitions.extend(transitions)

    def __len__(self) -> int:
        return len(self._transitions)

    def __getitem__(self, index: int) -> Transition:
        return self._transitions[index]

    def __iter__(self):
        return iter(self._transitions)

    # --------------------------------------------------------------- matrices
    def model_inputs(self) -> np.ndarray:
        """Matrix of (s, d, a) rows for dynamics-model training."""
        if not self._transitions:
            return np.zeros((0, 0), dtype=np.float64)
        return np.stack([t.model_input for t in self._transitions])

    def model_targets(self) -> np.ndarray:
        """Column vector of next-state targets."""
        return np.array([[t.next_state] for t in self._transitions], dtype=np.float64)

    def policy_inputs(self) -> np.ndarray:
        """Matrix of (s, d) rows — the historical input distribution X."""
        if not self._transitions:
            return np.zeros((0, 0), dtype=np.float64)
        return np.stack([t.policy_input for t in self._transitions])

    def states(self) -> np.ndarray:
        """The ``(N,)`` float64 states ``s`` (observed zone temperatures)."""
        return np.array([t.state for t in self._transitions], dtype=np.float64)

    def actions(self) -> np.ndarray:
        """The ``(N, 2)`` float64 (heating, cooling) actions ``a`` of the transitions."""
        return np.array([t.action for t in self._transitions], dtype=np.float64)

    # ------------------------------------------------------------------ split
    def train_test_split(
        self, test_fraction: float = 0.2, seed: RNGLike = None
    ) -> Tuple["TransitionDataset", "TransitionDataset"]:
        """Random split into train and test subsets."""
        if not (0.0 < test_fraction < 1.0):
            raise ValueError("test_fraction must be in (0, 1)")
        rng = ensure_rng(seed)
        indices = rng.permutation(len(self._transitions))
        n_test = max(1, int(round(test_fraction * len(self._transitions))))
        test_idx = set(indices[:n_test].tolist())
        train = TransitionDataset(t for i, t in enumerate(self._transitions) if i not in test_idx)
        test = TransitionDataset(t for i, t in enumerate(self._transitions) if i in test_idx)
        return train, test

    def subsample(self, n: int, seed: RNGLike = None) -> "TransitionDataset":
        """A uniformly subsampled copy with at most ``n`` transitions."""
        if n >= len(self._transitions):
            return TransitionDataset(self._transitions)
        rng = ensure_rng(seed)
        indices = rng.choice(len(self._transitions), size=n, replace=False)
        return TransitionDataset(self._transitions[i] for i in sorted(indices))


def collect_historical_data(
    environment: HVACEnvironment,
    behaviour_agent,
    steps: Optional[int] = None,
    exploration_probability: float = 0.3,
    seed: RNGLike = None,
) -> TransitionDataset:
    """Run ``behaviour_agent`` in the environment and record transitions.

    Parameters
    ----------
    environment:
        A fresh (or reset) environment.
    behaviour_agent:
        Any object with ``select_action(observation, environment, step)``
        returning a discrete action index (see ``repro.agents.base``).
    steps:
        Number of control steps to record (default: the whole episode).
    exploration_probability:
        With this probability a uniformly random action replaces the behaviour
        agent's choice, giving the dataset action-space coverage (a standard
        trick when the historical BMS data comes from a single controller).
    """
    rng = ensure_rng(seed)
    total = steps if steps is not None else environment.num_steps
    dataset = TransitionDataset()
    observation, _info = environment.reset()
    for step in range(total):
        if step >= environment.num_steps:
            break
        state = float(observation[0])
        disturbance = np.asarray(observation[1:], dtype=float)
        if rng.random() < exploration_probability:
            action_index = environment.action_space.sample(rng)
        else:
            action_index = behaviour_agent.select_action(observation, environment, step)
        heating, cooling = environment.action_space.to_pair(int(action_index))
        result = environment.step(int(action_index))
        dataset.add(
            Transition(
                state=state,
                disturbance=disturbance,
                action=(heating, cooling),
                next_state=float(result.observation[0]),
            )
        )
        observation = result.observation
        if result.truncated:
            break
    return dataset
