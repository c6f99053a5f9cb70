"""Environment wrappers: observation normalisation and episode recording."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.env.hvac_env import EnvironmentStep, HVACEnvironment


class NormalizedObservationWrapper:
    """Scales observations into [0, 1] using the observation-space bounds.

    The decision-tree policy operates on raw physical units (that is what makes
    it interpretable), but the neural dynamics model trains better on
    normalised inputs; this wrapper is provided for agents that want it.
    """

    def __init__(self, environment: HVACEnvironment):
        self.environment = environment
        self._low = environment.observation_space.low
        self._span = environment.observation_space.high - environment.observation_space.low
        self._span[self._span == 0] = 1.0

    def normalize(self, observation: np.ndarray) -> np.ndarray:
        """Map a raw observation onto [0, 1] per channel (no clipping)."""
        return (np.asarray(observation, dtype=float) - self._low) / self._span

    def denormalize(self, normalized: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`normalize`: back to physical units."""
        return np.asarray(normalized, dtype=float) * self._span + self._low

    def reset(self, seed=None) -> Tuple[np.ndarray, Dict[str, float]]:
        """Reset the wrapped environment; the observation comes back normalised."""
        observation, info = self.environment.reset(seed)
        return self.normalize(observation), info

    def step(self, action: Union[int, Tuple[float, float]]) -> EnvironmentStep:
        """Step the wrapped environment; only the observation is normalised."""
        result = self.environment.step(action)
        return EnvironmentStep(
            observation=self.normalize(result.observation),
            reward=result.reward,
            terminated=result.terminated,
            truncated=result.truncated,
            info=result.info,
        )

    def __getattr__(self, name: str):
        # Delegate everything else (action_space, num_steps, ...) to the base env.
        return getattr(self.environment, name)


@dataclass
class EpisodeRecord:
    """Per-step traces of one recorded episode."""

    observations: List[np.ndarray] = field(default_factory=list)
    actions: List[int] = field(default_factory=list)
    rewards: List[float] = field(default_factory=list)
    infos: List[Dict[str, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def total_reward(self) -> float:
        """Sum of the recorded step rewards."""
        return float(sum(self.rewards))

    @property
    def total_energy_kwh(self) -> float:
        """Sum of the recorded HVAC electric energy (kWh)."""
        return float(sum(info.get("hvac_electric_energy_kwh", 0.0) for info in self.infos))

    @property
    def zone_temperatures(self) -> np.ndarray:
        """True controlled-zone temperature after each step (not the sensor report)."""
        return np.array([info["zone_temperature"] for info in self.infos])

    @property
    def heating_setpoints(self) -> np.ndarray:
        """Applied heating setpoint of each step (after any action faults)."""
        return np.array([info["heating_setpoint"] for info in self.infos])

    @property
    def cooling_setpoints(self) -> np.ndarray:
        """Applied cooling setpoint of each step (after any action faults)."""
        return np.array([info["cooling_setpoint"] for info in self.infos])


class EpisodeRecorder:
    """Wraps an environment and records every step into an :class:`EpisodeRecord`."""

    def __init__(self, environment: HVACEnvironment):
        self.environment = environment
        self.record = EpisodeRecord()

    def reset(self, seed=None) -> Tuple[np.ndarray, Dict[str, float]]:
        """Reset the wrapped environment and start a fresh record with its observation."""
        observation, info = self.environment.reset(seed)
        self.record = EpisodeRecord()
        self.record.observations.append(observation)
        return observation, info

    def step(self, action: Union[int, Tuple[float, float]]) -> EnvironmentStep:
        """Step the wrapped environment and record the step.

        The recorded action is the commanded one as a table index (a setpoint
        pair is clipped onto the table first); the info carries the applied
        pair.
        """
        result = self.environment.step(action)
        action_index = (
            int(action)
            if not isinstance(action, (tuple, list, np.ndarray))
            else self.environment.action_space.to_index(float(action[0]), float(action[1]))
        )
        self.record.actions.append(action_index)
        self.record.rewards.append(result.reward)
        self.record.infos.append(dict(result.info))
        self.record.observations.append(result.observation)
        return result

    def __getattr__(self, name: str):
        return getattr(self.environment, name)
