"""Classical PI(D) baseline controller.

A textbook proportional-integral-derivative loop around the comfort-band
midpoint, discretised per control step: the error is ``midpoint - zone``,
the integral term carries an anti-windup clamp (without it, a long night
setback would wind the integrator up and overshoot every morning), and the
derivative term is zero until one error sample has been seen.  The control
signal shifts a narrow setpoint band up or down around the midpoint, which
the action-space clip then snaps onto the discrete setpoint grid.

Patterned on hass-ufh-controller's ``core/pid.py`` (PAPERS.md related work)
— the same loop that runs real underfloor-heating zones — and registered as
a baseline agent so the robustness bench can compare it against the MPC
teacher and the distilled tree under faults.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.agents.base import BaseAgent
from repro.agents.registry import register_agent
from repro.data import ActionBatch, ObservationBatch
from repro.env.hvac_env import HVACEnvironment
from repro.utils.config import ComfortConfig
from repro.utils.rng import RNGLike


@register_agent(
    "pid",
    aliases=("pi",),
    summary="classical PI(D) loop around the comfort midpoint with anti-windup",
)
class PIDAgent(BaseAgent):
    """Discrete-time PID controller tracking the comfort midpoint."""

    name = "pid"

    def __init__(
        self,
        comfort: Optional[ComfortConfig] = None,
        kp: float = 2.0,
        ki: float = 0.1,
        kd: float = 0.0,
        windup_limit: float = 3.0,
        band: float = 0.5,
    ):
        self.comfort = comfort or ComfortConfig.winter()
        self.kp = float(kp)
        self.ki = float(ki)
        self.kd = float(kd)
        self.windup_limit = float(windup_limit)
        self.band = float(band)
        if self.windup_limit <= 0:
            raise ValueError("windup_limit must be positive")
        if self.band <= 0:
            raise ValueError("band must be positive")
        self._integral = 0.0
        self._prev_error = 0.0
        self._has_prev = False
        # (env-identity key, per-step cached arrays) for the batch fast path.
        self._batch_cache = None

    @classmethod
    def from_config(
        cls,
        environment: Optional[HVACEnvironment] = None,
        seed: RNGLike = None,
        season: Optional[str] = None,
        **kwargs,
    ) -> "PIDAgent":
        """Config hook: default the comfort band to the environment's reward config."""
        if "comfort" not in kwargs:
            if season is not None:
                kwargs["comfort"] = ComfortConfig.for_season(season)
            elif environment is not None:
                kwargs["comfort"] = environment.config.reward.comfort
        return cls(**kwargs)

    def reset(self) -> None:
        self._integral = 0.0
        self._prev_error = 0.0
        self._has_prev = False

    def select_action(
        self, observation: np.ndarray, environment: HVACEnvironment, step: int
    ) -> int:
        zone = float(np.asarray(observation, dtype=float).reshape(-1)[0])
        actions = environment.config.actions
        off_heating, off_cooling = actions.off_setpoints()
        if not environment.occupied_at(step):
            # Setback: release the plant and bleed the controller state so a
            # long unoccupied stretch cannot wind the integrator up.
            self.reset()
            return environment.action_space.to_index(
                *actions.clip(off_heating, off_cooling)
            )
        error = self.comfort.midpoint - zone
        self._integral = min(
            max(self._integral + error, -self.windup_limit), self.windup_limit
        )
        derivative = (error - self._prev_error) if self._has_prev else 0.0
        self._prev_error = error
        self._has_prev = True
        control = self.kp * error + self.ki * self._integral + self.kd * derivative
        center = self.comfort.midpoint + control
        heating, cooling = actions.clip(center - self.band, center + self.band)
        return environment.action_space.to_index(heating, cooling)

    # ------------------------------------------------------- batched selection
    @classmethod
    def for_environments(
        cls, environments: Sequence[HVACEnvironment], **kwargs
    ) -> List["PIDAgent"]:
        """One PID loop per environment."""
        return [cls.from_config(env, **kwargs) for env in environments]

    @classmethod
    def select_actions_batch(
        cls,
        agents: Sequence["PIDAgent"],
        observations: Union[ObservationBatch, np.ndarray],
        environments: Sequence[HVACEnvironment],
        step: int,
    ) -> ActionBatch:
        """Vectorised PID update over the whole batch.

        Per-agent gains are compiled once per (agents, environments)
        pairing; each tick is then pure array math plus a state
        gather/scatter on the agent instances.  The shared action space clips
        with :meth:`~repro.env.spaces.SetpointSpace.clip_arrays` and looks the
        pairs up with :meth:`~repro.env.spaces.SetpointSpace.indices`, both
        exact element by element, so batched decisions equal the per-episode
        path exactly.  Falls back to the per-episode loop when the
        environments do not share an action space.
        """
        lead = agents[0]
        key = tuple(id(a) for a in agents) + tuple(id(e) for e in environments)
        cache = getattr(lead, "_batch_cache", None)
        if cache is None or cache[0] != key:
            cache = (key, _compile_batch(agents, environments))
            lead._batch_cache = cache
        compiled = cache[1]
        if compiled is None:
            return BaseAgent.select_actions_batch.__func__(
                cls, agents, observations, environments, step
            )
        (
            occupied,
            midpoint,
            kp,
            ki,
            kd,
            windup,
            band,
            off_idx,
            space,
        ) = compiled

        count = len(agents)
        zone = np.asarray(observations, dtype=float)[:, 0]
        occ = occupied[:, step]
        integral = np.fromiter((a._integral for a in agents), dtype=float, count=count)
        prev_error = np.fromiter(
            (a._prev_error for a in agents), dtype=float, count=count
        )
        has_prev = np.fromiter((a._has_prev for a in agents), dtype=bool, count=count)

        error = midpoint - zone
        new_integral = np.minimum(np.maximum(integral + error, -windup), windup)
        derivative = np.where(has_prev, error - prev_error, 0.0)
        control = kp * error + ki * new_integral + kd * derivative
        center = midpoint + control
        heating, cooling = space.clip_arrays(center - band, center + band)
        indices = np.where(occ, space.indices(heating, cooling), off_idx)

        for i, agent in enumerate(agents):
            if occ[i]:
                agent._integral = float(new_integral[i])
                agent._prev_error = float(error[i])
                agent._has_prev = True
            else:
                agent._integral = 0.0
                agent._prev_error = 0.0
                agent._has_prev = False
        return ActionBatch(indices)


def _compile_batch(
    agents: Sequence[PIDAgent], environments: Sequence[HVACEnvironment]
):
    """Per-step constants for the batch fast path (None -> fall back)."""
    first_pairs = environments[0].action_space.pairs
    if any(env.action_space.pairs != first_pairs for env in environments[1:]):
        return None
    count = len(agents)
    steps = min(env.num_steps for env in environments)
    occupied = np.stack(
        [np.asarray(env.occupancy.occupied[:steps], dtype=bool) for env in environments]
    )
    midpoint = np.empty(count, dtype=float)
    kp = np.empty(count, dtype=float)
    ki = np.empty(count, dtype=float)
    kd = np.empty(count, dtype=float)
    windup = np.empty(count, dtype=float)
    band = np.empty(count, dtype=float)
    off_idx = np.empty(count, dtype=np.int64)
    for i, (agent, env) in enumerate(zip(agents, environments)):
        actions = env.config.actions
        midpoint[i] = agent.comfort.midpoint
        kp[i] = agent.kp
        ki[i] = agent.ki
        kd[i] = agent.kd
        windup[i] = agent.windup_limit
        band[i] = agent.band
        off_idx[i] = env.action_space.to_index(
            *actions.clip(*actions.off_setpoints())
        )
    space = environments[0].action_space
    return (occupied, midpoint, kp, ki, kd, windup, band, off_idx, space)
