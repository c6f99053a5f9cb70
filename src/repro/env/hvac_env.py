"""The HVAC control environment.

``HVACEnvironment`` follows the familiar ``reset()`` / ``step(action)``
interface.  Each step spans one control interval (15 minutes by default), sends
the selected (heating, cooling) setpoints to every zone of the building plant,
advances the thermal simulation under the current weather and occupancy
disturbances and returns the next observation and the Eq. 2 reward.

Observations are the Table-1 vector, in this order::

    [zone temperature, outdoor drybulb temperature, outdoor relative humidity,
     site wind speed, site solar radiation, zone occupant count]

Agents that plan ahead (RS / MPPI / CLUE) can query
:meth:`HVACEnvironment.disturbance_forecast`, mirroring the standard MBRL
assumption of the paper's baselines that near-term weather and occupancy are
available from forecasts and schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.buildings.building import Building, make_five_zone_building
from repro.buildings.occupancy import OccupancySeries, office_schedule
from repro.env.disturbances import (
    DisturbanceSchedule,
    DisturbanceSpec,
    FaultLayer,
    get_disturbance,
)
from repro.env.reward import RewardBreakdown, compute_reward
from repro.env.spaces import Box, SetpointSpace
from repro.utils.config import ActionSpaceConfig, ExperimentConfig, RewardConfig, SimulationConfig
from repro.weather.tmy import WeatherSeries, generate_weather

#: Canonical ordering of the observation vector (Table 1 of the paper).
OBSERVATION_NAMES: Tuple[str, ...] = (
    "zone_temperature",
    "outdoor_temperature",
    "relative_humidity",
    "wind_speed",
    "solar_radiation",
    "occupant_count",
)

#: The disturbance components of the observation (everything except the state).
DISTURBANCE_NAMES: Tuple[str, ...] = OBSERVATION_NAMES[1:]


@dataclass
class EnvironmentStep:
    """The result of one environment step."""

    observation: np.ndarray
    reward: float
    terminated: bool
    truncated: bool
    info: Dict[str, float] = field(default_factory=dict)


class HVACEnvironment:
    """Simulated HVAC control environment for one building in one city."""

    def __init__(
        self,
        building: Building,
        weather: WeatherSeries,
        occupancy: OccupancySeries,
        config: Optional[ExperimentConfig] = None,
        initial_zone_temperature: float = 20.0,
        disturbance: Optional[Union[DisturbanceSchedule, DisturbanceSpec, str]] = None,
    ):
        self.config = config or ExperimentConfig()
        if len(weather) != len(occupancy):
            raise ValueError(
                f"Weather ({len(weather)} steps) and occupancy ({len(occupancy)} steps) "
                "must cover the same horizon"
            )
        # Disturbance profiles realise against (episode length, config seed);
        # a clean/zero-magnitude profile realises to None and the env is
        # bit-identical to one constructed without the argument.
        schedule: Optional[DisturbanceSchedule] = None
        if disturbance is not None:
            if isinstance(disturbance, DisturbanceSchedule):
                schedule = disturbance if disturbance.spec.enabled else None
            else:
                schedule = get_disturbance(disturbance).realise(
                    len(weather), seed=self.config.seed
                )
        if schedule is not None:
            if schedule.num_steps != len(weather):
                raise ValueError(
                    f"Disturbance schedule covers {schedule.num_steps} steps but "
                    f"the episode has {len(weather)}"
                )
            weather = schedule.apply_to_weather(weather)
            occupancy = schedule.apply_to_occupancy(occupancy)
            schedule.apply_to_building(building)
        self._disturbance = schedule
        self.building = building
        self.weather = weather
        self.occupancy = occupancy
        self.initial_zone_temperature = float(initial_zone_temperature)
        self.action_space = SetpointSpace(self.config.actions)
        self.observation_space = Box(
            low=[-50.0, -50.0, 0.0, 0.0, 0.0, 0.0],
            high=[60.0, 60.0, 100.0, 40.0, 1400.0, 200.0],
            names=list(OBSERVATION_NAMES),
        )
        self._step_index = 0
        # Tiers 3-4 (sensor and action faults) as a batch of one.
        self._faults = FaultLayer.build([schedule], self.action_space)

    # ------------------------------------------------------------------ props
    @property
    def num_steps(self) -> int:
        """Total number of control steps in the episode."""
        return len(self.weather)

    @property
    def step_index(self) -> int:
        """Index of the next control step (0 after :meth:`reset`)."""
        return self._step_index

    @property
    def step_duration_seconds(self) -> float:
        """Length of one control step in seconds."""
        return self.config.simulation.minutes_per_step * 60.0

    @property
    def observation_names(self) -> List[str]:
        """The Table-1 observation channel names, in vector order."""
        return list(OBSERVATION_NAMES)

    @property
    def disturbance_names(self) -> List[str]:
        """The disturbance channel names (the observation minus the zone temperature)."""
        return list(DISTURBANCE_NAMES)

    @property
    def disturbance(self) -> Optional[DisturbanceSchedule]:
        """The realised fault schedule of this episode (``None`` when clean)."""
        return self._disturbance

    # ------------------------------------------------------------- observation
    def disturbance_at(self, step: int) -> np.ndarray:
        """The 5-dimensional disturbance vector at ``step``."""
        weather = self.weather.disturbance_at(step)
        count, _occupied = self.occupancy.at(step)
        return np.array(
            [
                weather["outdoor_temperature"],
                weather["relative_humidity"],
                weather["wind_speed"],
                weather["solar_radiation"],
                count,
            ]
        )

    def occupied_at(self, step: int) -> bool:
        """Whether the building is occupied at ``step`` (controls w_e)."""
        _count, occupied = self.occupancy.at(step)
        return occupied

    def hour_of_day_at(self, step: int) -> float:
        """Hour of day of ``step`` (wraps past the end of the episode)."""
        return float(self.weather.hour_of_day[int(step) % len(self.weather)])

    def disturbance_forecast(self, start_step: int, horizon: int) -> np.ndarray:
        """Disturbances for ``horizon`` steps starting at ``start_step`` (shape (H, 5))."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return np.stack([self.disturbance_at(start_step + h) for h in range(horizon)])

    def observation(self) -> np.ndarray:
        """The current observation vector (state + disturbances).

        Under an active sensor-fault schedule the zone-temperature channel is
        the *reported* value (noise plus dropout-and-hold); the plant always
        advances on the true temperature.
        """
        disturbance = self.disturbance_at(self._step_index)
        zone = self.building.controlled_zone_temperature
        if self._faults is not None:
            zone = float(self._faults.report(np.array([zone]), self._step_index)[0])
        return np.concatenate(([zone], disturbance))

    # ------------------------------------------------------------------ reset
    def reset(self, seed: None = None) -> Tuple[np.ndarray, Dict[str, float]]:
        """Reset the plant to the start of the episode.

        The episode (weather, occupancy, faults) is fixed by ``config.seed``
        when the environment is built, so a ``seed`` other than ``None`` is
        rejected with ``ValueError`` rather than ignored.
        """
        if seed is not None:
            raise ValueError(
                f"reset(seed={seed!r}) cannot re-seed the episode: it is fixed by "
                "config.seed when the environment is built; build a new environment instead"
            )
        self._step_index = 0
        if self._faults is not None:
            self._faults.reset()
        self.building.reset(self.initial_zone_temperature)
        obs = self.observation()
        info = {
            "step": 0,
            "hour_of_day": self.hour_of_day_at(0),
            "occupied": float(self.occupied_at(0)),
        }
        return obs, info

    # ------------------------------------------------------------------- step
    def step(self, action: Union[int, Tuple[float, float]]) -> EnvironmentStep:
        """Apply a setpoint action and advance the simulation by one interval."""
        heating, cooling = self._resolve_action(action)
        step = self._step_index
        if step >= self.num_steps:
            raise RuntimeError("Episode is over; call reset() before stepping again")

        fault_columns = None
        if self._faults is not None:
            applied_h, applied_c, fault_columns = self._faults.apply(
                np.array([heating]), np.array([cooling]), step
            )
            heating, cooling = int(applied_h[0]), int(applied_c[0])

        disturbance = self.disturbance_at(step)
        occupied = self.occupied_at(step)
        result = self.building.step(
            heating_setpoint_c=heating,
            cooling_setpoint_c=cooling,
            outdoor_temperature_c=float(disturbance[0]),
            wind_speed_ms=float(disturbance[2]),
            solar_radiation_w_m2=float(disturbance[3]),
            occupant_count=float(disturbance[4]),
            occupied=occupied,
            duration_seconds=self.step_duration_seconds,
        )

        reward_breakdown: RewardBreakdown = compute_reward(
            zone_temperature=result.controlled_zone_temperature,
            heating_setpoint=heating,
            cooling_setpoint=cooling,
            occupied=occupied,
            reward_config=self.config.reward,
            actions=self.config.actions,
        )

        self._step_index += 1
        truncated = self._step_index >= self.num_steps
        if not truncated:
            observation = self.observation()
        else:
            final_zone = result.controlled_zone_temperature
            if self._faults is not None:
                final_zone = float(
                    self._faults.report(np.array([final_zone]), self._step_index)[0]
                )
            observation = np.concatenate(
                ([final_zone], self.disturbance_at(self._step_index - 1))
            )

        comfort = self.config.reward.comfort
        info = {
            "step": step,
            "hour_of_day": self.hour_of_day_at(step),
            "occupied": float(occupied),
            "heating_setpoint": float(heating),
            "cooling_setpoint": float(cooling),
            "zone_temperature": result.controlled_zone_temperature,
            "hvac_electric_energy_kwh": result.hvac_electric_energy_kwh,
            "heating_energy_kwh": result.heating_energy_kwh,
            "cooling_energy_kwh": result.cooling_energy_kwh,
            "energy_proxy": reward_breakdown.energy_proxy,
            "comfort_violation": reward_breakdown.comfort_violation,
            "comfort_violated": float(
                occupied and not comfort.contains(result.controlled_zone_temperature)
            ),
        }
        if fault_columns is not None:
            info.update((key, float(column[0])) for key, column in fault_columns.items())
        return EnvironmentStep(
            observation=observation,
            reward=reward_breakdown.reward,
            terminated=False,
            truncated=truncated,
            info=info,
        )

    # ---------------------------------------------------------------- helpers
    def _resolve_action(self, action: Union[int, Tuple[float, float]]) -> Tuple[int, int]:
        """Accept either a discrete action index or an explicit setpoint pair."""
        if isinstance(action, (tuple, list, np.ndarray)):
            if len(action) != 2:
                raise ValueError("Setpoint actions must be (heating, cooling) pairs")
            return self.config.actions.clip(float(action[0]), float(action[1]))
        return self.action_space.to_pair(int(action))


def make_environment(
    city: Optional[str] = None,
    seed: Optional[int] = None,
    days: Optional[int] = None,
    config: Optional[ExperimentConfig] = None,
    peak_occupants: int = 24,
    season: str = "winter",
    disturbance: Optional[Union[DisturbanceSpec, str]] = None,
) -> HVACEnvironment:
    """Build the standard experiment environment for a named city.

    Uses the five-zone reference building, a synthetic weather trace for the
    city (January statistics for ``season="winter"``, July for ``"summer"``)
    and the office occupancy schedule.  When an explicit ``config`` is
    supplied it provides the defaults for ``city`` and ``seed`` and the
    ``season`` argument is ignored.
    """
    from repro.utils.config import RewardConfig, get_season

    if config is not None:
        city = config.city if city is None else city
        seed = config.seed if seed is None else seed
    city = "pittsburgh" if city is None else city
    seed = 0 if seed is None else seed
    if config is None:
        season_spec = get_season(season)
        config = ExperimentConfig(
            city=city,
            simulation=SimulationConfig(
                start_month=season_spec.start_month,
                start_day_of_year=season_spec.start_day_of_year,
            ),
            reward=RewardConfig(comfort=season_spec.comfort),
            seed=seed,
        )
    simulation = config.simulation
    if days is not None:
        simulation = SimulationConfig(
            days=days,
            minutes_per_step=config.simulation.minutes_per_step,
            start_month=config.simulation.start_month,
            start_day_of_year=config.simulation.start_day_of_year,
        )
        config = ExperimentConfig(
            city=city,
            simulation=simulation,
            actions=config.actions,
            reward=config.reward,
            seed=seed,
        )
    weather = generate_weather(city, seed=seed, days=simulation.days, simulation=simulation)
    occupancy = office_schedule(peak_occupants).generate_series(simulation, seed=seed + 1)
    building = make_five_zone_building()
    return HVACEnvironment(
        building=building,
        weather=weather,
        occupancy=occupancy,
        config=config,
        disturbance=disturbance,
    )
