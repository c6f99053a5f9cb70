"""Deterministic, seeded disturbance and fault layer for the HVAC envs.

The scenario grid is clean-weather cities × seasons × presets; every
robustness claim about the extracted tree policies needs the opposite — the
fault classes real building fleets live with (gridworks-scada's
``pico_cycler`` / ``home_alone`` fallback control, hass-ufh-controller's
sensor smoothing are built around exactly these).  This module provides them
as data:

* a :class:`DisturbanceSpec` is an immutable, composable description of one
  disturbance *profile* — sensor noise and dropout, stuck dampers, degraded
  compressor capacity, heat-pump cycling limits, occupancy surprises,
  demand-response setback events and extreme-weather perturbations;
* :meth:`DisturbanceSpec.realise` turns a profile into a per-episode
  :class:`DisturbanceSchedule` — concrete precomputed fault arrays, derived
  from the episode seed through dedicated :class:`numpy.random.SeedSequence`
  children (one stream per fault class, so enabling one fault never shifts
  another's schedule);
* the named preset registry :data:`DISTURBANCES` gives every profile a
  scenario-grid address (``"pittsburgh/winter/office/sensor_dropout"``).

Application tiers (each skipped entirely when inactive, which is what makes
a disabled or zero-magnitude profile *bit-identical* to the clean env):

1. **trace level** — extreme-weather shifts and occupancy surprises are
   applied once to copies of the weather/occupancy traces at environment
   construction (:meth:`DisturbanceSchedule.apply_to_weather` /
   :meth:`~DisturbanceSchedule.apply_to_occupancy`), so forecasts, the
   batched env's stacked disturbance matrix and every agent see them
   consistently;
2. **plant level** — compressor degradation scales the HVAC units'
   proportional gain and capacity caps in place
   (:meth:`DisturbanceSchedule.apply_to_building`); the batched plant stacks
   the same unit objects, so scalar and batched physics stay bit-identical;
3. **observation level** — Gaussian sensor noise plus dropout-and-hold on
   the reported zone temperature (the sensor repeats its last report while
   dropped), at every observation emission;
4. **action level** — demand-response setback, heat-pump minimum-cycle
   holds and stuck dampers rewrite the *applied* setpoints inside
   ``step()``; telemetry reports the applied pair and flags the overrides.

Tiers 3 and 4 run in one columnar :class:`FaultLayer`, one row per episode:
the batched environment calls it with its whole batch and the scalar one as
a batch of one, so the two cannot drift apart.

Every schedule array is precomputed at realisation, so the per-step fault
path is pure indexing — no RNG draws on the hot path, and identical
(spec, seed) pairs yield identical schedules across runs, backends and
serving topologies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.buildings.occupancy import OccupancySeries
from repro.env.spaces import SetpointSpace
from repro.weather.tmy import WeatherSeries

#: Salt mixed into the episode seed so disturbance streams never collide with
#: the weather (seed) or occupancy (seed + 1) generators.
_DISTURBANCE_SALT = 0x5EED_FA17

#: Fixed component order for the per-fault-class SeedSequence children.
_COMPONENT_STREAMS = (
    "sensor_noise",
    "sensor_dropout",
    "stuck_damper",
    "occupancy_surprise",
    "demand_response",
    "weather_event",
)


@dataclass(frozen=True)
class DisturbanceSpec:
    """One immutable disturbance profile (all magnitudes zero = clean).

    Attributes
    ----------
    name:
        Registry/display name of the profile.
    sensor_noise_std:
        Std-dev (°C) of Gaussian noise on the reported zone temperature.
    sensor_dropout_rate:
        Per-emission probability that the zone sensor drops out and repeats
        its last report.
    stuck_damper_rate, stuck_damper_steps:
        Per-step probability that the actuator sticks, and for how many
        control steps each sticking event holds the previous setpoints.
    capacity_factor:
        Multiplier on HVAC proportional gain and capacity caps (1.0 = healthy
        plant, 0.4 = badly degraded compressor).
    cycling_limit_steps:
        Heat-pump short-cycle protection: the minimum number of control steps
        the plant holds a setpoint pair before accepting a different one
        (0 disables).
    occupancy_surprise_rate, occupancy_surprise_steps, occupancy_surprise_scale:
        Per-step probability that an occupancy surprise starts, its duration,
        and the multiplier applied to the occupant count while it lasts.
    demand_response_rate, demand_response_steps, demand_response_setback_c:
        Per-step probability that a demand-response event starts, its
        duration, and how far the applied setpoints are relaxed toward the
        off pair (heating lowered, cooling raised) while it lasts.
    weather_event_rate, weather_event_steps, weather_shift_c:
        Per-step probability that an extreme-weather event starts, its
        duration, and the outdoor-temperature shift (°C) it applies
        (positive = heat wave, negative = cold snap).
    """

    name: str = "custom"
    sensor_noise_std: float = 0.0
    sensor_dropout_rate: float = 0.0
    stuck_damper_rate: float = 0.0
    stuck_damper_steps: int = 8
    capacity_factor: float = 1.0
    cycling_limit_steps: int = 0
    occupancy_surprise_rate: float = 0.0
    occupancy_surprise_steps: int = 16
    occupancy_surprise_scale: float = 2.0
    demand_response_rate: float = 0.0
    demand_response_steps: int = 8
    demand_response_setback_c: float = 2.0
    weather_event_rate: float = 0.0
    weather_event_steps: int = 96
    weather_shift_c: float = 0.0

    def __post_init__(self) -> None:
        if self.sensor_noise_std < 0:
            raise ValueError("sensor_noise_std must be non-negative")
        for rate_name in (
            "sensor_dropout_rate",
            "stuck_damper_rate",
            "occupancy_surprise_rate",
            "demand_response_rate",
            "weather_event_rate",
        ):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        for steps_name in (
            "stuck_damper_steps",
            "occupancy_surprise_steps",
            "demand_response_steps",
            "weather_event_steps",
        ):
            if getattr(self, steps_name) <= 0:
                raise ValueError(f"{steps_name} must be positive")
        if self.capacity_factor <= 0:
            raise ValueError("capacity_factor must be positive")
        if self.cycling_limit_steps < 0:
            raise ValueError("cycling_limit_steps must be non-negative")
        if self.occupancy_surprise_scale < 0:
            raise ValueError("occupancy_surprise_scale must be non-negative")
        if self.demand_response_setback_c < 0:
            raise ValueError("demand_response_setback_c must be non-negative")

    # ------------------------------------------------------------- components
    @property
    def sensor_enabled(self) -> bool:
        """Whether any sensor-side fault (noise/dropout) is configured."""
        return self.sensor_noise_std > 0 or self.sensor_dropout_rate > 0

    @property
    def actuator_enabled(self) -> bool:
        """Whether any action-side fault (stuck/cycling/DR) is configured."""
        return (
            self.stuck_damper_rate > 0
            or self.cycling_limit_steps > 0
            or (self.demand_response_rate > 0 and self.demand_response_setback_c > 0)
        )

    @property
    def trace_enabled(self) -> bool:
        """Whether any trace-level perturbation (weather/occupancy) is configured."""
        return (
            self.occupancy_surprise_rate > 0
            and self.occupancy_surprise_scale != 1.0
        ) or (self.weather_event_rate > 0 and self.weather_shift_c != 0.0)

    @property
    def enabled(self) -> bool:
        """False iff every magnitude is zero — the bit-identical clean profile."""
        return (
            self.sensor_enabled
            or self.actuator_enabled
            or self.trace_enabled
            or self.capacity_factor != 1.0
        )

    # ------------------------------------------------------------ realisation
    def realise(self, num_steps: int, seed: int) -> Optional["DisturbanceSchedule"]:
        """Materialise the per-episode fault schedule (``None`` when clean).

        Each fault class draws from its own :class:`~numpy.random.SeedSequence`
        child (fixed order, spawned regardless of which classes are active),
        so composing profiles never perturbs an individual class's schedule
        and identical ``(spec, seed)`` pairs are identical everywhere.
        """
        if not self.enabled:
            return None
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        children = np.random.SeedSequence(
            [_DISTURBANCE_SALT, int(seed)]
        ).spawn(len(_COMPONENT_STREAMS))
        rngs = {
            name: np.random.default_rng(child)
            for name, child in zip(_COMPONENT_STREAMS, children)
        }

        zone_noise: Optional[np.ndarray] = None
        if self.sensor_noise_std > 0:
            # One draw per observation emission: reset plus every step.
            zone_noise = rngs["sensor_noise"].normal(
                0.0, self.sensor_noise_std, num_steps + 1
            )

        sensor_dropped: Optional[np.ndarray] = None
        if self.sensor_dropout_rate > 0:
            sensor_dropped = (
                rngs["sensor_dropout"].random(num_steps + 1) < self.sensor_dropout_rate
            )
            sensor_dropped[0] = False  # the first report always lands

        stuck: Optional[np.ndarray] = None
        if self.stuck_damper_rate > 0:
            stuck = _event_windows(
                rngs["stuck_damper"], num_steps, self.stuck_damper_rate, self.stuck_damper_steps
            )
            if not stuck.any():
                stuck = None

        occupancy_scale: Optional[np.ndarray] = None
        if self.occupancy_surprise_rate > 0 and self.occupancy_surprise_scale != 1.0:
            windows = _event_windows(
                rngs["occupancy_surprise"],
                num_steps,
                self.occupancy_surprise_rate,
                self.occupancy_surprise_steps,
            )
            if windows.any():
                occupancy_scale = np.where(windows, self.occupancy_surprise_scale, 1.0)

        dr_active: Optional[np.ndarray] = None
        if self.demand_response_rate > 0 and self.demand_response_setback_c > 0:
            dr_active = _event_windows(
                rngs["demand_response"],
                num_steps,
                self.demand_response_rate,
                self.demand_response_steps,
            )
            if not dr_active.any():
                dr_active = None

        weather_shift: Optional[np.ndarray] = None
        if self.weather_event_rate > 0 and self.weather_shift_c != 0.0:
            windows = _event_windows(
                rngs["weather_event"],
                num_steps,
                self.weather_event_rate,
                self.weather_event_steps,
            )
            if windows.any():
                weather_shift = np.where(windows, self.weather_shift_c, 0.0)

        return DisturbanceSchedule(
            spec=self,
            num_steps=int(num_steps),
            seed=int(seed),
            zone_noise=zone_noise,
            sensor_dropped=sensor_dropped,
            stuck=stuck,
            occupancy_scale=occupancy_scale,
            dr_active=dr_active,
            weather_shift=weather_shift,
        )

    def active_components(self) -> List[str]:
        """Names of the fault components this profile actually configures."""
        components = []
        if self.sensor_noise_std > 0:
            components.append("sensor_noise")
        if self.sensor_dropout_rate > 0:
            components.append("sensor_dropout")
        if self.stuck_damper_rate > 0:
            components.append("stuck_damper")
        if self.capacity_factor != 1.0:
            components.append("capacity")
        if self.cycling_limit_steps > 0:
            components.append("cycling_limit")
        if self.occupancy_surprise_rate > 0 and self.occupancy_surprise_scale != 1.0:
            components.append("occupancy_surprise")
        if self.demand_response_rate > 0 and self.demand_response_setback_c > 0:
            components.append("demand_response")
        if self.weather_event_rate > 0 and self.weather_shift_c != 0.0:
            components.append("weather_event")
        return components

    def to_dict(self) -> Dict[str, Union[str, float, int]]:
        """Plain-dict view (JSON reports, bench metadata)."""
        return dataclasses.asdict(self)


def _event_windows(
    rng: np.random.Generator, num_steps: int, rate: float, duration: int
) -> np.ndarray:
    """Boolean activity mask: each Bernoulli(rate) start opens a window."""
    starts = rng.random(num_steps) < rate
    active = np.zeros(num_steps, dtype=bool)
    for start in np.flatnonzero(starts):
        active[start : start + duration] = True
    return active


@dataclass
class DisturbanceSchedule:
    """The realised fault arrays of one episode (see :class:`DisturbanceSpec`).

    ``zone_noise``/``sensor_dropped`` have ``num_steps + 1`` entries — one per
    observation emission (reset plus every step); the per-step masks have
    ``num_steps``.  A component that realised to "no events this episode" is
    ``None``, which keeps its application tier on the zero-cost clean path.
    """

    spec: DisturbanceSpec
    num_steps: int
    seed: int
    zone_noise: Optional[np.ndarray] = None
    sensor_dropped: Optional[np.ndarray] = None
    stuck: Optional[np.ndarray] = None
    occupancy_scale: Optional[np.ndarray] = None
    dr_active: Optional[np.ndarray] = None
    weather_shift: Optional[np.ndarray] = None

    # --------------------------------------------------------------- activity
    @property
    def action_active(self) -> bool:
        """Whether this episode has action-level faults to apply."""
        return (
            self.stuck is not None
            or self.dr_active is not None
            or self.spec.cycling_limit_steps > 0
        )

    # ------------------------------------------------------ trace application
    def apply_to_weather(self, weather: WeatherSeries) -> WeatherSeries:
        """Weather trace with the extreme-weather shift applied (or unchanged)."""
        if self.weather_shift is None:
            return weather
        if len(weather) != self.num_steps:
            raise ValueError(
                f"Schedule covers {self.num_steps} steps but the weather trace "
                f"has {len(weather)}"
            )
        return WeatherSeries(
            city=weather.city,
            minutes_per_step=weather.minutes_per_step,
            outdoor_temperature=weather.outdoor_temperature + self.weather_shift,
            relative_humidity=weather.relative_humidity.copy(),
            wind_speed=weather.wind_speed.copy(),
            solar_radiation=weather.solar_radiation.copy(),
            hour_of_day=weather.hour_of_day.copy(),
            day_of_year=weather.day_of_year.copy(),
        )

    def apply_to_occupancy(self, occupancy: OccupancySeries) -> OccupancySeries:
        """Occupancy trace with surprise multipliers applied (or unchanged).

        Surprises scale the occupant *count* (internal gains, Table-1
        observation); the occupied/unoccupied reward flag keeps the planned
        schedule — the surprise is people the controller did not plan for.
        """
        if self.occupancy_scale is None:
            return occupancy
        if len(occupancy) != self.num_steps:
            raise ValueError(
                f"Schedule covers {self.num_steps} steps but the occupancy trace "
                f"has {len(occupancy)}"
            )
        return OccupancySeries(
            counts=occupancy.counts * self.occupancy_scale,
            occupied=occupancy.occupied.copy(),
            minutes_per_step=occupancy.minutes_per_step,
        )

    def apply_to_building(self, building) -> None:
        """Degrade the HVAC plant in place (no-op at capacity factor 1.0).

        Scales every unit's proportional gain and capacity caps; the batched
        plant stacks the same :class:`~repro.buildings.hvac.HVACUnit`
        objects, so scalar and batched physics inherit the degradation
        identically.
        """
        factor = self.spec.capacity_factor
        if factor == 1.0:
            return
        for unit in building.hvac_units.values():
            unit.proportional_gain_w_per_k = unit.proportional_gain_w_per_k * factor
            unit.zone = dataclasses.replace(
                unit.zone,
                max_heating_power_w=unit.zone.max_heating_power_w * factor,
                max_cooling_power_w=unit.zone.max_cooling_power_w * factor,
            )


class FaultLayer:
    """Tiers 3 and 4 of the fault model, columnar: one row per episode.

    :class:`~repro.env.vector_env.BatchedHVACEnvironment` calls it with its
    batch and :class:`~repro.env.hvac_env.HVACEnvironment` with a batch of
    one; no other code applies these tiers.  :meth:`build` returns ``None``
    when every episode is clean, so a clean environment pays one ``is None``
    check per hot path.

    * :meth:`report` (tier 3) runs once per observation emission, indexed 0
      at reset and ``t + 1`` after step ``t`` (hence the ``num_steps + 1``
      sensor entries of a schedule).
    * :meth:`apply` (tier 4) runs once per control step ``t``:
      demand-response setback, then the cycling hold, then stuck dampers.

    A row without a tier's fault (a ``None`` schedule is a clean row) passes
    through that tier bit for bit, via the false branch of ``np.where``.
    """

    def __init__(
        self, schedules: Sequence[Optional[DisturbanceSchedule]], space: SetpointSpace
    ):
        faulted = [s for s in schedules if s is not None]
        if not faulted:
            raise ValueError("A fault layer needs at least one faulted episode")
        if any(s.num_steps != faulted[0].num_steps for s in faulted):
            raise ValueError(
                "All disturbance schedules in a batch must cover the episode length"
            )
        self.batch_size = len(schedules)
        self.space = space

        def stack(field: str) -> Optional[np.ndarray]:
            rows = [None if s is None else getattr(s, field) for s in schedules]
            template = next((row for row in rows if row is not None), None)
            if template is None:
                return None
            return np.stack([np.zeros_like(template) if r is None else r for r in rows])

        self._noise = stack("zone_noise")
        self._noise_rows = np.array(
            [s is not None and s.zone_noise is not None for s in schedules]
        )
        self._dropped = stack("sensor_dropped")
        self._stuck = stack("stuck")
        self._dr = stack("dr_active")
        self._setback = np.array(
            [0.0 if s is None else s.spec.demand_response_setback_c for s in schedules]
        )
        self._cycle_limit = np.array(
            [0 if s is None else s.spec.cycling_limit_steps for s in schedules]
        )
        self._action_faults = any(s.action_active for s in faulted)
        self.reset()

    @classmethod
    def build(
        cls, schedules: Sequence[Optional[DisturbanceSchedule]], space: SetpointSpace
    ) -> Optional["FaultLayer"]:
        """The layer over ``schedules``, or ``None`` when every episode is clean."""
        if all(s is None for s in schedules):
            return None
        return cls(schedules, space)

    def reset(self) -> None:
        """Forget the last report and the last applied pair (episode start)."""
        self._reported: Optional[np.ndarray] = None
        self._last: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._since = np.zeros(self.batch_size, dtype=np.int64)

    def report(self, zone: np.ndarray, emission: int) -> np.ndarray:
        """Tier 3: the sensors' ``(B,)`` report of the true zone temperatures.

        Noise is added first; a dropped emission then repeats the previous
        report, except for the first report after :meth:`reset`, which always
        lands.  Repeated calls at one emission return the same report.
        """
        if self._noise is not None:
            zone = np.where(self._noise_rows, zone + self._noise[:, emission], zone)
        if self._dropped is not None:
            if self._reported is not None:
                zone = np.where(self._dropped[:, emission], self._reported, zone)
            self._reported = zone.copy()
        return zone

    def apply(
        self, heating: np.ndarray, cooling: np.ndarray, step: int
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
        """Tier 4: the applied ``(B,)`` setpoints for the commanded ones, and telemetry.

        A demand-response event relaxes the pair by ``demand_response_setback_c``
        (heating down, cooling up) onto the table
        (:meth:`SetpointSpace.clip_arrays`).  The cycling hold then keeps the
        last applied pair while it has stood unchanged for fewer than
        ``cycling_limit_steps`` steps, and a stuck damper keeps it regardless.
        The telemetry columns are ``sensor_dropped``, ``actuator_stuck``
        (either hold) and ``demand_response``, as floats, in that order.
        """
        zeros = np.zeros(self.batch_size)
        columns = {
            "sensor_dropped": (
                zeros if self._dropped is None else self._dropped[:, step].astype(float)
            ),
            "actuator_stuck": zeros,
            "demand_response": zeros,
        }
        if not self._action_faults:
            return heating, cooling, columns
        if self._dr is not None:
            dr = self._dr[:, step]
            columns["demand_response"] = dr.astype(float)
            if dr.any():
                relaxed_h, relaxed_c = self.space.clip_arrays(
                    heating - self._setback, cooling + self._setback
                )
                heating = np.where(dr, relaxed_h, heating)
                cooling = np.where(dr, relaxed_c, cooling)
        if self._last is not None:
            last_h, last_c = self._last
            changed = (heating != last_h) | (cooling != last_c)
            held = changed & (self._since < self._cycle_limit)
            if self._stuck is not None:
                held |= self._stuck[:, step]
            heating = np.where(held, last_h, heating)
            cooling = np.where(held, last_c, cooling)
            self._since = np.where(changed & ~held, 0, self._since + 1)
            columns["actuator_stuck"] = held.astype(float)
        self._last = (heating.astype(float), cooling.astype(float))
        return heating, cooling, columns


#: Named disturbance presets — the fault classes of the robustness matrix.
DISTURBANCES: Dict[str, DisturbanceSpec] = {
    "clean": DisturbanceSpec(name="clean"),
    "sensor_noise": DisturbanceSpec(name="sensor_noise", sensor_noise_std=0.5),
    "sensor_dropout": DisturbanceSpec(name="sensor_dropout", sensor_dropout_rate=0.15),
    "stuck_damper": DisturbanceSpec(
        name="stuck_damper", stuck_damper_rate=0.02, stuck_damper_steps=8
    ),
    "weak_hvac": DisturbanceSpec(name="weak_hvac", capacity_factor=0.4),
    "short_cycle": DisturbanceSpec(name="short_cycle", cycling_limit_steps=4),
    "occupancy_surprise": DisturbanceSpec(
        name="occupancy_surprise",
        occupancy_surprise_rate=0.01,
        occupancy_surprise_steps=16,
        occupancy_surprise_scale=2.5,
    ),
    "demand_response": DisturbanceSpec(
        name="demand_response",
        demand_response_rate=0.02,
        demand_response_steps=8,
        demand_response_setback_c=2.0,
    ),
    "heat_wave": DisturbanceSpec(
        name="heat_wave", weather_event_rate=0.01, weather_event_steps=96, weather_shift_c=8.0
    ),
    "cold_snap": DisturbanceSpec(
        name="cold_snap", weather_event_rate=0.01, weather_event_steps=96, weather_shift_c=-8.0
    ),
    "rough_day": DisturbanceSpec(
        name="rough_day",
        sensor_noise_std=0.3,
        sensor_dropout_rate=0.05,
        stuck_damper_rate=0.01,
        stuck_damper_steps=8,
        capacity_factor=0.7,
        demand_response_rate=0.01,
        demand_response_steps=8,
        demand_response_setback_c=2.0,
    ),
}


def available_disturbances() -> List[str]:
    """Names of the registered disturbance presets."""
    return list(DISTURBANCES)


def get_disturbance(profile: Union[str, DisturbanceSpec]) -> DisturbanceSpec:
    """Look up a preset by name (specs pass through unchanged)."""
    if isinstance(profile, DisturbanceSpec):
        return profile
    if profile not in DISTURBANCES:
        raise ValueError(
            f"Unknown disturbance profile {profile!r}. "
            f"Available: {', '.join(sorted(DISTURBANCES))}"
        )
    return DISTURBANCES[profile]
