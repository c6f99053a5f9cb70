"""Vectorised batch HVAC environment.

:class:`BatchedHVACEnvironment` steps ``B`` episodes per call: zone
temperatures live in one ``(B, n_zones)`` array, the HVAC plant of every
building is evaluated with one set of array ops
(:class:`~repro.buildings.hvac.BatchedHVACPlant`) and the RC networks advance
through one fused Euler loop (:meth:`~repro.buildings.thermal.ThermalNetwork.step_batch`).

Episodes may differ in weather, occupancy and seeds; they must share the
episode length, the control/substep resolution and the building's thermal
topology (the standard scenario grid satisfies all of this — every episode is
the same five-zone building under a different disturbance trace).

Equivalence guarantee: every array op mirrors the scalar
:class:`~repro.env.hvac_env.HVACEnvironment` step arithmetic element-wise, in
the same order, and the thermal kernel and the sensor/action fault layer
(:class:`~repro.env.disturbances.FaultLayer`) are literally shared with the
scalar path — so batched trajectories are bit-identical to stepping each
episode alone.  The equivalence test-suite (`tests/test_batch_equivalence.py`) locks
this in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.buildings.hvac import BatchedHVACPlant
from repro.buildings.thermal import OCCUPANT_GAIN_W
from repro.buildings.zones import distinct_rows, zone_operand
from repro.data import ActionBatch, InfoBatch, ObservationBatch
from repro.env.disturbances import FaultLayer
from repro.env.hvac_env import HVACEnvironment


@dataclass
class BatchedEnvironmentStep:
    """The result of stepping every episode of the batch once.

    ``observations`` is a columnar :class:`~repro.data.ObservationBatch` and
    ``info`` an :class:`~repro.data.InfoBatch` — one typed ``(B,)`` column per
    scalar info key of the serial environment (plus the scalar ``step``) —
    keeping the hot path free of per-episode dict construction.  Both support
    the legacy protocols (``np.asarray``, row indexing, ``info["key"]``), so
    existing consumers keep working unchanged.
    """

    observations: ObservationBatch
    rewards: np.ndarray
    terminated: bool
    truncated: bool
    info: InfoBatch

    def episode_info(self, index: int) -> Dict[str, float]:
        """Materialise the serial-style info dict of one episode (diagnostics)."""
        return self.info.episode_info(index)


def _stacked_disturbances(environment: HVACEnvironment) -> np.ndarray:
    """The full ``(T, 5)`` disturbance matrix of one episode."""
    weather = environment.weather
    return np.column_stack(
        [
            weather.outdoor_temperature,
            weather.relative_humidity,
            weather.wind_speed,
            weather.solar_radiation,
            environment.occupancy.counts,
        ]
    )


class BatchedHVACEnvironment:
    """``B`` HVAC episodes stepped together through shared array kernels."""

    def __init__(self, environments: Sequence[HVACEnvironment]):
        if not environments:
            raise ValueError("At least one environment is required")
        self.environments: List[HVACEnvironment] = list(environments)
        first = self.environments[0]
        self.num_steps = first.num_steps
        self.step_duration_seconds = first.step_duration_seconds
        # A tiled batch (a fleet group) repeats a few environment objects over
        # many rows: each per-episode array is built once per distinct object
        # and gathered to the rows with one take.
        distinct, rows = distinct_rows(self.environments)
        self._validate_batch(first, distinct)

        buildings = [env.building for env in self.environments]
        self.network = buildings[0].network
        self.hvac_substep_seconds = buildings[0].hvac_substep_seconds
        self.plant = BatchedHVACPlant(
            [b.hvac_units for b in buildings], self.network.zone_names
        )
        self._controlled_index = self.network.zone_index(buildings[0].controlled_zone)

        zones = buildings[0].zones
        total_area = sum(z.floor_area_m2 for z in zones)
        self._window_area = np.array([z.window_area_m2 for z in zones])
        self._shgc = np.array([z.solar_heat_gain_coefficient for z in zones])
        self._equipment_gain = np.array([z.equipment_gain_w for z in zones])
        self._area_share = np.array([z.floor_area_m2 / total_area for z in zones])

        # Per-episode disturbance/occupancy traces, stacked once up front.
        self._disturbances = np.stack([_stacked_disturbances(e) for e in distinct])[rows]
        self._occupied = np.stack(
            [np.asarray(e.occupancy.occupied, dtype=bool) for e in distinct]
        )[rows]
        self._hours = np.stack(
            [np.asarray(e.weather.hour_of_day, dtype=float) for e in distinct]
        )[rows]
        self._initial_temperature = np.array(
            [e.initial_zone_temperature for e in distinct]
        )[rows]

        # Per-episode reward/action parameters (identical under one scenario,
        # but cheap to keep per-row).
        self._comfort_lower = np.array([e.config.reward.comfort.lower for e in distinct])[rows]
        self._comfort_upper = np.array([e.config.reward.comfort.upper for e in distinct])[rows]
        self._w_occupied = np.array(
            [e.config.reward.weight_energy_occupied for e in distinct]
        )[rows]
        self._w_unoccupied = np.array(
            [e.config.reward.weight_energy_unoccupied for e in distinct]
        )[rows]
        off = np.array([e.config.actions.off_setpoints() for e in distinct], dtype=float)[rows]
        self._off_heating = off[:, 0]
        self._off_cooling = off[:, 1]
        self._pairs = np.array(first.action_space.pairs, dtype=float)

        self._step_index = 0
        self._temperatures = np.full(
            (self.batch_size, len(zones)), 20.0, dtype=float
        )
        # Trace-level faults and plant degradation were applied when each
        # scalar environment was built; tiers 3-4 run here, one row per episode.
        self._faults = FaultLayer.build(
            [env.disturbance for env in self.environments], first.action_space
        )

    # ------------------------------------------------------------- validation
    def _validate_batch(
        self, first: HVACEnvironment, distinct: Sequence[HVACEnvironment]
    ) -> None:
        # Checking each distinct object once is complete: a repeated object
        # cannot fail where its first occurrence passed.
        reference = first.building.network

        def gain_parameters(building) -> list:
            # Everything the gain computation reads from buildings[0] only.
            return [
                (
                    z.window_area_m2,
                    z.solar_heat_gain_coefficient,
                    z.equipment_gain_w,
                    z.floor_area_m2,
                )
                for z in building.zones
            ]

        for env in distinct:
            if env.num_steps != self.num_steps:
                raise ValueError("All episodes in a batch must have the same length")
            if env.step_duration_seconds != self.step_duration_seconds:
                raise ValueError("All episodes must share the control-step duration")
            network = env.building.network
            if network.zone_names != reference.zone_names:
                raise ValueError("All buildings in a batch must share the zone layout")
            if env.building.controlled_zone != first.building.controlled_zone:
                raise ValueError("All buildings in a batch must share the controlled zone")
            if env.building.hvac_substep_seconds != first.building.hvac_substep_seconds:
                raise ValueError("All buildings must share hvac_substep_seconds")
            for attr in ("_capacitance", "_envelope_ua", "_infiltration_per_wind", "_coupling_matrix"):
                if not np.array_equal(getattr(network, attr), getattr(reference, attr)):
                    raise ValueError(
                        "All buildings in a batch must share thermal parameters "
                        f"(mismatch in {attr.lstrip('_')})"
                    )
            if gain_parameters(env.building) != gain_parameters(first.building):
                raise ValueError(
                    "All buildings in a batch must share solar/internal gain parameters"
                )
            if network.substep_seconds != reference.substep_seconds:
                raise ValueError("All buildings must share the thermal sub-step")
            if env.action_space.pairs != first.action_space.pairs:
                raise ValueError("All episodes must share the action space")

    # -------------------------------------------------------------- properties
    @property
    def batch_size(self) -> int:
        """Number of episodes ``B`` stepped together."""
        return len(self.environments)

    @property
    def step_index(self) -> int:
        """Index of the next control step, shared by every episode."""
        return self._step_index

    @property
    def zone_temperatures(self) -> np.ndarray:
        """Current ``(B, n_zones)`` zone temperatures."""
        return self._temperatures.copy()

    @property
    def controlled_zone_temperatures(self) -> np.ndarray:
        """Current true ``(B,)`` temperatures of the controlled zone (a copy)."""
        return self._temperatures[:, self._controlled_index].copy()

    def observations(self) -> ObservationBatch:
        """Stacked ``(B, 6)`` Table-1 observation vectors, columnar."""
        disturbance = self._disturbances[:, self._step_index % self.num_steps, :]
        zone = self._temperatures[:, self._controlled_index]
        if self._faults is not None:
            zone = self._faults.report(zone, self._step_index)
        return ObservationBatch(np.column_stack([zone, disturbance]))

    # ------------------------------------------------------------------ reset
    def reset(self) -> Tuple[ObservationBatch, InfoBatch]:
        """Reset every episode to its initial state."""
        self._step_index = 0
        self._temperatures = np.repeat(
            self._initial_temperature[:, np.newaxis], self._temperatures.shape[1], axis=1
        )
        if self._faults is not None:
            self._faults.reset()
        info = InfoBatch(
            step=0,
            hour_of_day=self._hours[:, 0].copy(),
            occupied=self._occupied[:, 0].astype(float),
        )
        return self.observations(), info

    # ------------------------------------------------------------------- step
    def step(
        self, actions: Union[ActionBatch, np.ndarray, Sequence]
    ) -> BatchedEnvironmentStep:
        """Apply one setpoint action per episode and advance every plant.

        ``actions`` is ideally a columnar :class:`~repro.data.ActionBatch`
        (the agents' batched fast paths produce one); a plain ``(B,)`` index
        array or ``(B, 2)`` setpoint array keeps working.
        """
        step = self._step_index
        if step >= self.num_steps:
            raise RuntimeError("Episodes are over; call reset() before stepping again")
        heating, cooling = self._resolve_actions(actions)
        fault_columns: Dict[str, np.ndarray] = {}
        if self._faults is not None:
            heating, cooling, fault_columns = self._faults.apply(heating, cooling, step)

        disturbance = self._disturbances[:, step, :]
        occupied = self._occupied[:, step]
        outdoor = disturbance[:, 0]
        wind = disturbance[:, 2]
        solar = disturbance[:, 3]
        occupants = disturbance[:, 4]

        # Constant within the control step, exactly as in the scalar building.
        solar_gain = (np.maximum(solar, 0.0)[:, np.newaxis] * self._window_area) * self._shgc
        internal_gain = (OCCUPANT_GAIN_W * occupants[:, np.newaxis]) * self._area_share + np.where(
            occupied[:, np.newaxis], self._equipment_gain, 0.1 * self._equipment_gain
        )
        # The per-building columns, repeated across the zones once per control
        # step, so every kernel op of the sub-steps runs on same-shape operands.
        temps = self._temperatures
        shape = temps.shape
        heating_zones = zone_operand("heating", heating, shape)
        cooling_zones = zone_operand("cooling", cooling, shape)
        occupied_zones = zone_operand("occupied", occupied, shape, dtype=bool)
        outdoor_zones = zone_operand("outdoor", outdoor, shape)
        wind_zones = zone_operand("wind", wind, shape)

        # Per sub-step, each zone's electric, heating and cooling energy (J)
        # lands in one block; the meters add it zone by zone, which matches the
        # scalar building's summation order bit for bit.
        meters = np.zeros((3, shape[0]), dtype=np.float64)
        terms = np.empty((3,) + shape, dtype=np.float64)
        zone_thermal = np.empty(shape, dtype=np.float64)
        gains = np.empty(shape, dtype=np.float64)
        remaining = self.step_duration_seconds
        while remaining > 1e-9:
            interval = min(self.hvac_substep_seconds, remaining)
            hvac = self.plant.evaluate(temps, heating_zones, cooling_zones, occupied_zones)
            np.add(hvac.thermal_power_w, solar_gain, out=gains)
            np.add(gains, internal_gain, out=gains)
            np.multiply(hvac.electric_power_w, interval, out=terms[0])
            np.abs(hvac.thermal_power_w, out=zone_thermal)
            np.multiply(zone_thermal, interval, out=zone_thermal)
            terms[1:] = 0.0
            np.copyto(terms[1], zone_thermal, where=hvac.heating_mask)
            np.copyto(terms[2], zone_thermal, where=hvac.cooling_mask)
            for z in range(shape[1]):
                meters += terms[:, :, z]
            temps = self.network.step_batch(temps, outdoor_zones, wind_zones, gains, interval)
            remaining -= interval
        self._temperatures = temps
        electric_kwh, heating_kwh, cooling_kwh = meters * (1.0 / 3.6e6)

        zone_temperature = temps[:, self._controlled_index]
        rewards, energy_proxy, comfort_violation, w_e = self._compute_rewards(
            zone_temperature, heating, cooling, occupied
        )

        self._step_index += 1
        truncated = self._step_index >= self.num_steps
        obs_step = self._step_index if not truncated else self._step_index - 1
        zone_observed = zone_temperature
        if self._faults is not None:
            zone_observed = self._faults.report(zone_temperature, self._step_index)
        observation = ObservationBatch(
            np.column_stack([zone_observed, self._disturbances[:, obs_step, :]])
        )

        comfort_ok = (self._comfort_lower <= zone_temperature) & (
            zone_temperature <= self._comfort_upper
        )
        info = InfoBatch(
            step=step,
            hour_of_day=self._hours[:, step].copy(),
            occupied=occupied.astype(float),
            heating_setpoint=heating.astype(float),
            cooling_setpoint=cooling.astype(float),
            zone_temperature=zone_temperature.copy(),
            hvac_electric_energy_kwh=electric_kwh,
            heating_energy_kwh=heating_kwh,
            cooling_energy_kwh=cooling_kwh,
            energy_proxy=energy_proxy,
            comfort_violation=comfort_violation,
            comfort_violated=(occupied & ~comfort_ok).astype(float),
            **fault_columns,
        )
        return BatchedEnvironmentStep(
            observations=observation,
            rewards=rewards,
            terminated=False,
            truncated=truncated,
            info=info,
        )

    # ---------------------------------------------------------------- helpers
    def _resolve_actions(
        self, actions: Union[ActionBatch, np.ndarray, Sequence]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Map per-episode actions to (heating, cooling) setpoint arrays."""
        if isinstance(actions, ActionBatch):
            # Columnar batches resolve through their index column — any
            # attached setpoint columns are informational here, because only
            # the index path applies the validation/clipping the serial
            # reference environment guarantees.
            actions = actions.indices
        actions = np.asarray(actions)
        if actions.ndim == 1 and np.issubdtype(actions.dtype, np.integer):
            if len(actions) != self.batch_size:
                raise ValueError(f"Expected {self.batch_size} actions, got {len(actions)}")
            if actions.min() < 0 or actions.max() >= len(self._pairs):
                raise IndexError("Action index outside the setpoint table")
            pairs = self._pairs[actions]
            return pairs[:, 0], pairs[:, 1]
        if actions.ndim == 2 and actions.shape == (self.batch_size, 2):
            resolved = np.array(
                [
                    env._resolve_action((float(a[0]), float(a[1])))
                    for env, a in zip(self.environments, actions)
                ],
                dtype=float,
            )
            return resolved[:, 0], resolved[:, 1]
        raise ValueError(
            "actions must be a (B,) integer index array or a (B, 2) setpoint array"
        )

    def _compute_rewards(
        self,
        zone_temperature: np.ndarray,
        heating: np.ndarray,
        cooling: np.ndarray,
        occupied: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised Eq. 2, mirroring :func:`repro.env.reward.compute_reward`."""
        w_e = np.where(occupied, self._w_occupied, self._w_unoccupied)
        energy_proxy = np.abs(heating - self._off_heating) + np.abs(cooling - self._off_cooling)
        above = np.maximum(zone_temperature - self._comfort_upper, 0.0)
        below = np.maximum(self._comfort_lower - zone_temperature, 0.0)
        violation = above + below
        energy_term = -w_e * energy_proxy
        comfort_term = -(1.0 - w_e) * violation
        return energy_term + comfort_term, energy_proxy, violation, w_e
