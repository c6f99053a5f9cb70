"""The complete simulated building: thermal network + HVAC units + gains.

:class:`Building` is the plant the environment steps.  One control step applies
a single (heating, cooling) setpoint pair to every zone's HVAC unit — matching
the Sinergym 5-zone environment the paper uses — integrates the RC network over
the control interval and meters the total HVAC electric energy.

The "controlled zone" designates which zone's temperature is exposed as the MDP
state ``s_t`` (the paper's state is the temperature of the controlled thermal
zone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.buildings.hvac import HVACUnit, check_setpoints
from repro.buildings.thermal import (
    ThermalNetwork,
    ThermalState,
    internal_gain_for_zone,
    solar_gain_for_zone,
)
from repro.buildings.zones import (
    InterZoneCoupling,
    ZoneParameters,
    five_zone_layout,
    total_floor_area,
)


@dataclass
class BuildingStepResult:
    """Everything produced by one control step of the building."""

    zone_temperatures: Dict[str, float]
    controlled_zone_temperature: float
    hvac_electric_energy_kwh: float
    hvac_thermal_energy_kwh: float
    heating_energy_kwh: float
    cooling_energy_kwh: float
    zone_modes: Dict[str, str]


class Building:
    """A multi-zone building with per-zone HVAC units."""

    def __init__(
        self,
        zones: Sequence[ZoneParameters],
        couplings: Sequence[InterZoneCoupling],
        controlled_zone: str,
        hvac_units: Optional[Dict[str, HVACUnit]] = None,
        hvac_substep_seconds: float = 180.0,
    ):
        self.network = ThermalNetwork(zones, couplings)
        if controlled_zone not in self.network.zone_names:
            raise KeyError(f"Controlled zone {controlled_zone!r} is not a zone of the building")
        self.controlled_zone = controlled_zone
        self.zones = list(zones)
        self.hvac_units = hvac_units or {z.name: HVACUnit(z) for z in self.zones}
        missing = set(self.network.zone_names) - set(self.hvac_units)
        if missing:
            raise ValueError(f"Missing HVAC units for zones: {sorted(missing)}")
        if hvac_substep_seconds <= 0:
            raise ValueError("hvac_substep_seconds must be positive")
        self.hvac_substep_seconds = float(hvac_substep_seconds)
        self._total_area = total_floor_area(self.zones)
        self._state = self.network.initial_state(20.0)

    # ------------------------------------------------------------------ state
    @property
    def state(self) -> ThermalState:
        """The current thermal state (zone temperatures in network order)."""
        return self._state

    @property
    def zone_temperatures(self) -> Dict[str, float]:
        """Zone name to current temperature (degrees C), in network order."""
        return dict(zip(self.network.zone_names, self._state.temperatures.tolist()))

    @property
    def controlled_zone_temperature(self) -> float:
        """Current temperature of the controlled zone (the MDP state ``s_t``)."""
        return float(self._state.temperatures[self.network.zone_index(self.controlled_zone)])

    def reset(self, initial_temperature_c: float = 20.0, jitter_std: float = 0.0,
              rng: Optional[np.random.Generator] = None) -> Dict[str, float]:
        """Reset zone temperatures; optional per-zone Gaussian jitter drawn from ``rng``.

        Raises ``ValueError`` when ``jitter_std > 0`` comes without ``rng``.
        """
        if jitter_std > 0.0 and rng is None:
            raise ValueError("jitter_std > 0 needs an rng to draw the jitter from")
        self._state = self.network.initial_state(initial_temperature_c)
        if jitter_std > 0.0:
            self._state.temperatures += rng.normal(0.0, jitter_std, size=len(self._state))
        return self.zone_temperatures

    # ------------------------------------------------------------------- step
    def step(
        self,
        heating_setpoint_c: float,
        cooling_setpoint_c: float,
        outdoor_temperature_c: float,
        wind_speed_ms: float,
        solar_radiation_w_m2: float,
        occupant_count: float,
        occupied: bool,
        duration_seconds: float,
    ) -> BuildingStepResult:
        """Advance the building by one control step under constant conditions.

        The HVAC thermal output is re-evaluated on a sub-interval grid
        (``hvac_substep_seconds``) so the thermostat reacts as the zone
        temperature moves within the control step, which mirrors how a real
        terminal unit modulates between 15-minute control decisions.  A
        heating setpoint above the cooling setpoint raises ``ValueError``
        before the state changes.

        Exactness contract: every field of the result is bit-identical to a
        per-zone evaluation through :meth:`HVACUnit.evaluate` and
        :class:`ZoneGains`, and to the batched environment's plant.  Each zone's
        gain is ``(hvac + solar) + internal``; solar and internal gains are
        computed once per control step because they are constant over it,
        which changes no bit; the energy meters sum zone by zone, then sub-step
        by sub-step; and no product or quotient is folded or precomputed.
        """
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        check_setpoints(heating_setpoint_c, cooling_setpoint_c)

        # Zones are in network order (both come from the constructor's list).
        per_zone = [
            (
                self.hvac_units[zone.name],
                solar_gain_for_zone(zone, solar_radiation_w_m2),
                internal_gain_for_zone(
                    zone, occupant_count, occupied, zone.floor_area_m2 / self._total_area
                ),
            )
            for zone in self.zones
        ]
        electric_energy_j = 0.0
        thermal_energy_j = 0.0
        heating_energy_j = 0.0
        cooling_energy_j = 0.0
        modes: List[str] = []

        remaining = float(duration_seconds)
        while remaining > 1e-9:
            interval = min(self.hvac_substep_seconds, remaining)
            gains: List[float] = []
            modes = []
            for (unit, solar_w, internal_w), temperature in zip(
                per_zone, self._state.temperatures.tolist()
            ):
                thermal_w, electric_w, mode = unit.power(
                    temperature, heating_setpoint_c, cooling_setpoint_c, occupied
                )
                gains.append(thermal_w + solar_w + internal_w)
                electric_energy_j += electric_w * interval
                zone_thermal_j = abs(thermal_w) * interval
                thermal_energy_j += zone_thermal_j
                if mode == "heating":
                    heating_energy_j += zone_thermal_j
                elif mode == "cooling":
                    cooling_energy_j += zone_thermal_j
                modes.append(mode)

            self._state = self.network.step(
                self._state,
                outdoor_temperature_c=outdoor_temperature_c,
                wind_speed_ms=wind_speed_ms,
                gains=gains,
                duration_seconds=interval,
            )
            remaining -= interval

        joules_to_kwh = 1.0 / 3.6e6
        return BuildingStepResult(
            zone_temperatures=self.zone_temperatures,
            controlled_zone_temperature=self.controlled_zone_temperature,
            hvac_electric_energy_kwh=electric_energy_j * joules_to_kwh,
            hvac_thermal_energy_kwh=thermal_energy_j * joules_to_kwh,
            heating_energy_kwh=heating_energy_j * joules_to_kwh,
            cooling_energy_kwh=cooling_energy_j * joules_to_kwh,
            zone_modes={zone.name: mode for zone, mode in zip(self.zones, modes)},
        )


def make_five_zone_building(hvac_substep_seconds: float = 180.0) -> Building:
    """Construct the 463 m^2 five-zone reference building used in the paper."""
    zones, couplings, controlled = five_zone_layout()
    return Building(
        zones=zones,
        couplings=couplings,
        controlled_zone=controlled,
        hvac_substep_seconds=hvac_substep_seconds,
    )
