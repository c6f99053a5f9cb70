"""Idealised setpoint-tracking HVAC terminal unit with an energy meter.

Each zone has one unit.  Given the current zone temperature and the
heating/cooling setpoints selected by the controller, the unit behaves like a
proportional thermostat with finite capacity:

* if the zone is colder than ``heating_setpoint`` it delivers heating power
  proportional to the deficit (capped at the heating capacity),
* if the zone is warmer than ``cooling_setpoint`` it removes heat likewise,
* in between it idles apart from a small fan/parasitic draw while occupied.

Electric energy is metered through a COP per mode (heat-pump style), which is
how the kWh figures in the Fig. 4 reproduction are produced.  The reward
function (Eq. 2) does *not* use this meter — it uses the paper's setpoint-based
proxy — but the evaluation reports real metered energy, as EnergyPlus does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.buildings.zones import ZoneParameters, distinct_rows, zone_operand


@dataclass(frozen=True)
class HVACResult:
    """Outcome of one HVAC evaluation for one zone over one sub-step."""

    thermal_power_w: float
    electric_power_w: float
    mode: str  # "heating", "cooling" or "idle"

    def __post_init__(self) -> None:
        if self.mode not in ("heating", "cooling", "idle"):
            raise ValueError(f"Unknown HVAC mode {self.mode!r}")


class HVACUnit:
    """Proportional setpoint-tracking HVAC unit for one zone."""

    def __init__(
        self,
        zone: ZoneParameters,
        heating_cop: float = 3.2,
        cooling_cop: float = 3.4,
        proportional_gain_w_per_k: float = 2500.0,
        deadband_k: float = 0.1,
        parasitic_power_w: float = 25.0,
    ):
        if heating_cop <= 0 or cooling_cop <= 0:
            raise ValueError("COPs must be positive")
        if proportional_gain_w_per_k <= 0:
            raise ValueError("proportional_gain_w_per_k must be positive")
        self.zone = zone
        self.heating_cop = heating_cop
        self.cooling_cop = cooling_cop
        self.proportional_gain_w_per_k = proportional_gain_w_per_k
        self.deadband_k = deadband_k
        self.parasitic_power_w = parasitic_power_w

    def power(
        self,
        zone_temperature_c: float,
        heating_setpoint_c: float,
        cooling_setpoint_c: float,
        occupied: bool = True,
    ) -> Tuple[float, float, str]:
        """``(thermal_w, electric_w, mode)`` of the unit, as plain floats and a mode name.

        The arithmetic of :meth:`evaluate` without the setpoint check or the
        result object: callers that evaluate many units under one setpoint
        pair (:meth:`repro.buildings.building.Building.step`) check the pair
        once with :func:`check_setpoints` instead.
        """
        heating_error = heating_setpoint_c - zone_temperature_c
        if heating_error > self.deadband_k:
            thermal = min(
                self.proportional_gain_w_per_k * heating_error, self.zone.max_heating_power_w
            )
            return thermal, thermal / self.heating_cop + self.parasitic_power_w, "heating"

        cooling_error = zone_temperature_c - cooling_setpoint_c
        if cooling_error > self.deadband_k:
            thermal = min(
                self.proportional_gain_w_per_k * cooling_error, self.zone.max_cooling_power_w
            )
            return -thermal, thermal / self.cooling_cop + self.parasitic_power_w, "cooling"

        return 0.0, self.parasitic_power_w if occupied else 0.0, "idle"

    def evaluate(
        self,
        zone_temperature_c: float,
        heating_setpoint_c: float,
        cooling_setpoint_c: float,
        occupied: bool = True,
    ) -> HVACResult:
        """Compute the thermal power injected into the zone and electric draw."""
        check_setpoints(heating_setpoint_c, cooling_setpoint_c)
        thermal, electric, mode = self.power(
            zone_temperature_c, heating_setpoint_c, cooling_setpoint_c, occupied
        )
        return HVACResult(thermal_power_w=thermal, electric_power_w=electric, mode=mode)


def check_setpoints(heating_setpoint_c: float, cooling_setpoint_c: float) -> None:
    """Raise ``ValueError`` when the heating setpoint exceeds the cooling setpoint."""
    if heating_setpoint_c > cooling_setpoint_c:
        raise ValueError(
            "heating setpoint must not exceed cooling setpoint "
            f"({heating_setpoint_c} > {cooling_setpoint_c})"
        )


@dataclass(frozen=True)
class BatchedHVACResult:
    """Vectorised HVAC evaluation over ``(B, n_zones)`` zone temperatures."""

    thermal_power_w: np.ndarray
    electric_power_w: np.ndarray
    heating_mask: np.ndarray
    cooling_mask: np.ndarray


class BatchedHVACPlant:
    """All HVAC units of ``B`` buildings evaluated with one set of array ops.

    Built from per-building ``{zone name: HVACUnit}`` maps (typically ``B``
    identical plants).  A map object that repeats over rows (a tiled batch)
    is read once and its row gathered.  Every array op mirrors
    :meth:`HVACUnit.evaluate` element-wise, so each ``(building, zone)`` cell
    is bit-identical to the scalar unit's result.
    """

    def __init__(self, unit_maps: Sequence[Dict[str, HVACUnit]], zone_names: Sequence[str]):
        if not unit_maps:
            raise ValueError("At least one building's HVAC units are required")
        self.zone_names = list(zone_names)
        distinct, rows = distinct_rows(unit_maps)
        units = [[unit_map[name] for name in self.zone_names] for unit_map in distinct]

        def stack(attr) -> np.ndarray:
            return np.array([[attr(u) for u in row] for row in units], dtype=float)[rows]

        self.heating_cop = stack(lambda u: u.heating_cop)
        self.cooling_cop = stack(lambda u: u.cooling_cop)
        self.gain_w_per_k = stack(lambda u: u.proportional_gain_w_per_k)
        self.deadband_k = stack(lambda u: u.deadband_k)
        self.parasitic_power_w = stack(lambda u: u.parasitic_power_w)
        self.max_heating_power_w = stack(lambda u: u.zone.max_heating_power_w)
        self.max_cooling_power_w = stack(lambda u: u.zone.max_cooling_power_w)

    @property
    def batch_size(self) -> int:
        """Number of buildings ``B`` whose units the plant stacks."""
        return self.heating_cop.shape[0]

    def evaluate(
        self,
        zone_temperatures: np.ndarray,
        heating_setpoint_c: np.ndarray,
        cooling_setpoint_c: np.ndarray,
        occupied: np.ndarray,
    ) -> BatchedHVACResult:
        """Evaluate every unit on ``(B, n_zones)`` zone temperatures.

        The setpoints and the occupied flag are per-building ``(B,)`` columns
        or already repeated across the zones as ``(B, n_zones)`` (the batched
        environment passes the latter, built once per control step).  An
        operand of any other shape raises ``ValueError`` naming it, as does a
        heating setpoint above its cooling setpoint.  Returns fresh arrays;
        the element-wise ops all run on same-shape operands.
        """
        shape = self.heating_cop.shape
        temps = np.asarray(zone_temperatures, dtype=np.float64)
        if temps.shape != shape:
            raise ValueError(f"zone_temperatures must have shape {shape}, got {temps.shape}")
        heating_sp = zone_operand("heating_setpoint_c", heating_setpoint_c, shape)
        cooling_sp = zone_operand("cooling_setpoint_c", cooling_setpoint_c, shape)
        occupied = zone_operand("occupied", occupied, shape, dtype=bool)
        if np.any(heating_sp > cooling_sp):
            raise ValueError("heating setpoint must not exceed cooling setpoint")

        # The errors become the capped thermal powers, then the electric terms.
        heating = np.subtract(heating_sp, temps)
        cooling = np.subtract(temps, cooling_sp)
        heating_mask = heating > self.deadband_k
        cooling_mask = cooling > self.deadband_k
        cooling_mask &= ~heating_mask

        np.multiply(self.gain_w_per_k, heating, out=heating)
        np.minimum(heating, self.max_heating_power_w, out=heating)
        np.multiply(self.gain_w_per_k, cooling, out=cooling)
        np.minimum(cooling, self.max_cooling_power_w, out=cooling)

        thermal = np.where(cooling_mask, np.negative(cooling), 0.0)
        np.copyto(thermal, heating, where=heating_mask)

        np.divide(heating, self.heating_cop, out=heating)
        np.add(heating, self.parasitic_power_w, out=heating)
        np.divide(cooling, self.cooling_cop, out=cooling)
        np.add(cooling, self.parasitic_power_w, out=cooling)
        electric = np.where(occupied, self.parasitic_power_w, 0.0)
        np.copyto(electric, cooling, where=cooling_mask)
        np.copyto(electric, heating, where=heating_mask)
        return BatchedHVACResult(
            thermal_power_w=thermal,
            electric_power_w=electric,
            heating_mask=heating_mask,
            cooling_mask=cooling_mask,
        )
