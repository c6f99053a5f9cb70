"""Multi-zone RC thermal network.

The network integrates the zone heat balance

    C_i dT_i/dt = UA_env,i (T_out - T_i)
                + UA_inf,i(wind) (T_out - T_i)
                + sum_j UA_ij (T_j - T_i)
                + Q_hvac,i + Q_solar,i + Q_internal,i

with forward-Euler sub-steps inside each control timestep.  Sub-stepping keeps
the explicit integration stable for the zone time constants used here (tens of
hours) at a 1-minute sub-step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.buildings.zones import InterZoneCoupling, ZoneParameters, zone_index_map, zone_operand

# ``np.einsum`` with ``optimize=False`` (its default) only forwards to the C
# entry point; calling that directly runs the same kernel, in the same
# CPU-dependent lane order, without the Python-level dispatcher.
try:  # numpy >= 2
    from numpy._core.multiarray import c_einsum
except ImportError:  # pragma: no cover - numpy 1.x, or a numpy without it
    try:
        from numpy.core.multiarray import c_einsum
    except ImportError:
        c_einsum = np.einsum

#: Sensible heat gain per occupant (W), a standard office value.
OCCUPANT_GAIN_W = 90.0


@dataclass
class ThermalState:
    """Zone temperatures of the network (degrees C)."""

    temperatures: np.ndarray

    def __post_init__(self) -> None:
        self.temperatures = np.asarray(self.temperatures, dtype=float)
        if self.temperatures.ndim != 1:
            raise ValueError("temperatures must be a 1-D array")

    def copy(self) -> "ThermalState":
        """An independent state holding a copy of the temperature array."""
        return ThermalState(self.temperatures.copy())

    def __len__(self) -> int:
        return len(self.temperatures)


@dataclass
class ZoneGains:
    """External heat inputs to one zone over one control step (W, averaged)."""

    hvac_thermal_w: float = 0.0
    solar_w: float = 0.0
    internal_w: float = 0.0

    @property
    def total_w(self) -> float:
        """Total heat input ``(hvac + solar) + internal`` (W), summed in that order."""
        return self.hvac_thermal_w + self.solar_w + self.internal_w


class ThermalNetwork:
    """RC thermal network over a list of zones with inter-zone couplings."""

    def __init__(
        self,
        zones: Sequence[ZoneParameters],
        couplings: Sequence[InterZoneCoupling],
        substep_seconds: float = 60.0,
    ):
        if not zones:
            raise ValueError("At least one zone is required")
        if substep_seconds <= 0:
            raise ValueError("substep_seconds must be positive")
        self.zones = list(zones)
        self.couplings = list(couplings)
        self.substep_seconds = float(substep_seconds)
        self._index = zone_index_map(self.zones)

        n = len(self.zones)
        self._capacitance = np.array(
            [z.thermal_capacitance_j_per_k for z in self.zones], dtype=np.float64
        )
        self._envelope_ua = np.array(
            [z.envelope_ua_w_per_k for z in self.zones], dtype=np.float64
        )
        self._infiltration_per_wind = np.array(
            [z.infiltration_ua_per_wind_w_per_k_per_ms for z in self.zones],
            dtype=np.float64,
        )
        self._coupling_matrix = np.zeros((n, n), dtype=np.float64)
        for coupling in self.couplings:
            if coupling.zone_a not in self._index or coupling.zone_b not in self._index:
                raise KeyError(
                    f"Coupling references unknown zone: {coupling.zone_a!r}/{coupling.zone_b!r}"
                )
            a, b = self._index[coupling.zone_a], self._index[coupling.zone_b]
            self._coupling_matrix[a, b] += coupling.ua_w_per_k
            self._coupling_matrix[b, a] += coupling.ua_w_per_k
        # Row sums are constant — precompute instead of re-summing every sub-step.
        self._coupling_row_sums = self._coupling_matrix.sum(axis=1)
        # step_batch's per-zone constants as (B, n_zones) rows, for the last B.
        self._batch_constants: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def zone_names(self) -> List[str]:
        """Zone names in network order (the order of every per-zone array)."""
        return [z.name for z in self.zones]

    def zone_index(self, name: str) -> int:
        """Position of zone ``name`` in network order (``KeyError`` if unknown)."""
        return self._index[name]

    def initial_state(self, temperature_c: float = 20.0) -> ThermalState:
        """A uniform-temperature initial state."""
        return ThermalState(np.full(len(self.zones), float(temperature_c), dtype=np.float64))

    def step(
        self,
        state: ThermalState,
        outdoor_temperature_c: float,
        wind_speed_ms: float,
        gains: Union[Dict[str, ZoneGains], Sequence[float]],
        duration_seconds: float,
    ) -> ThermalState:
        """Advance the network by ``duration_seconds`` with constant boundary conditions.

        ``gains`` is either ``{zone name: ZoneGains}`` (a zone left out gets
        no gain) or each zone's total heat input in zone order (W).

        Exactness contract: the result is bit-identical to the numpy form of
        this Euler loop and to the matching row of :meth:`step_batch`.  The
        element-wise terms (envelope flow, ``- row_sum * T``, ``+ gain``,
        ``/ C``, ``T + h * d``) run on Python floats, each one IEEE-identical
        to the numpy ufunc it stands for, grouped as numpy groups them and
        with nothing folded (no ``h / C``).  The neighbour sum stays the
        ``einsum`` :meth:`step_batch` uses: its SIMD/FMA lane order depends on
        the CPU, so a sequential Python sum would not match it (it disagreed
        on 8,828 of 20,000 random 5-zone states on an AVX-512 machine), while
        the shared kernel keeps scalar and batched steps equal on any machine.
        """
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        n = len(self.zones)
        if isinstance(gains, dict):
            totals = [0.0] * n
            for name, zone_gains in gains.items():
                totals[self._index[name]] = zone_gains.total_w
        else:
            totals = [float(gain) for gain in gains]
            if len(totals) != n:
                raise ValueError(f"gains must hold {n} per-zone totals, got {len(totals)}")
        outdoor = float(outdoor_temperature_c)
        wind = max(float(wind_speed_ms), 0.0)
        effective_ua = [
            ua + per_wind * wind
            for ua, per_wind in zip(
                self._envelope_ua.tolist(), self._infiltration_per_wind.tolist()
            )
        ]
        row_sums = self._coupling_row_sums.tolist()
        capacitance = self._capacitance.tolist()

        temps = state.temperatures.copy()
        neighbours = np.empty_like(temps)
        values = temps.tolist()
        remaining = float(duration_seconds)
        dt = self.substep_seconds
        while remaining > 1e-9:
            h = min(dt, remaining)
            c_einsum("ij,j->i", self._coupling_matrix, temps, out=neighbours)
            values = [
                t + h * (((ua * (outdoor - t) + (neighbour - row_sum * t)) + gain) / c)
                for t, neighbour, ua, row_sum, gain, c in zip(
                    values, neighbours.tolist(), effective_ua, row_sums, totals, capacitance
                )
            ]
            temps[:] = values
            remaining -= h
        return ThermalState(temps)

    def step_batch(
        self,
        temperatures: np.ndarray,
        outdoor_temperature_c: np.ndarray,
        wind_speed_ms: np.ndarray,
        gains_w: np.ndarray,
        duration_seconds: float,
    ) -> np.ndarray:
        """Advance ``B`` independent copies of the network in one fused loop.

        Parameters
        ----------
        temperatures:
            ``(B, n_zones)`` current zone temperatures, one row per building.
        outdoor_temperature_c, wind_speed_ms:
            Per-building boundary conditions, as ``(B,)`` columns or already
            repeated across the zones as ``(B, n_zones)`` (the batched
            environment passes the latter, built once per control step).
        gains_w:
            ``(B, n_zones)`` total heat input per zone (W, averaged over the step).
        duration_seconds:
            Common integration length for every row.

        Returns fresh ``(B, n_zones)`` temperatures; the inputs are not
        modified, and an operand of any other shape raises ``ValueError``
        naming it.  Every row evolves exactly as a scalar :meth:`step` would
        evolve it: the Euler loop runs once for the whole batch, each term is
        element-wise on same-shape C-contiguous operands (``out=`` into scratch
        reused across sub-steps), and the neighbour sum is the einsum
        :meth:`step` uses, so results are independent of the batch size.
        """
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        temps = np.array(temperatures, dtype=np.float64, order="C")
        if temps.ndim != 2 or temps.shape[1] != len(self.zones):
            raise ValueError(f"temperatures must have shape (B, {len(self.zones)})")
        shape = temps.shape
        outdoor = zone_operand("outdoor_temperature_c", outdoor_temperature_c, shape)
        wind = zone_operand("wind_speed_ms", wind_speed_ms, shape)
        gains = np.asarray(gains_w, dtype=np.float64)
        if gains.shape != shape:
            raise ValueError(f"gains_w must have shape {shape}, got {gains.shape}")
        envelope_ua, infiltration_per_wind, row_sums, capacitance = self._constants_for(shape[0])

        effective_ua = np.maximum(wind, 0.0)
        np.multiply(infiltration_per_wind, effective_ua, out=effective_ua)
        np.add(envelope_ua, effective_ua, out=effective_ua)

        flow = np.empty(shape, dtype=np.float64)
        neighbours = np.empty(shape, dtype=np.float64)
        coupled = np.empty(shape, dtype=np.float64)
        remaining = float(duration_seconds)
        dt = self.substep_seconds
        while remaining > 1e-9:
            h = min(dt, remaining)
            np.subtract(outdoor, temps, out=flow)
            np.multiply(effective_ua, flow, out=flow)
            c_einsum("ij,bj->bi", self._coupling_matrix, temps, out=neighbours)
            np.multiply(row_sums, temps, out=coupled)
            np.subtract(neighbours, coupled, out=coupled)
            np.add(flow, coupled, out=flow)
            np.add(flow, gains, out=flow)
            np.divide(flow, capacitance, out=flow)
            np.multiply(h, flow, out=flow)
            np.add(temps, flow, out=temps)
            remaining -= h
        return temps

    def _constants_for(self, batch: int) -> Tuple[np.ndarray, ...]:
        """Envelope UA, infiltration per wind, row sums and capacitance as ``(batch, n_zones)``."""
        constants = self._batch_constants
        if constants is None or len(constants[0]) != batch:
            rows = (
                self._envelope_ua,
                self._infiltration_per_wind,
                self._coupling_row_sums,
                self._capacitance,
            )
            constants = self._batch_constants = tuple(np.tile(row, (batch, 1)) for row in rows)
        return constants

    def steady_state_temperature(
        self, outdoor_temperature_c: float, wind_speed_ms: float, gains: Dict[str, ZoneGains]
    ) -> np.ndarray:
        """Solve the steady-state zone temperatures for constant conditions.

        Useful for sanity checks and property tests: with zero gains the steady
        state equals the outdoor temperature in every zone.
        """
        n = len(self.zones)
        gain_vector = np.zeros(n, dtype=np.float64)
        for name, zone_gains in gains.items():
            gain_vector[self._index[name]] = zone_gains.total_w
        effective_ua = self._envelope_ua + self._infiltration_per_wind * max(wind_speed_ms, 0.0)
        # Build the linear system A T = b from the heat balance at equilibrium.
        a_matrix = np.diag(effective_ua + self._coupling_row_sums) - self._coupling_matrix
        b_vector = effective_ua * outdoor_temperature_c + gain_vector
        return np.linalg.solve(a_matrix, b_vector)


def solar_gain_for_zone(zone: ZoneParameters, solar_radiation_w_m2: float) -> float:
    """Solar heat gain of a zone given global horizontal irradiance."""
    return max(solar_radiation_w_m2, 0.0) * zone.window_area_m2 * zone.solar_heat_gain_coefficient


def internal_gain_for_zone(
    zone: ZoneParameters, occupant_count: float, occupied: bool, zone_area_share: float
) -> float:
    """Internal gain: occupants (distributed by floor-area share) plus equipment."""
    occupant_gain = OCCUPANT_GAIN_W * occupant_count * zone_area_share
    equipment_gain = zone.equipment_gain_w if occupied else 0.1 * zone.equipment_gain_w
    return occupant_gain + equipment_gain
