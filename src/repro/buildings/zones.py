"""Zone definitions for the five-zone reference building.

The layout mirrors the EnergyPlus ``5ZoneAutoDXVAV`` model used by Sinergym:
four perimeter zones facing the cardinal directions around one core zone, with
a total conditioned floor area of 463 m^2 (the figure quoted in the paper).
Perimeter zones have exterior envelope and windows; the core zone only couples
to its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass(frozen=True)
class ZoneParameters:
    """Thermal parameters of a single zone.

    Attributes
    ----------
    name:
        Zone identifier.
    floor_area_m2:
        Conditioned floor area.
    thermal_capacitance_j_per_k:
        Lumped thermal capacitance (air + furniture + light mass).
    envelope_ua_w_per_k:
        Envelope conductance to the outdoor air (walls + roof share + windows).
    window_area_m2:
        Glazing area used to convert solar irradiance into a heat gain.
    solar_heat_gain_coefficient:
        Fraction of incident solar radiation transmitted into the zone.
    infiltration_ua_per_wind_w_per_k_per_ms:
        Additional conductance per unit wind speed, modelling infiltration.
    equipment_gain_w:
        Constant plug/lighting gain while the building is occupied.
    max_heating_power_w:
        Heating capacity of the zone terminal unit.
    max_cooling_power_w:
        Cooling capacity of the zone terminal unit.
    """

    name: str
    floor_area_m2: float
    thermal_capacitance_j_per_k: float
    envelope_ua_w_per_k: float
    window_area_m2: float
    solar_heat_gain_coefficient: float = 0.4
    infiltration_ua_per_wind_w_per_k_per_ms: float = 1.5
    equipment_gain_w: float = 300.0
    max_heating_power_w: float = 6000.0
    max_cooling_power_w: float = 6000.0

    def __post_init__(self) -> None:
        if self.floor_area_m2 <= 0:
            raise ValueError("floor_area_m2 must be positive")
        if self.thermal_capacitance_j_per_k <= 0:
            raise ValueError("thermal_capacitance_j_per_k must be positive")
        if self.envelope_ua_w_per_k < 0:
            raise ValueError("envelope_ua_w_per_k must be non-negative")


@dataclass(frozen=True)
class InterZoneCoupling:
    """Conductive coupling between two zones (symmetric)."""

    zone_a: str
    zone_b: str
    ua_w_per_k: float

    def __post_init__(self) -> None:
        if self.zone_a == self.zone_b:
            raise ValueError("A zone cannot couple to itself")
        if self.ua_w_per_k < 0:
            raise ValueError("ua_w_per_k must be non-negative")


#: Volumetric heat capacity of air [J/(m^3 K)] times an effective-mass multiplier.
_AIR_HEAT_CAPACITY_J_M3_K = 1210.0
_EFFECTIVE_MASS_MULTIPLIER = 18.0
_ZONE_HEIGHT_M = 3.0


def _capacitance_for_area(area_m2: float) -> float:
    """Lumped capacitance from floor area (air volume times a mass multiplier)."""
    volume = area_m2 * _ZONE_HEIGHT_M
    return volume * _AIR_HEAT_CAPACITY_J_M3_K * _EFFECTIVE_MASS_MULTIPLIER


def five_zone_layout() -> Tuple[List[ZoneParameters], List[InterZoneCoupling], str]:
    """Return the five-zone building layout.

    Returns
    -------
    zones:
        Zone parameter list (core + four perimeter zones, 463 m^2 total).
    couplings:
        Inter-zone conductances (each perimeter zone couples to the core and to
        its two adjacent perimeter zones).
    controlled_zone:
        Name of the zone whose temperature is the control state in the paper's
        MDP formulation (the core zone).
    """
    core_area = 183.0
    perimeter_area = 70.0  # 4 x 70 + 183 = 463 m^2

    zones = [
        ZoneParameters(
            name="core",
            floor_area_m2=core_area,
            thermal_capacitance_j_per_k=_capacitance_for_area(core_area),
            envelope_ua_w_per_k=22.0,  # roof only
            window_area_m2=0.0,
            equipment_gain_w=600.0,
            max_heating_power_w=9000.0,
            max_cooling_power_w=9000.0,
        ),
        ZoneParameters(
            name="perimeter_north",
            floor_area_m2=perimeter_area,
            thermal_capacitance_j_per_k=_capacitance_for_area(perimeter_area),
            envelope_ua_w_per_k=52.0,
            window_area_m2=8.0,
            equipment_gain_w=250.0,
        ),
        ZoneParameters(
            name="perimeter_east",
            floor_area_m2=perimeter_area,
            thermal_capacitance_j_per_k=_capacitance_for_area(perimeter_area),
            envelope_ua_w_per_k=50.0,
            window_area_m2=10.0,
            equipment_gain_w=250.0,
        ),
        ZoneParameters(
            name="perimeter_south",
            floor_area_m2=perimeter_area,
            thermal_capacitance_j_per_k=_capacitance_for_area(perimeter_area),
            envelope_ua_w_per_k=52.0,
            window_area_m2=12.0,
            solar_heat_gain_coefficient=0.45,
            equipment_gain_w=250.0,
        ),
        ZoneParameters(
            name="perimeter_west",
            floor_area_m2=perimeter_area,
            thermal_capacitance_j_per_k=_capacitance_for_area(perimeter_area),
            envelope_ua_w_per_k=50.0,
            window_area_m2=10.0,
            equipment_gain_w=250.0,
        ),
    ]

    couplings = [
        InterZoneCoupling("core", "perimeter_north", 60.0),
        InterZoneCoupling("core", "perimeter_east", 60.0),
        InterZoneCoupling("core", "perimeter_south", 60.0),
        InterZoneCoupling("core", "perimeter_west", 60.0),
        InterZoneCoupling("perimeter_north", "perimeter_east", 18.0),
        InterZoneCoupling("perimeter_east", "perimeter_south", 18.0),
        InterZoneCoupling("perimeter_south", "perimeter_west", 18.0),
        InterZoneCoupling("perimeter_west", "perimeter_north", 18.0),
    ]

    return zones, couplings, "core"


def total_floor_area(zones: List[ZoneParameters]) -> float:
    """Total conditioned floor area of a zone list."""
    return float(sum(z.floor_area_m2 for z in zones))


def zone_index_map(zones: List[ZoneParameters]) -> Dict[str, int]:
    """Map from zone name to index, validating uniqueness."""
    mapping: Dict[str, int] = {}
    for i, zone in enumerate(zones):
        if zone.name in mapping:
            raise ValueError(f"Duplicate zone name {zone.name!r}")
        mapping[zone.name] = i
    return mapping


def zone_operand(
    name: str, value: Any, shape: Tuple[int, int], dtype: Any = np.float64
) -> np.ndarray:
    """``value`` as a C-contiguous ``(B, n_zones)`` array of ``shape``.

    A ``(B,)`` per-building column is repeated across the zones; a
    ``(B, n_zones)`` array passes through, copied only to change its dtype or
    layout.  The batched plant kernels take their per-building operands through
    here so that every element-wise op runs on same-shape operands (numpy steps
    a broadcast ``(B, 1)`` operand in inner loops of ``n_zones`` elements).
    Any other shape raises ``ValueError`` naming ``name``: a ``(n_zones,)`` row
    or a length-1 column would otherwise broadcast across every building.
    """
    array = np.asarray(value, dtype=dtype)
    if array.shape == shape:
        return np.ascontiguousarray(array)
    if array.shape == shape[:1]:
        return np.repeat(array, shape[1]).reshape(shape)
    raise ValueError(
        f"{name} must have shape ({shape[0]},) or ({shape[0]}, {shape[1]}), got {array.shape}"
    )


def distinct_rows(items: Sequence[T]) -> Tuple[List[T], np.ndarray]:
    """The distinct objects of ``items`` and each item's index among them.

    Objects are compared by identity and listed in first-seen order, so
    ``[distinct[i] for i in rows]`` is ``items``.  A tiled batch repeats a few
    objects over many rows.  Its per-row arrays are built once per distinct
    object and gathered with ``array[rows]`` (a C-contiguous copy).
    """
    slots: Dict[int, int] = {}
    distinct: List[T] = []
    rows = np.empty(len(items), dtype=np.intp)
    for row, item in enumerate(items):
        slot = slots.get(id(item))
        if slot is None:
            slot = slots[id(item)] = len(distinct)
            distinct.append(item)
        rows[row] = slot
    return distinct, rows
