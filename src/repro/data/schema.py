"""The columnar batch schema shared by every layer boundary.

Each hop between layers (the batched environment to the agents, a caller
to the policy server) passes contiguous, dtype-declared structs-of-arrays,
so no hop pays a per-row object-conversion tax on top of the vectorised
kernels:

* :class:`ObservationBatch` — ``(B, F)`` Table-1 observation rows,
* :class:`ActionBatch` — ``(B,)`` discrete action indices (plus optional
  resolved setpoint columns),
* :class:`InfoBatch` — the per-step diagnostics of a batched environment
  step, one typed column per scalar info key of the serial environment,
* :class:`PolicyRequestBatch` / :class:`PolicyResponseBatch` — the columnar
  serving front door (arrays in, arrays out), with a cached building-id
  grouping for callers that split a batch by policy.

Every batch validates its columns on construction (dtype, dimensionality,
shared row count), supports row ``take``/``slice`` and ``concat``, and
interoperates with plain numpy via ``__array__`` so legacy callers keep
working unchanged.

Dtype policy
------------
Float columns accept ``float32`` or ``float64`` and preserve whichever they
are given (anything else is coerced to ``float64``, the bit-exact reference
dtype).  :func:`resolve_float_dtype` maps the ``PipelineConfig.dtype`` policy
strings to numpy dtypes; the float32 fast path of the dynamics models (see
:mod:`repro.nn.inference`) builds on it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from numpy.typing import NDArray

#: The float dtypes the data plane understands. ``float64`` is the bit-exact
#: reference; ``float32`` is the opt-in inference fast path.
FLOAT_DTYPES: Tuple[np.dtype, ...] = (np.dtype(np.float32), np.dtype(np.float64))

#: Names accepted by :func:`resolve_float_dtype` (the ``PipelineConfig.dtype``
#: policy values).
FLOAT_DTYPE_NAMES: Tuple[str, ...] = ("float32", "float64")


def resolve_float_dtype(dtype: Union[str, np.dtype, type]) -> np.dtype:
    """Map a dtype policy value (``"float32"``/``"float64"``) to a numpy dtype.

    Raises :class:`ValueError` for anything else — including strings numpy
    itself cannot parse — so config validation has one failure mode.
    """
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(
            f"Unsupported float dtype {dtype!r}; use one of {FLOAT_DTYPE_NAMES}"
        ) from exc
    if resolved not in FLOAT_DTYPES:
        raise ValueError(
            f"Unsupported float dtype {dtype!r}; use one of {FLOAT_DTYPE_NAMES}"
        )
    return resolved


@dataclass(frozen=True)
class ColumnSpec:
    """Declared type of one column of a :class:`ColumnarBatch`.

    ``kind`` picks the coercion rule:

    * ``"float"`` — floating column; float32/float64 preserved, everything
      else coerced to float64,
    * ``"int"`` — ``int64``,
    * ``"bool"`` — ``bool``,
    * ``"id"`` — string identifiers (unicode array; used for grouping keys).

    ``ndim`` is the required array rank (rows are always the leading axis);
    ``required=False`` columns may be ``None``.
    """

    name: str
    kind: str = "float"
    ndim: int = 1
    required: bool = True

    def coerce(self, value: NDArray[Any]) -> NDArray[Any]:
        """Coerce one column to its declared dtype/rank (contiguous, validated).

        Float columns preserve float32/float64 and coerce anything else to
        float64; int columns become ``int64``; id columns become unicode
        arrays, with byte strings decoded as UTF-8.  Raises
        :class:`ValueError` on a rank mismatch.
        """
        if self.kind == "float":
            # reprolint: disable=REP001 -- dtype-preserving by design: float32
            # stays float32 (the fast path); everything else coerces below.
            array = np.asarray(value)
            if array.dtype not in FLOAT_DTYPES:
                array = array.astype(np.float64)
        elif self.kind == "int":
            array = np.asarray(value, dtype=np.int64)
        elif self.kind == "bool":
            array = np.asarray(value, dtype=bool)
        elif self.kind == "id":
            array = np.asarray(value)  # reprolint: disable=REP001 -- dtype inspected next line
            if array.dtype.kind == "S":
                array = np.char.decode(array, "utf-8")
            elif array.dtype.kind != "U":
                array = np.asarray(
                    [str(v) for v in np.atleast_1d(array)], dtype=np.str_
                )
        else:  # pragma: no cover - specs are module-level constants
            raise ValueError(f"Unknown column kind {self.kind!r}")
        if array.ndim != self.ndim:
            raise ValueError(
                f"Column {self.name!r} must have {self.ndim} dimension(s), "
                f"got shape {array.shape}"
            )
        return np.ascontiguousarray(array)


class ColumnarBatch:
    """Base machinery shared by the columnar batch types.

    Subclasses are dataclasses whose array fields are declared in
    ``COLUMNS``; any remaining fields are batch-level metadata, carried
    through :meth:`take`/:meth:`slice` unchanged and required to match under
    :meth:`concat`.  Construction coerces every column to its declared dtype,
    makes it contiguous and checks that all columns share one row count.
    """

    COLUMNS: ClassVar[Tuple[ColumnSpec, ...]] = ()

    # ------------------------------------------------------------ validation
    def __post_init__(self) -> None:
        rows: Optional[int] = None
        for spec in self.COLUMNS:
            value = getattr(self, spec.name)
            if value is None:
                if spec.required:
                    raise ValueError(f"Column {spec.name!r} is required")
                continue
            array = spec.coerce(value)
            setattr(self, spec.name, array)
            if rows is None:
                rows = len(array)
            elif len(array) != rows:
                raise ValueError(
                    f"Column {spec.name!r} has {len(array)} rows, expected {rows}"
                )
        if rows is None:
            raise ValueError(f"{type(self).__name__} needs at least one column")
        self._rows = rows

    # -------------------------------------------------------------- protocol
    def __len__(self) -> int:
        return self._rows

    @property
    def num_rows(self) -> int:
        """Shared row count of every present column (``len(batch)``)."""
        return self._rows

    def columns(self) -> Dict[str, NDArray[Any]]:
        """The present columns as a name -> array mapping (no copies)."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in self.COLUMNS
            if getattr(self, spec.name) is not None
        }

    def _metadata(self) -> Dict[str, object]:
        column_names = {spec.name for spec in self.COLUMNS}
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in column_names
        }

    def _rebuild(self, columns: Dict[str, Optional[NDArray[Any]]]) -> "ColumnarBatch":
        return type(self)(**columns, **self._metadata())

    # ------------------------------------------------------------- row verbs
    def _getitem_rows(
        self,
        item: Union[int, slice, Sequence[int], NDArray[Any]],
        scalar: Callable[[int], Any],
    ) -> Any:
        """Shared ``__getitem__`` body: rows only, loud on anything else.

        ``scalar`` materialises one row for an integer index; slices (any
        step) and index arrays return sub-batches.  Tuple indexing — what a
        legacy ``(B, F)`` ndarray caller would write as ``arr[i, j]`` — is
        rejected rather than silently reinterpreted as fancy row indexing;
        use ``np.asarray(batch)`` or a named column for element access.
        """
        if isinstance(item, tuple):
            raise TypeError(
                f"{type(self).__name__} indexes rows only; for element access "
                "use np.asarray(batch) or a named column"
            )
        if isinstance(item, (int, np.integer)):
            return scalar(item)
        if isinstance(item, slice):
            if item.step in (None, 1):
                return self.slice(item.start or 0, item.stop)
            return self.take(np.arange(*item.indices(len(self))))
        return self.take(item)

    def take(self, indices: Union[Sequence[int], NDArray[Any]]) -> "ColumnarBatch":
        """A new batch holding the given rows (fancy-indexed copy)."""
        # reprolint: disable=REP001 -- indices may be an int array or a bool
        # mask; both must keep their dtype for fancy indexing to mean the same.
        indices = np.asarray(indices)
        return self._rebuild(
            {
                spec.name: None if value is None else value[indices]
                for spec in self.COLUMNS
                for value in (getattr(self, spec.name),)
            }
        )

    def slice(self, start: int, stop: Optional[int] = None) -> "ColumnarBatch":
        """A new batch over rows ``[start, stop)`` (zero-copy views)."""
        window = slice(start, stop)
        return self._rebuild(
            {
                spec.name: None if value is None else value[window]
                for spec in self.COLUMNS
                for value in (getattr(self, spec.name),)
            }
        )

    # ---------------------------------------------------------- shm transport
    def to_shm(self, buffer) -> "ShmBatchHeader":
        """Park this batch's columns in a shared-memory ring.

        ``buffer`` is a :class:`~repro.data.shm.SharedMemoryColumnarBuffer`.
        Returns the queue-sized :class:`~repro.data.shm.ShmBatchHeader` —
        the only thing that should ever cross a process boundary for this
        batch; the array payloads stay in (and are mapped out of) the shared
        segment.  See :mod:`repro.data.shm` for the ownership protocol.
        """
        return buffer.write_batch(self)

    @classmethod
    def from_shm(cls, buffer, header, copy: bool = False) -> "ColumnarBatch":
        """Rebuild a batch of this type from a shared-memory ring.

        With ``copy=False`` the columns are zero-copy views onto the segment
        (valid until the ring's producer writes its next batch); ``copy=True``
        materialises private arrays.  Raises
        :class:`~repro.data.shm.ShmTransportError` when the header describes
        a different batch type.
        """
        from repro.data.shm import ShmTransportError

        batch = buffer.read_batch(header, copy=copy)
        if not isinstance(batch, cls):
            raise ShmTransportError(
                f"Header describes a {type(batch).__name__}, expected {cls.__name__}"
            )
        return batch

    @classmethod
    def concat(cls, batches: Sequence["ColumnarBatch"]) -> "ColumnarBatch":
        """Concatenate batches of one type row-wise."""
        if not batches:
            raise ValueError(f"concat needs at least one {cls.__name__}")
        first = batches[0]
        for other in batches[1:]:
            if type(other) is not cls:
                raise TypeError(f"Cannot concat {type(other).__name__} into {cls.__name__}")
            if other._metadata() != first._metadata():
                raise ValueError("Cannot concat batches with different metadata")
        columns: Dict[str, Optional[NDArray[Any]]] = {}
        for spec in cls.COLUMNS:
            values = [getattr(batch, spec.name) for batch in batches]
            if any(v is None for v in values):
                columns[spec.name] = None
            else:
                columns[spec.name] = np.concatenate(values)
        return first._rebuild(columns)


#: Canonical Table-1 observation feature order (matches the serial
#: environment's observation vector and the dynamics-model input layout).
OBSERVATION_FEATURES: Tuple[str, ...] = (
    "zone_temperature",
    "outdoor_temperature",
    "relative_humidity",
    "wind_speed",
    "solar_radiation",
    "occupant_count",
)


@dataclass
class ObservationBatch(ColumnarBatch):
    """``(B, F)`` observation rows, one feature per column of ``values``.

    ``values`` is the contiguous matrix the vectorised kernels consume
    directly; named feature columns are zero-copy views via :meth:`column`.
    Supports ``np.asarray(batch)`` and integer row indexing, so it drops into
    every legacy call site that expected a plain ``(B, F)`` array.
    """

    values: NDArray[Any]
    feature_names: Tuple[str, ...] = OBSERVATION_FEATURES

    COLUMNS = (ColumnSpec("values", kind="float", ndim=2),)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.feature_names = tuple(self.feature_names)
        if self.values.shape[1] != len(self.feature_names):
            raise ValueError(
                f"ObservationBatch has {self.values.shape[1]} feature column(s) "
                f"but {len(self.feature_names)} feature name(s)"
            )

    @property
    def num_features(self) -> int:
        """Feature column count F of the ``(B, F)`` values matrix."""
        return self.values.shape[1]

    @property
    def dtype(self) -> np.dtype:
        """Float dtype of ``values`` (float64 reference or float32 fast path)."""
        return self.values.dtype

    def column(self, name: str) -> NDArray[Any]:
        """One named feature column as a zero-copy ``(B,)`` view."""
        try:
            index = self.feature_names.index(name)
        except ValueError:
            raise KeyError(
                f"Unknown feature {name!r}; available: {self.feature_names}"
            ) from None
        return self.values[:, index]

    def astype(self, dtype: Union[str, np.dtype]) -> "ObservationBatch":
        """This batch under the given float dtype (no copy when already there)."""
        resolved = resolve_float_dtype(dtype)
        if self.values.dtype == resolved:
            return self
        return ObservationBatch(
            self.values.astype(resolved), feature_names=self.feature_names
        )

    def __array__(self, dtype: Any = None) -> NDArray[Any]:
        return self.values if dtype is None else self.values.astype(dtype, copy=False)

    def __getitem__(self, item: Union[int, slice, Sequence[int], NDArray[Any]]) -> Any:
        """Integer -> one observation row; slice/index array -> a sub-batch."""
        return self._getitem_rows(item, lambda index: self.values[index])

    @classmethod
    def from_rows(
        cls,
        rows: Union[NDArray[Any], Sequence[Sequence[float]]],
        feature_names: Optional[Sequence[str]] = None,
    ) -> "ObservationBatch":
        """Build from any (B, F) row collection (lists, stacked arrays, ...)."""
        # reprolint: disable=REP001 -- dtype-preserving on purpose: float32
        # rows stay float32; ColumnSpec.coerce applies the float policy below.
        values = np.atleast_2d(np.asarray(rows))
        if feature_names is None:
            if values.shape[1] == len(OBSERVATION_FEATURES):
                feature_names = OBSERVATION_FEATURES
            else:
                feature_names = tuple(f"f{i}" for i in range(values.shape[1]))
        return cls(values, feature_names=tuple(feature_names))


@dataclass
class ActionBatch(ColumnarBatch):
    """``(B,)`` discrete action indices, optionally with resolved setpoints.

    ``np.asarray(batch)`` yields the index column, so an ``ActionBatch`` is a
    drop-in replacement wherever a plain index array was passed before.
    """

    indices: NDArray[Any]
    heating_setpoints: Optional[NDArray[Any]] = None
    cooling_setpoints: Optional[NDArray[Any]] = None

    COLUMNS = (
        ColumnSpec("indices", kind="int"),
        ColumnSpec("heating_setpoints", kind="float", required=False),
        ColumnSpec("cooling_setpoints", kind="float", required=False),
    )

    @property
    def has_setpoints(self) -> bool:
        """Whether both resolved setpoint columns are present."""
        return self.heating_setpoints is not None and self.cooling_setpoints is not None

    def with_setpoints(self, action_pairs: NDArray[Any]) -> "ActionBatch":
        """Resolve setpoint columns by gathering from an (A, 2) pair table."""
        pairs = np.asarray(action_pairs, dtype=np.float64)[self.indices]
        return ActionBatch(
            self.indices,
            heating_setpoints=pairs[:, 0],
            cooling_setpoints=pairs[:, 1],
        )

    def __array__(self, dtype: Any = None) -> NDArray[Any]:
        return self.indices if dtype is None else self.indices.astype(dtype, copy=False)

    def tolist(self) -> List[int]:
        """The action indices as a plain python list (legacy adapter)."""
        # reprolint: disable=REP002 -- legacy adapter boundary: serial-era
        # callers want a python list; nothing on the shm transport calls this.
        return self.indices.tolist()

    def __getitem__(self, item: Union[int, slice, Sequence[int], NDArray[Any]]) -> Any:
        return self._getitem_rows(item, lambda index: int(self.indices[index]))

    @classmethod
    def from_indices(cls, indices: Union[NDArray[Any], Sequence[int]]) -> "ActionBatch":
        """Build from any 1-d collection of action indices (coerced to int64)."""
        return cls(np.atleast_1d(np.asarray(indices, dtype=np.int64)))


@dataclass
class InfoBatch(ColumnarBatch):
    """Per-step diagnostics of one batched environment step, columnar.

    One typed ``(B,)`` column per scalar info key of the serial environment,
    plus the scalar ``step`` index.  The float columns keep the exact values
    (and dtype) the legacy dict-of-arrays carried, and the mapping protocol
    (``info["occupied"]``, ``"step" in info``, ``info.keys()``) is preserved
    so existing consumers are oblivious to the change.
    """

    step: int
    hour_of_day: NDArray[Any]
    occupied: NDArray[Any]
    heating_setpoint: Optional[NDArray[Any]] = None
    cooling_setpoint: Optional[NDArray[Any]] = None
    zone_temperature: Optional[NDArray[Any]] = None
    hvac_electric_energy_kwh: Optional[NDArray[Any]] = None
    heating_energy_kwh: Optional[NDArray[Any]] = None
    cooling_energy_kwh: Optional[NDArray[Any]] = None
    energy_proxy: Optional[NDArray[Any]] = None
    comfort_violation: Optional[NDArray[Any]] = None
    comfort_violated: Optional[NDArray[Any]] = None
    sensor_dropped: Optional[NDArray[Any]] = None
    actuator_stuck: Optional[NDArray[Any]] = None
    demand_response: Optional[NDArray[Any]] = None

    COLUMNS = (
        ColumnSpec("hour_of_day", kind="float"),
        ColumnSpec("occupied", kind="float"),
        ColumnSpec("heating_setpoint", kind="float", required=False),
        ColumnSpec("cooling_setpoint", kind="float", required=False),
        ColumnSpec("zone_temperature", kind="float", required=False),
        ColumnSpec("hvac_electric_energy_kwh", kind="float", required=False),
        ColumnSpec("heating_energy_kwh", kind="float", required=False),
        ColumnSpec("cooling_energy_kwh", kind="float", required=False),
        ColumnSpec("energy_proxy", kind="float", required=False),
        ColumnSpec("comfort_violation", kind="float", required=False),
        ColumnSpec("comfort_violated", kind="float", required=False),
        ColumnSpec("sensor_dropped", kind="float", required=False),
        ColumnSpec("actuator_stuck", kind="float", required=False),
        ColumnSpec("demand_response", kind="float", required=False),
    )

    # ----------------------------------------------------- mapping protocol
    def keys(self) -> List[str]:
        """The present info keys, ``"step"`` first (dict-protocol adapter)."""
        present = [
            spec.name for spec in self.COLUMNS if getattr(self, spec.name) is not None
        ]
        return ["step"] + present

    def __contains__(self, key: str) -> bool:
        return key in self.keys()

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __getitem__(self, key: str) -> Union[int, NDArray[Any]]:
        if key == "step":
            return self.step
        if key not in self.keys():
            raise KeyError(key)
        return getattr(self, key)

    def items(self) -> List[Tuple[str, Union[int, NDArray[Any]]]]:
        """``(key, value)`` pairs over :meth:`keys` (dict-protocol adapter)."""
        return [(key, self[key]) for key in self.keys()]

    def get(self, key: str, default: Any = None) -> Any:
        """``dict.get`` semantics over the present info keys."""
        try:
            return self[key]
        except KeyError:
            return default

    def to_dict(self) -> Dict[str, Union[int, NDArray[Any]]]:
        """The legacy dict-of-arrays view (diagnostics/serialisation only)."""
        return dict(self.items())

    def episode_info(self, index: int) -> Dict[str, float]:
        """Materialise the serial-style info dict of one episode."""
        out: Dict[str, float] = {}
        for key, value in self.items():
            out[key] = (
                value
                if np.isscalar(value)
                else float(np.asarray(value, dtype=np.float64)[index])
            )
        return out


@dataclass
class PolicyRequestBatch(ColumnarBatch):
    """One serving batch: a building/policy id column plus observation rows.

    The server answers a mixed-building batch straight from the id column,
    and the sharded front door routes its rows with a
    :class:`~repro.serving.sharded.ShardRouter`.  :meth:`grouping` (integer
    codes over the distinct ids, computed once and cached) is for callers
    that want the batch split by policy.
    """

    policy_ids: NDArray[Any]
    observations: NDArray[Any]
    _grouping: Optional[Tuple[NDArray[Any], NDArray[Any]]] = field(
        default=None, repr=False, compare=False
    )

    COLUMNS = (
        ColumnSpec("policy_ids", kind="id"),
        ColumnSpec("observations", kind="float", ndim=2),
    )

    def _metadata(self) -> Dict[str, object]:
        return {}  # the grouping cache never survives a rebuild

    def grouping(self) -> Tuple[NDArray[Any], NDArray[Any]]:
        """``(codes, unique_ids)``: integer policy codes per row, cached.

        ``codes[i]`` indexes ``unique_ids`` (sorted); computed with one
        ``np.unique`` pass on first use.
        """
        if self._grouping is None:
            unique_ids, codes = np.unique(self.policy_ids, return_inverse=True)
            self._grouping = (codes.astype(np.int64), unique_ids)
        return self._grouping

    @property
    def num_policies(self) -> int:
        """Distinct policy ids in this batch (via the cached grouping)."""
        return len(self.grouping()[1])

    @classmethod
    def single_policy(
        cls, policy_id: str, observations: Union[NDArray[Any], Sequence[Sequence[float]]]
    ) -> "PolicyRequestBatch":
        """All rows bound for one policy (the common fleet-of-one case)."""
        # reprolint: disable=REP001 -- dtype-preserving: float32 observations
        # ride the float fast path untouched.
        observations = np.atleast_2d(np.asarray(observations))
        return cls(
            # reprolint: disable=REP001 -- np.full must infer the unicode width
            # from policy_id (an explicit np.str_ would truncate to <U1).
            policy_ids=np.full(len(observations), policy_id),
            observations=observations,
        )


@dataclass
class PolicyResponseBatch(ColumnarBatch):
    """The served decisions for one request batch, in request order."""

    policy_ids: NDArray[Any]
    action_indices: NDArray[Any]
    heating_setpoints: NDArray[Any]
    cooling_setpoints: NDArray[Any]

    COLUMNS = (
        ColumnSpec("policy_ids", kind="id"),
        ColumnSpec("action_indices", kind="int"),
        ColumnSpec("heating_setpoints", kind="int"),
        ColumnSpec("cooling_setpoints", kind="int"),
    )

    def setpoint_pairs(self) -> NDArray[Any]:
        """``(B, 2)`` (heating, cooling) pairs."""
        return np.column_stack([self.heating_setpoints, self.cooling_setpoints])
