"""Array-compiled decision-tree policies.

A recursive :class:`~repro.core.tree_policy.TreePolicy` walk costs a python
call per node per request — fine for one thermostat, hopeless for serving a
fleet of buildings.  :class:`CompiledTreePolicy` flattens the tree once into
contiguous numpy arrays (feature index, threshold, child pointers, leaf
action) and answers whole request batches with a handful of vectorised
gathers per tree level: ``depth`` array operations instead of ``rows ×
depth`` python comparisons.

:class:`CompiledTreeForest` runs the same kernel over many trees at once:
their arrays are concatenated with child offsets kept local to each tree, and
every row descends from its own tree's root, so B rows routed through B
*different* trees (one per building, episode or request) still resolve in one
traversal.  The packed arena (:mod:`repro.store.arena`) stores its trees in
exactly this layout, so :meth:`~repro.store.PolicyArena.forest` is a forest
over the mmap itself.  The batched experiment backend and the
:class:`~repro.serving.server.PolicyServer` both serve through it.

Both are verified action-for-action against the recursive traversal in
``tests/test_serving.py``; the decision semantics are identical
(``x[feature] <= threshold`` routes left).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.core.tree_policy import TreePolicy

#: Sentinel feature index marking a leaf in the flattened arrays.
LEAF = -1

#: Declared serving dtypes of the flattened arrays.  ``from_views`` requires
#: them exactly; ``__init__`` converts anything else (with a copy only when
#: the input's dtype actually differs).
ARRAY_DTYPES: "dict[str, np.dtype[Any]]" = {
    "feature": np.dtype(np.int32),
    "threshold": np.dtype(np.float64),
    "left": np.dtype(np.int32),
    "right": np.dtype(np.int32),
    "leaf_action": np.dtype(np.int64),
    "action_pairs": np.dtype(np.int64),
}


def _as_typed(values: Any, dtype: "np.dtype[Any]") -> NDArray[Any]:
    """Coerce to an ndarray of ``dtype`` without copying matching inputs.

    An ndarray that already carries the declared dtype is returned *as the
    same object* — no allocation, and flags like ``writeable=False`` on
    arena-backed mmap views survive.  Anything else (lists, mismatched
    dtypes) goes through ``np.asarray`` and may copy.
    """
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        return values
    return np.asarray(values, dtype=dtype)


def _descend(
    feature: NDArray[Any],
    threshold: NDArray[Any],
    left: NDArray[Any],
    right: NDArray[Any],
    roots: NDArray[Any],
    inputs: NDArray[Any],
    max_depth: int,
) -> NDArray[Any]:
    """The leaf node every row of ``inputs`` reaches from its root.

    ``roots[i]`` is the node index where row ``i``'s tree starts in the
    concatenated arrays, and child offsets are local to each tree, so a row
    moves to ``roots[i] + left[node]`` or ``roots[i] + right[node]``.  One
    iteration advances the still-internal rows one level; the active set
    shrinks as rows reach their leaves, so a level only pays for the rows
    still descending.  ``inputs`` must be C-contiguous float64: a row's
    split value is read from the flattened matrix in one gather.
    """
    width = inputs.shape[1]
    flat = inputs.reshape(-1)
    leaves = np.array(roots, dtype=np.int64)
    feat = feature[leaves]
    active = np.flatnonzero(feat != LEAF)
    base = leaves[active]
    node = base
    feat = feat[active]
    for _ in range(max_depth):
        if active.size == 0:
            break
        go_left = flat[active * width + feat] <= threshold[node]
        node = base + np.where(go_left, left[node], right[node])
        feat = feature[node]
        internal = feat != LEAF
        if not internal.all():
            done = (~internal).nonzero()[0]
            leaves[active[done]] = node[done]
            keep = internal.nonzero()[0]
            active, base, node, feat = active[keep], base[keep], node[keep], feat[keep]
    if active.size:
        raise ValueError(f"a tree is deeper than its recorded depth {max_depth}")
    return leaves


def _float_rows(inputs: Any) -> NDArray[Any]:
    """Policy inputs as a C-contiguous float64 matrix (no copy when already one)."""
    return np.ascontiguousarray(np.atleast_2d(np.asarray(inputs, dtype=np.float64)))


class CompiledTreePolicy:
    """A :class:`TreePolicy` flattened into contiguous arrays for serving."""

    def __init__(
        self,
        feature: NDArray[Any],
        threshold: NDArray[Any],
        left: NDArray[Any],
        right: NDArray[Any],
        leaf_action: NDArray[Any],
        action_pairs: NDArray[Any],
        n_features: int,
        depth: int,
        feature_names: Optional[Sequence[str]] = None,
        city: Optional[str] = None,
    ):
        self.feature = _as_typed(feature, ARRAY_DTYPES["feature"])
        self.threshold = _as_typed(threshold, ARRAY_DTYPES["threshold"])
        self.left = _as_typed(left, ARRAY_DTYPES["left"])
        self.right = _as_typed(right, ARRAY_DTYPES["right"])
        self.leaf_action = _as_typed(leaf_action, ARRAY_DTYPES["leaf_action"])
        self.action_pairs = _as_typed(action_pairs, ARRAY_DTYPES["action_pairs"])
        self.n_features = int(n_features)
        self.depth = int(depth)
        self.feature_names = list(feature_names) if feature_names is not None else None
        self.city = city

    # ------------------------------------------------------------- building
    @classmethod
    def from_policy(cls, policy: TreePolicy) -> "CompiledTreePolicy":
        """Flatten a (fitted) tree policy via pre-order traversal.

        The depth is measured on the traversal itself rather than read from
        the nodes' ``depth`` fields, which hand-built trees may leave unset:
        the descent runs exactly that many levels.
        """
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        leaf_action: List[int] = []
        depth = 0

        def _flatten(node: Any, level: int) -> int:
            nonlocal depth
            index = len(feature)
            depth = max(depth, level)
            if node.is_leaf:
                feature.append(LEAF)
                threshold.append(0.0)
                left.append(LEAF)
                right.append(LEAF)
                leaf_action.append(int(node.prediction))
            else:
                feature.append(int(node.feature_index))
                threshold.append(float(node.threshold))
                left.append(0)  # patched below once the subtree is laid out
                right.append(0)
                leaf_action.append(LEAF)
                left[index] = _flatten(node.left, level + 1)
                right[index] = _flatten(node.right, level + 1)
            return index

        _flatten(policy.tree.root, 0)
        return cls(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            leaf_action=np.array(leaf_action, dtype=np.int64),
            action_pairs=np.array(
                [list(pair) for pair in policy.action_pairs], dtype=np.int64
            ),
            n_features=policy.input_dim,
            depth=max(depth, 1),
            feature_names=policy.feature_names,
            city=policy.city,
        )

    @classmethod
    def from_views(
        cls,
        feature: NDArray[Any],
        threshold: NDArray[Any],
        left: NDArray[Any],
        right: NDArray[Any],
        leaf_action: NDArray[Any],
        action_pairs: NDArray[Any],
        n_features: int,
        depth: int,
        feature_names: Optional[Sequence[str]] = None,
        city: Optional[str] = None,
    ) -> "CompiledTreePolicy":
        """Wrap existing typed array views with zero copies (arena serving).

        Every array must already be an ndarray of its declared serving dtype
        (:data:`ARRAY_DTYPES`) — the constructor then adopts the objects
        as-is, so an arena-backed mmap slice stays an mmap slice.  All six
        arrays on the returned policy are ``writeable=False``: mmap views
        arrive read-only already, and in-memory arrays are frozen through a
        zero-copy view, so no serving-path bug can ever scribble on pages
        shared across shard processes.
        """
        arrays = {
            "feature": feature,
            "threshold": threshold,
            "left": left,
            "right": right,
            "leaf_action": leaf_action,
            "action_pairs": action_pairs,
        }
        for name, array in arrays.items():
            expected = ARRAY_DTYPES[name]
            if not isinstance(array, np.ndarray) or array.dtype != expected:
                got = getattr(array, "dtype", type(array).__name__)
                raise ValueError(
                    f"from_views requires a {expected} ndarray for {name!r}, "
                    f"got {got} (use the regular constructor to convert)"
                )
        policy = cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            leaf_action=leaf_action,
            action_pairs=action_pairs,
            n_features=n_features,
            depth=depth,
            feature_names=feature_names,
            city=city,
        )
        for name in arrays:
            array = getattr(policy, name)
            if array.flags.writeable:
                frozen = array.view()
                frozen.flags.writeable = False
                setattr(policy, name, frozen)
        return policy

    # -------------------------------------------------------------- serving
    @property
    def node_count(self) -> int:
        """Total flattened nodes (internal + leaves)."""
        return len(self.feature)

    @property
    def leaf_count(self) -> int:
        """Leaves in the flattened tree (``feature == LEAF`` entries)."""
        return int(np.count_nonzero(self.feature == LEAF))

    @property
    def num_actions(self) -> int:
        """Rows of the ``(A, 2)`` (heating, cooling) action-pair table."""
        return len(self.action_pairs)

    def predict_batch(self, inputs: NDArray[Any]) -> NDArray[Any]:
        """Action indices for a batch of policy inputs, fully vectorised."""
        inputs = _float_rows(inputs)
        if inputs.ndim != 2 or inputs.shape[1] != self.n_features:
            raise ValueError(
                f"Expected policy inputs of shape (rows, {self.n_features}), "
                f"got {inputs.shape}"
            )
        nodes = _descend(
            self.feature,
            self.threshold,
            self.left,
            self.right,
            np.zeros(len(inputs), dtype=np.int64),
            inputs,
            self.depth,
        )
        return self.leaf_action[nodes]

    def setpoints_batch(self, inputs: NDArray[Any]) -> NDArray[Any]:
        """(heating, cooling) setpoint pairs for a batch, shape ``(rows, 2)``."""
        return self.action_pairs[self.predict_batch(inputs)]

    def predict_action_index(self, policy_input: NDArray[Any]) -> int:
        """Single-request convenience mirroring ``TreePolicy.predict_action_index``."""
        return int(self.predict_batch(np.asarray(policy_input, dtype=float).reshape(1, -1))[0])


class CompiledTreeForest:
    """Many compiled trees in concatenated arrays, descended in one pass.

    The six node and action arrays hold every tree back to back, exactly as
    the packed arena lays them out: child offsets stay local to each tree,
    ``node_start[t]`` is where tree ``t``'s nodes begin and
    ``action_start[t]`` where its ``(heating, cooling)`` table begins.
    :meth:`predict` routes row ``i`` through tree ``trees[i]``, so a batch
    that mixes any number of policies resolves in ``depth`` vectorised steps
    with no grouping, sorting or per-policy loop.

    The arrays are adopted without copying when they already carry their
    serving dtypes (an arena's mmap sections stay mmap views) and are held
    read-only.  Trees may differ in input width; ``n_features[t]`` is tree
    ``t``'s, and every row must match its own tree's width.
    """

    def __init__(
        self,
        feature: NDArray[Any],
        threshold: NDArray[Any],
        left: NDArray[Any],
        right: NDArray[Any],
        leaf_action: NDArray[Any],
        action_pairs: NDArray[Any],
        node_start: NDArray[Any],
        action_start: NDArray[Any],
        n_features: NDArray[Any],
        depth: int,
    ):
        def frozen(values: Any, dtype: "np.dtype[Any]") -> NDArray[Any]:
            view = _as_typed(values, dtype).view()
            view.flags.writeable = False
            return view

        self.feature = frozen(feature, ARRAY_DTYPES["feature"])
        self.threshold = frozen(threshold, ARRAY_DTYPES["threshold"])
        self.left = frozen(left, ARRAY_DTYPES["left"])
        self.right = frozen(right, ARRAY_DTYPES["right"])
        self.leaf_action = frozen(leaf_action, ARRAY_DTYPES["leaf_action"])
        self.action_pairs = frozen(action_pairs, ARRAY_DTYPES["action_pairs"])
        self.node_start = frozen(node_start, np.dtype(np.int64))
        self.action_start = frozen(action_start, np.dtype(np.int64))
        self.n_features = frozen(n_features, np.dtype(np.int64))
        self.depth = int(depth)

    @classmethod
    def from_compiled(cls, policies: Sequence[CompiledTreePolicy]) -> "CompiledTreeForest":
        """Concatenate compiled policies into one forest (tree ``t`` is ``policies[t]``)."""
        if not policies:
            raise ValueError("CompiledTreeForest needs at least one compiled policy")
        node_counts = np.array([p.node_count for p in policies], dtype=np.int64)
        action_counts = np.array([p.num_actions for p in policies], dtype=np.int64)
        return cls(
            feature=np.concatenate([p.feature for p in policies]),
            threshold=np.concatenate([p.threshold for p in policies]),
            left=np.concatenate([p.left for p in policies]),
            right=np.concatenate([p.right for p in policies]),
            leaf_action=np.concatenate([p.leaf_action for p in policies]),
            action_pairs=np.concatenate([p.action_pairs for p in policies]),
            node_start=np.cumsum(node_counts) - node_counts,
            action_start=np.cumsum(action_counts) - action_counts,
            n_features=np.array([p.n_features for p in policies], dtype=np.int64),
            depth=max(p.depth for p in policies),
        )

    @classmethod
    def from_policies(cls, policies: Sequence[TreePolicy]) -> "CompiledTreeForest":
        """Compile and fuse (fitted) tree policies that share one input dimension."""
        dims = {p.input_dim for p in policies}
        if len(dims) > 1:
            raise ValueError(f"All trees must share one input dimension, got {sorted(dims)}")
        return cls.from_compiled([CompiledTreePolicy.from_policy(p) for p in policies])

    @property
    def size(self) -> int:
        """Tree count (``predict_rows`` expects one input row per tree)."""
        return len(self.node_start)

    def check_inputs(self, trees: NDArray[Any], inputs: Any) -> NDArray[Any]:
        """``inputs`` as float64 rows, after checking every tree's input width.

        ``trees`` may be the per-row tree indices or just the distinct ones;
        the error reports the shape of ``inputs`` as given.
        """
        rows = _float_rows(inputs)
        if rows.ndim != 2:
            raise ValueError(f"Expected a matrix of policy inputs, got {np.shape(inputs)}")
        widths = self.n_features[trees]
        wrong = np.flatnonzero(widths != rows.shape[1])
        if wrong.size:
            raise ValueError(
                f"Expected policy inputs of shape (rows, {int(widths[wrong[0]])}), "
                f"got {np.shape(inputs)}"
            )
        return rows

    def predict(self, trees: NDArray[Any], inputs: Any) -> Tuple[NDArray[Any], NDArray[Any]]:
        """Row ``i`` of ``inputs`` through tree ``trees[i]``.

        Returns ``(actions, pairs)``: each row's action index into its own
        tree's table, and the ``(rows, 2)`` setpoint pairs gathered from
        ``action_pairs[action_start[tree] + action]``.
        """
        trees = np.asarray(trees, dtype=np.int64)
        rows = self.check_inputs(trees, inputs)
        if len(trees) != len(rows):
            raise ValueError(f"{len(trees)} tree indices for {len(rows)} input rows")
        nodes = _descend(
            self.feature,
            self.threshold,
            self.left,
            self.right,
            self.node_start[trees],
            rows,
            self.depth,
        )
        actions = self.leaf_action[nodes]
        return actions, self.action_pairs[self.action_start[trees] + actions]

    def predict_rows(self, inputs: NDArray[Any]) -> NDArray[Any]:
        """Row ``i`` of ``inputs`` through tree ``i``; returns action indices."""
        rows = _float_rows(inputs)
        if rows.shape[0] != self.size:
            raise ValueError(
                f"Expected inputs of shape ({self.size}, features), got {rows.shape}"
            )
        return self.predict(np.arange(self.size), rows)[0]
