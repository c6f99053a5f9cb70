"""The decision-tree agent (the paper's contribution, deployment side).

The agent wraps a :class:`repro.core.tree_policy.TreePolicy` — an extracted
(and, typically, verified) decision tree — and evaluates it on the current
``(s, d)`` observation.  Evaluation is a handful of float comparisons, which is
where the 1000x-plus online-overhead reduction of Table 3 comes from, and the
mapping from input to action is exactly deterministic (Fig. 5).

Policies are resolved through the :class:`~repro.store.PolicyStore` by
default: the first ``from_config`` call for a configuration runs the
extract-verify pipeline and persists the artifact, every later call with the
same configuration is a pure cache hit.  In the batched experiment backend
the per-episode trees are fused into one
:class:`~repro.serving.compiled.CompiledTreeForest`, so a whole batch of
buildings decides in a few array operations per step.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.agents.base import BaseAgent
from repro.agents.registry import register_agent
from repro.data import ActionBatch
from repro.env.hvac_env import HVACEnvironment
from repro.utils.rng import RNGLike


@register_agent("dt", aliases=("tree", "decision_tree"))
class DecisionTreeAgent(BaseAgent):
    """Deploys an extracted (verified) decision-tree policy in the environment."""

    name = "DT"

    def __init__(self, policy):
        # ``policy`` is a repro.core.tree_policy.TreePolicy; typed loosely to
        # avoid an import cycle between agents and core.
        self.policy = policy
        self._compiled = None
        self._lookup_cache = None

    def select_action(
        self, observation: np.ndarray, environment: HVACEnvironment, step: int
    ) -> int:
        heating, cooling = self.policy.setpoints_for(np.asarray(observation, dtype=float))
        return environment.action_space.to_index(heating, cooling)

    # ------------------------------------------------------- batched selection
    def compiled_policy(self):
        """The policy flattened for vectorised serving (compiled once, cached)."""
        if self._compiled is None:
            self._compiled = self.policy.compiled()
        return self._compiled

    def _env_action_lookup(self, environment: HVACEnvironment) -> np.ndarray:
        """Policy action index -> environment action index, precomputed.

        The composition mirrors :meth:`select_action`: decode the tree label
        to a setpoint pair, then map the pair through the environment's
        action space.
        """
        if self._lookup_cache is not None and self._lookup_cache[0] is environment:
            return self._lookup_cache[1]
        lookup = np.fromiter(
            (
                environment.action_space.to_index(heating, cooling)
                for heating, cooling in self.policy.action_pairs
            ),
            dtype=np.int64,
            count=len(self.policy.action_pairs),
        )
        self._lookup_cache = (environment, lookup)
        return lookup

    @classmethod
    def select_actions_batch(
        cls,
        agents: Sequence["DecisionTreeAgent"],
        observations: np.ndarray,
        environments: Sequence[HVACEnvironment],
        step: int,
    ) -> ActionBatch:
        """Compiled fast path: all episodes through one forest traversal."""
        from repro.serving.compiled import CompiledTreeForest

        lead = agents[0]
        key = (
            tuple(id(agent) for agent in agents),
            tuple(id(env) for env in environments),
        )
        cache = getattr(lead, "_batch_forest_cache", None)
        if cache is None or cache[0] != key:
            forest = CompiledTreeForest.from_compiled(
                [agent.compiled_policy() for agent in agents]
            )
            lookups = np.stack(
                [agent._env_action_lookup(env) for agent, env in zip(agents, environments)]
            )
            cache = (key, forest, lookups)
            lead._batch_forest_cache = cache
        _, forest, lookups = cache
        tree_actions = forest.predict_rows(np.asarray(observations, dtype=np.float64))
        return ActionBatch(lookups[np.arange(len(agents)), tree_actions])

    # ----------------------------------------------------------- construction
    @classmethod
    def from_config(
        cls,
        environment: Optional[HVACEnvironment] = None,
        seed: RNGLike = None,
        policy=None,
        policy_path: Optional[str] = None,
        pipeline: Optional[dict] = None,
        store=None,
        refresh: bool = False,
        **kwargs,
    ) -> "DecisionTreeAgent":
        """Config hook: load or extract-and-verify a tree policy.

        Resolution order: an in-memory ``policy``; a ``policy_path`` pointing
        at JSON written by :meth:`repro.core.pipeline.PipelineResult.save_policy`
        (or a bare ``TreePolicy.to_dict`` payload); otherwise the
        :class:`~repro.store.PolicyStore` keyed by the pipeline configuration
        — a hit deserialises the stored policy with zero re-extraction, a
        miss runs a :class:`~repro.core.pipeline.VerifiedPolicyPipeline` on a
        tiny configuration matched to the environment's city and season
        (overridden by the ``pipeline`` dictionary) and persists the result.

        ``store`` accepts ``False`` (bypass persistence entirely), a path or
        a :class:`~repro.store.PolicyStore` (use that store) or ``None`` (the
        default store, ``$REPRO_POLICY_STORE`` aware).  ``refresh=True``
        forces re-extraction and overwrites the stored artifact.
        """
        # Imported lazily: repro.core.pipeline itself imports agent modules.
        from repro.core.pipeline import PipelineConfig, VerifiedPolicyPipeline
        from repro.core.tree_policy import TreePolicy
        from repro.utils.serialization import load_json

        if kwargs:
            raise TypeError(f"Unexpected options for the dt agent: {sorted(kwargs)}")
        if policy is not None:
            return cls(policy)
        if policy_path is not None:
            payload = load_json(policy_path)
            payload = payload.get("policy", payload)
            return cls(TreePolicy.from_dict(payload))

        overrides = dict(pipeline or {})
        if environment is not None:
            overrides.setdefault("city", environment.config.city)
            comfort = environment.config.reward.comfort
            overrides.setdefault(
                "season", "summer" if comfort.lower >= 22.0 else "winter"
            )
        if seed is not None:
            if isinstance(seed, np.random.Generator):
                overrides.setdefault("seed", int(seed.integers(0, 2**31 - 1)))
            elif isinstance(seed, (int, np.integer)):
                overrides.setdefault("seed", int(seed))
        config = PipelineConfig.tiny(**overrides)
        result = VerifiedPolicyPipeline(
            config, store=True if store is None else store
        ).run(refresh=refresh)
        return cls(result.policy)
