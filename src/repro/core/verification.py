"""Offline verification of decision-tree policies (Section 3.3).

Two verifiers are implemented:

* :func:`verify_criteria_2_3` — **Algorithm 1** of the paper.  It enumerates
  every leaf, reconstructs its unique root-to-leaf decision path, intersects
  the half-spaces along the path into an axis-aligned input box, determines
  whether that box contains any too-warm / too-cold zone temperatures and, if
  so, checks that the leaf's setpoints respond in the correct direction.
  Failing leaves are *corrected in place* by setting their setpoints to the
  median of the comfort zone, which yields a 100% guarantee on criteria #2/#3.

* :func:`verify_criterion_1` — the probabilistic verifier.  It samples start
  states from the augmented historical distribution restricted to the safe set
  and checks one-step safety ``f_hat(x, T(x)) in S``; the paper proves this
  one-step estimate equals the H-step forward-reachability-tube estimate while
  allowing full batching.  A bootstrapped H-step variant is also provided
  (:func:`verify_criterion_1_bootstrap`) so the equivalence can be checked
  empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.criteria import VerificationCriteria
from repro.core.sampling import AugmentedHistoricalSampler
from repro.core.tree_policy import TreePolicy, ZONE_TEMPERATURE_FEATURE
from repro.utils.rng import RNGLike, ensure_rng


# --------------------------------------------------------------------- reports
@dataclass
class LeafVerificationRecord:
    """Verification outcome for a single leaf."""

    leaf_id: int
    zone_temperature_interval: tuple
    heating_setpoint: int
    cooling_setpoint: int
    subject_to_criterion_2: bool
    subject_to_criterion_3: bool
    violates_criterion_2: bool
    violates_criterion_3: bool
    corrected: bool


@dataclass
class FormalVerificationReport:
    """Result of Algorithm 1 over a whole policy."""

    total_nodes: int
    total_leaves: int
    leaves_subject_to_criterion_2: int
    leaves_subject_to_criterion_3: int
    violations_criterion_2: int
    violations_criterion_3: int
    corrected_criterion_2: int
    corrected_criterion_3: int
    records: List[LeafVerificationRecord] = field(default_factory=list)

    @property
    def total_corrected(self) -> int:
        return self.corrected_criterion_2 + self.corrected_criterion_3

    @property
    def satisfied(self) -> bool:
        """Whether the policy (after any corrections) satisfies criteria #2/#3."""
        return (
            self.violations_criterion_2 == self.corrected_criterion_2
            and self.violations_criterion_3 == self.corrected_criterion_3
        )

    @classmethod
    def from_dict(cls, data: dict) -> "FormalVerificationReport":
        """Rebuild a report persisted through ``to_jsonable`` (policy store)."""
        records = [
            LeafVerificationRecord(
                leaf_id=int(r["leaf_id"]),
                zone_temperature_interval=tuple(r["zone_temperature_interval"]),
                heating_setpoint=int(r["heating_setpoint"]),
                cooling_setpoint=int(r["cooling_setpoint"]),
                subject_to_criterion_2=bool(r["subject_to_criterion_2"]),
                subject_to_criterion_3=bool(r["subject_to_criterion_3"]),
                violates_criterion_2=bool(r["violates_criterion_2"]),
                violates_criterion_3=bool(r["violates_criterion_3"]),
                corrected=bool(r["corrected"]),
            )
            for r in data.get("records", [])
        ]
        return cls(
            total_nodes=int(data["total_nodes"]),
            total_leaves=int(data["total_leaves"]),
            leaves_subject_to_criterion_2=int(data["leaves_subject_to_criterion_2"]),
            leaves_subject_to_criterion_3=int(data["leaves_subject_to_criterion_3"]),
            violations_criterion_2=int(data["violations_criterion_2"]),
            violations_criterion_3=int(data["violations_criterion_3"]),
            corrected_criterion_2=int(data["corrected_criterion_2"]),
            corrected_criterion_3=int(data["corrected_criterion_3"]),
            records=records,
        )


@dataclass
class ProbabilisticVerificationReport:
    """Result of the criterion #1 Monte-Carlo verification."""

    safe_probability: float
    num_samples: int
    threshold: float
    passed: bool
    method: str = "one_step"

    @classmethod
    def from_dict(cls, data: dict) -> "ProbabilisticVerificationReport":
        return cls(
            safe_probability=float(data["safe_probability"]),
            num_samples=int(data["num_samples"]),
            threshold=float(data["threshold"]),
            passed=bool(data["passed"]),
            method=str(data.get("method", "one_step")),
        )


@dataclass
class VerificationSummary:
    """Everything Table 2 of the paper reports for one city's policy."""

    city: Optional[str]
    total_nodes: int
    leaf_nodes: int
    safe_probability: float
    corrected_criterion_2: int
    corrected_criterion_3: int
    criterion_1_passed: bool
    formal_report: FormalVerificationReport = None
    probabilistic_report: ProbabilisticVerificationReport = None

    def as_row(self) -> List:
        """Row of the Table 2 reproduction."""
        return [
            self.city or "-",
            self.total_nodes,
            self.leaf_nodes,
            self.safe_probability,
            self.corrected_criterion_2,
            self.corrected_criterion_3,
        ]

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationSummary":
        """Rebuild a summary persisted through ``to_jsonable`` (policy store)."""
        formal = data.get("formal_report")
        probabilistic = data.get("probabilistic_report")
        return cls(
            city=data.get("city"),
            total_nodes=int(data["total_nodes"]),
            leaf_nodes=int(data["leaf_nodes"]),
            safe_probability=float(data["safe_probability"]),
            corrected_criterion_2=int(data["corrected_criterion_2"]),
            corrected_criterion_3=int(data["corrected_criterion_3"]),
            criterion_1_passed=bool(data["criterion_1_passed"]),
            formal_report=FormalVerificationReport.from_dict(formal) if formal else None,
            probabilistic_report=(
                ProbabilisticVerificationReport.from_dict(probabilistic)
                if probabilistic
                else None
            ),
        )


# ---------------------------------------------------------------- Algorithm 1
def verify_criteria_2_3(
    policy: TreePolicy,
    criteria: VerificationCriteria,
    correct: bool = True,
) -> FormalVerificationReport:
    """Formal decision-path verification of criteria #2 and #3 (Algorithm 1).

    Parameters
    ----------
    policy:
        The extracted decision-tree policy.
    criteria:
        The verification criteria (comfort range and correction target).
    correct:
        When True (the default, as in the paper), failing leaves are edited in
        place so the returned policy carries a 100% guarantee.
    """
    z_lower = criteria.safety.lower
    z_upper = criteria.safety.upper
    records: List[LeafVerificationRecord] = []
    subject_2 = subject_3 = 0
    violations_2 = violations_3 = 0
    corrected_2 = corrected_3 = 0

    for region in policy.leaf_regions():
        box = region.box
        temp_low, temp_high = box.interval(ZONE_TEMPERATURE_FEATURE)
        heating, cooling = policy.leaf_setpoints(region.leaf)

        # Does this leaf handle any inputs whose zone temperature is too warm /
        # too cold?  (Algorithm 1, line 6: the box intersects the unsafe set.)
        handles_too_warm = temp_high > z_upper
        handles_too_cold = temp_low < z_lower
        violates_2 = violates_3 = False

        if handles_too_warm:
            subject_2 += 1
            # The zone temperatures this leaf must respond to are
            # (max(temp_low, z_upper), temp_high]; the cooling setpoint must lie
            # below every one of them.
            infimum = max(temp_low, z_upper)
            if temp_low > z_upper:
                # The box lies strictly in the too-warm region, including its
                # lower edge, so the setpoint must be strictly below that edge.
                violates_2 = not (cooling < infimum)
            else:
                violates_2 = not (cooling <= infimum)
            if violates_2:
                violations_2 += 1

        if handles_too_cold:
            subject_3 += 1
            supremum = min(temp_high, z_lower)
            if temp_high < z_lower:
                violates_3 = not (heating > supremum)
            else:
                violates_3 = not (heating >= supremum)
            if violates_3:
                violations_3 += 1

        corrected = False
        if correct and (violates_2 or violates_3):
            corrective_heating, corrective_cooling = criteria.corrective_setpoints()
            policy.set_leaf_action(
                region.leaf, int(round(corrective_heating)), int(round(corrective_cooling))
            )
            corrected = True
            if violates_2:
                corrected_2 += 1
            if violates_3:
                corrected_3 += 1
            heating, cooling = policy.leaf_setpoints(region.leaf)

        records.append(
            LeafVerificationRecord(
                leaf_id=region.leaf.node_id,
                zone_temperature_interval=(temp_low, temp_high),
                heating_setpoint=heating,
                cooling_setpoint=cooling,
                subject_to_criterion_2=handles_too_warm,
                subject_to_criterion_3=handles_too_cold,
                violates_criterion_2=violates_2,
                violates_criterion_3=violates_3,
                corrected=corrected,
            )
        )

    return FormalVerificationReport(
        total_nodes=policy.node_count,
        total_leaves=policy.leaf_count,
        leaves_subject_to_criterion_2=subject_2,
        leaves_subject_to_criterion_3=subject_3,
        violations_criterion_2=violations_2,
        violations_criterion_3=violations_3,
        corrected_criterion_2=corrected_2,
        corrected_criterion_3=corrected_3,
        records=records,
    )


# ----------------------------------------------------------------- criterion 1
def _sample_safe_start_states(
    sampler: AugmentedHistoricalSampler,
    criteria: VerificationCriteria,
    num_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample policy inputs whose zone temperature lies in the safe set.

    Samples are drawn from the augmented historical distribution; the zone
    temperature feature is clipped into the comfort range so every start state
    belongs to the set S that criterion #1 quantifies over, while the
    disturbance components keep their historical distribution.
    """
    samples = sampler.sample(num_samples, rng)
    samples[:, ZONE_TEMPERATURE_FEATURE] = np.clip(
        samples[:, ZONE_TEMPERATURE_FEATURE], criteria.safety.lower, criteria.safety.upper
    )
    return samples


def verify_criterion_1(
    policy: TreePolicy,
    dynamics_model,
    sampler: AugmentedHistoricalSampler,
    criteria: VerificationCriteria,
    num_samples: int = 2000,
    seed: RNGLike = None,
) -> ProbabilisticVerificationReport:
    """One-step probabilistic verification of criterion #1.

    Repeatedly sample a safe start state ``x`` from the augmented historical
    distribution, apply the tree policy, predict the next state with the
    learned dynamics model and count how often the next state is still safe.
    By the paper's argument this estimates the same failure probability as
    checking full H-step reachability tubes, with far less computation.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    rng = ensure_rng(seed)
    samples = _sample_safe_start_states(sampler, criteria, num_samples, rng)

    actions = np.array([policy.setpoints_for(row) for row in samples], dtype=float)
    states = samples[:, ZONE_TEMPERATURE_FEATURE]
    disturbances = samples[:, 1:]
    prediction = dynamics_model.predict(states, disturbances, actions)
    next_states = prediction[0] if isinstance(prediction, tuple) else prediction

    safe = (next_states >= criteria.safety.lower) & (next_states <= criteria.safety.upper)
    safe_probability = float(np.mean(safe))
    return ProbabilisticVerificationReport(
        safe_probability=safe_probability,
        num_samples=num_samples,
        threshold=criteria.safe_probability_threshold,
        passed=criteria.criterion_1_satisfied(safe_probability),
        method="one_step",
    )


def verify_criterion_1_bootstrap(
    policy: TreePolicy,
    dynamics_model,
    sampler: AugmentedHistoricalSampler,
    criteria: VerificationCriteria,
    num_samples: int = 200,
    seed: RNGLike = None,
) -> ProbabilisticVerificationReport:
    """H-step bootstrapped verification of criterion #1 (the slow baseline).

    For every sampled safe start state, roll the closed loop (tree policy +
    dynamics model) forward for ``criteria.horizon`` steps under a persistence
    disturbance forecast and mark the start state unsafe if any state along the
    trajectory leaves the comfort range.  Kept for validating the paper's
    one-step equivalence argument and for the verification-overhead ablation.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    rng = ensure_rng(seed)
    samples = _sample_safe_start_states(sampler, criteria, num_samples, rng)

    failures = 0
    for row in samples:
        state = float(row[ZONE_TEMPERATURE_FEATURE])
        disturbance = row[1:]
        trajectory_safe = True
        current = state
        for _t in range(criteria.horizon):
            heating, cooling = policy.setpoints_for(np.concatenate(([current], disturbance)))
            prediction = dynamics_model.predict(
                np.array([current]), disturbance.reshape(1, -1), np.array([[heating, cooling]])
            )
            current = float(prediction[0][0] if isinstance(prediction, tuple) else prediction[0])
            if not criteria.safety.is_safe(current):
                trajectory_safe = False
                break
        if not trajectory_safe:
            failures += 1

    # The safe count over the sample count, computed as the one-step verifier
    # computes it, so equal counts report the same float.
    safe_probability = (num_samples - failures) / num_samples
    return ProbabilisticVerificationReport(
        safe_probability=safe_probability,
        num_samples=num_samples,
        threshold=criteria.safe_probability_threshold,
        passed=criteria.criterion_1_satisfied(safe_probability),
        method="bootstrap",
    )


# --------------------------------------------------------------------- summary
def verify_policy(
    policy: TreePolicy,
    dynamics_model,
    sampler: AugmentedHistoricalSampler,
    criteria: VerificationCriteria,
    num_probabilistic_samples: int = 2000,
    correct: bool = True,
    seed: RNGLike = None,
) -> VerificationSummary:
    """Run the full verification procedure and assemble a Table-2-style summary.

    Criteria #2/#3 are verified (and corrected) first, then criterion #1 is
    estimated on the corrected policy, matching the order of Fig. 2.
    """
    formal = verify_criteria_2_3(policy, criteria, correct=correct)
    probabilistic = verify_criterion_1(
        policy,
        dynamics_model,
        sampler,
        criteria,
        num_samples=num_probabilistic_samples,
        seed=seed,
    )
    return VerificationSummary(
        city=policy.city,
        total_nodes=policy.node_count,
        leaf_nodes=policy.leaf_count,
        safe_probability=probabilistic.safe_probability,
        corrected_criterion_2=formal.corrected_criterion_2,
        corrected_criterion_3=formal.corrected_criterion_3,
        criterion_1_passed=probabilistic.passed,
        formal_report=formal,
        probabilistic_report=probabilistic,
    )
