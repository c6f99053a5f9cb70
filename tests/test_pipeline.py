"""VerifiedPolicyPipeline on a tiny configuration."""

import numpy as np
import pytest

from repro.agents.dt_agent import DecisionTreeAgent
from repro.core.pipeline import PipelineConfig, PipelineResult, VerifiedPolicyPipeline
from repro.core.tree_policy import TreePolicy
from repro.utils.config import ComfortConfig


@pytest.fixture(scope="module")
def tiny_result() -> PipelineResult:
    return VerifiedPolicyPipeline(PipelineConfig.tiny(seed=3)).run()


def test_returns_tree_policy_and_reports(tiny_result):
    assert isinstance(tiny_result.policy, TreePolicy)
    assert tiny_result.policy.leaf_count > 1
    assert 0.0 <= tiny_result.fidelity <= 1.0
    assert 0.0 <= tiny_result.verification.safe_probability <= 1.0
    assert tiny_result.verification.formal_report is not None
    assert tiny_result.verification.probabilistic_report is not None


def test_correction_guarantees_formal_criteria(tiny_result):
    # After leaf correction the policy must carry the 100% guarantee on #2/#3.
    assert tiny_result.verification.formal_report.satisfied


def test_policy_drives_environment(tiny_result):
    agent = tiny_result.agent()
    assert isinstance(agent, DecisionTreeAgent)
    env = VerifiedPolicyPipeline(tiny_result.config).build_environment()
    observation, _ = env.reset()
    for step in range(8):
        action = agent.select_action(observation, env, step)
        assert 0 <= action < env.action_space.n
        observation = env.step(action).observation


def test_stage_timings_and_summary(tiny_result):
    expected = {"environment", "historical_data", "dynamics_model", "extraction", "verification"}
    assert expected <= set(tiny_result.stage_seconds)
    summary = tiny_result.summary_dict()
    assert summary["city"] == "pittsburgh"
    assert summary["tree_leaves"] == tiny_result.policy.leaf_count


def test_pipeline_is_deterministic():
    a = VerifiedPolicyPipeline(PipelineConfig.tiny(seed=9)).run()
    b = VerifiedPolicyPipeline(PipelineConfig.tiny(seed=9)).run()
    assert a.policy.to_dict() == b.policy.to_dict()
    assert a.verification.safe_probability == b.verification.safe_probability
    assert np.allclose(a.decision_dataset.inputs, b.decision_dataset.inputs)


def test_reusing_intermediates_skips_stages(tiny_result):
    pipeline = VerifiedPolicyPipeline(tiny_result.config)
    rerun = pipeline.run(
        historical_data=tiny_result.historical_data,
        dynamics_model=tiny_result.dynamics_model,
        decision_dataset=tiny_result.decision_dataset,
    )
    assert rerun.policy.to_dict() == tiny_result.policy.to_dict()


def test_config_validation_and_season():
    with pytest.raises(ValueError):
        PipelineConfig(season="spring")
    summer = PipelineConfig.tiny(season="summer")
    assert summer.comfort == ComfortConfig.summer()
    assert summer.experiment_config().simulation.start_month == 7


def test_save_policy_round_trip(tmp_path, tiny_result):
    path = tmp_path / "policy.json"
    tiny_result.save_policy(path)
    from repro.utils.serialization import load_json

    payload = load_json(path)
    restored = TreePolicy.from_dict(payload["policy"])
    probe = np.array([22.0, 0.0, 60.0, 3.0, 100.0, 5.0])
    assert restored.setpoints_for(probe) == tiny_result.policy.setpoints_for(probe)


def test_bootstrap_verifier_reports_the_one_step_float_at_horizon_1():
    # At H = 1 both verifiers count the same safe starts, the bootstrap one a
    # row at a time and the one-step one in a single batch, so the reported
    # probabilities must be the same float, not merely close.
    import dataclasses

    from repro.core.verification import verify_criterion_1, verify_criterion_1_bootstrap

    config = PipelineConfig.tiny(seed=0)
    result = VerifiedPolicyPipeline(config).run()
    criteria = dataclasses.replace(config.criteria(), horizon=1)
    for num_samples in (64, 256, 1000):
        reports = [
            verify(
                result.policy,
                result.dynamics_model,
                result.sampler,
                criteria,
                num_samples=num_samples,
                seed=7,
            )
            for verify in (verify_criterion_1, verify_criterion_1_bootstrap)
        ]
        assert reports[1].safe_probability == reports[0].safe_probability, num_samples
