"""Reward shaping, PPO mechanics, candidate evaluation, search accounting."""

import os

import numpy as np
import pytest

from auxnas.autodiff import ContractError
from auxnas.auxiliary import AuxCell, Genotype
from auxnas.controller import ControllerPolicy
from auxnas.data import SyntheticDataset, gen_synthetic
from auxnas.layers import AdaptorOp
from auxnas.model import ConfigError, TaskSpec
from auxnas.search import (
    EvalCfg,
    PpoCfg,
    PpoState,
    RewardRecord,
    SearchCfg,
    candidate_seed,
    compute_reward,
    evaluate_candidate,
    operator_frequencies,
    ppo_update,
    score_metric,
    search_loop,
)

TASKS2 = [TaskSpec("seg", 5), TaskSpec("depth")]


@pytest.fixture(scope="module")
def meta_ds(tmp_path_factory):
    root = tmp_path_factory.mktemp("searchdata") / "ds"
    gen_synthetic(str(root), seed=21, n=30, h=16, w=16, val_n=4, test_n=2)
    return SyntheticDataset(str(root))


class TestReward:
    def test_geometric_mean_example(self):
        reward, diverged = compute_reward([(0.25, "higher"), (0.64, "higher")])
        assert not diverged
        assert abs(reward - 0.4) <= 1e-12

    def test_perfect_run(self):
        reward, _ = compute_reward([(1.0, "higher"), (0.0, "lower")])
        assert reward == 1.0

    def test_angle_normalization(self):
        assert score_metric(180.0, "angle") == 0.5
        assert score_metric(0.0, "angle") == 1.0

    def test_nan_flags_divergence(self):
        reward, diverged = compute_reward([(float("nan"), "lower"), (0.5, "higher")])
        assert reward == 0.0 and diverged

    def test_monotone_decreasing_in_errors(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            e = float(rng.uniform(0.01, 5.0))
            other = float(rng.uniform(0.1, 1.0))
            kind = rng.choice(["lower", "angle"])
            lo, _ = compute_reward([(e, kind), (other, "higher")])
            hi, _ = compute_reward([(e + rng.uniform(0.01, 1.0), kind), (other, "higher")])
            assert hi < lo

    def test_reward_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            metrics = [(float(rng.uniform(0, 1)), "higher"),
                       (float(rng.uniform(0, 10)), "lower"),
                       (float(rng.uniform(0, 180)), "angle")]
            r, _ = compute_reward(metrics)
            assert 0.0 <= r <= 1.0


class TestPpo:
    def make(self, seed=0):
        policy = ControllerPolicy(2, 1, np.random.default_rng(seed))
        return policy

    def snapshot(self, policy):
        return {p: policy.params[p].values.copy() for p in policy.params.paths()}

    def test_zero_advantage_bitwise_unchanged(self):
        policy = self.make()
        s = policy.sample(np.random.default_rng(1), 4)
        before = self.snapshot(policy)
        state = PpoState(baseline=0.5)
        batch = [(s.tokens[i], s.log_probs[i], 0.5) for i in range(4)]
        ppo_update(policy, batch, state, PpoCfg(entropy_coef=0.0))
        after = self.snapshot(policy)
        for p in before:
            assert np.array_equal(before[p], after[p])

    def test_clip_saturation_blocks_gradient(self):
        policy = self.make(seed=2)
        s = policy.sample(np.random.default_rng(3), 4)
        # fake old log-probs far below current ones: ratio >> 1 + eps everywhere
        old = s.log_probs - 1.0
        before = self.snapshot(policy)
        state = PpoState(baseline=0.0)
        batch = [(s.tokens[i], old[i], 1.0) for i in range(4)]
        ppo_update(policy, batch, state, PpoCfg(entropy_coef=0.0, epochs=1))
        after = self.snapshot(policy)
        for p in before:
            assert np.array_equal(before[p], after[p])

    def test_surrogate_decreases_over_epochs(self):
        wins = 0
        trials = 20
        for seed in range(trials):
            policy = self.make(seed=seed)
            s = policy.sample(np.random.default_rng(seed + 50), 8)
            rewards = np.random.default_rng(seed + 99).uniform(0, 1, 8)
            state = PpoState()
            batch = [(s.tokens[i], s.log_probs[i], float(rewards[i])) for i in range(8)]
            losses = ppo_update(policy, batch, state, PpoCfg(epochs=4))
            wins += losses[-1] < losses[0]
        assert wins >= 0.9 * trials

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            ppo_update(self.make(), [], PpoState())

    def test_bandit_learns_designated_token(self):
        # small-scale version of the convergence criterion
        policy = ControllerPolicy(4, 2, np.random.default_rng(0))
        rng = np.random.default_rng(100)
        state = PpoState()
        for _ in range(120):
            s = policy.sample(rng, 16)
            batch = [(s.tokens[i], s.log_probs[i],
                      1.0 if s.tokens[i, 2] == int(AdaptorOp.CONV1X1) else 0.1)
                     for i in range(16)]
            ppo_update(policy, batch, state)
        probe = policy.sample(np.random.default_rng(999), 300)
        assert (probe.tokens[:, 2] == int(AdaptorOp.CONV1X1)).mean() >= 0.9


class TestEvaluateCandidate:
    def test_invalid_genotype_short_circuits(self, meta_ds):
        cfg = EvalCfg(dataset=meta_ds, variant="baseline", tasks=TASKS2, short_iters=50)
        bad = Genotype(4, 2, tuple(
            tuple(AuxCell(0, 0, int(AdaptorOp.SKIP_CONNECT), 1, 0) if (ti, pi) == (0, 0)
                  else AuxCell(0, 0, 1, 1, 0) for pi in range(4))
            for ti in range(2)))
        rec = evaluate_candidate(bad, cfg, seed=5)
        assert rec.reward == 0.0 and rec.budget_iters == 0

    def test_deterministic_reward(self, meta_ds):
        cfg = EvalCfg(dataset=meta_ds, variant="baseline", tasks=TASKS2,
                      short_iters=8, batch=4)
        g = Genotype(4, 2, tuple(
            tuple(AuxCell(0, min(pi, 3), 1, 1, 0) for pi in range(4)) for _ in range(2)))
        a = evaluate_candidate(g, cfg, seed=9)
        b = evaluate_candidate(g, cfg, seed=9)
        assert a.reward == b.reward and a.metrics == b.metrics
        assert 0.0 < a.reward < 1.0


class TestSearchLoop:
    def fake_evaluator(self, scores):
        def ev(genotype, cid):
            return RewardRecord(candidate_id=cid, seed=cid, genotype=genotype,
                                metrics={}, reward=scores(genotype, cid), diverged=False,
                                budget_iters=0, wall_ms=0)
        return ev

    def test_zero_budget(self):
        policy = ControllerPolicy(2, 1, np.random.default_rng(0))
        res = search_loop(policy, SearchCfg(candidates=0, batch=4), None,
                          evaluator=self.fake_evaluator(lambda g, c: 0.5))
        assert res.records == [] and res.best_genotype is None

    def test_log_length_and_running_best(self):
        policy = ControllerPolicy(2, 1, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        res = search_loop(policy, SearchCfg(candidates=21, batch=8), None,
                          evaluator=self.fake_evaluator(
                              lambda g, c: float(rng.uniform(0, 1))))
        assert len(res.records) == 21
        assert [r.candidate_id for r in res.records] == list(range(21))
        running = -1.0
        for r in res.records:
            running = max(running, r.reward)
        assert res.best_reward == running
        assert len(res.opstats) == 3  # ceil(21/8) updates

    def test_deterministic_given_seed(self):
        def run():
            policy = ControllerPolicy(2, 1, np.random.default_rng(3))
            return search_loop(policy, SearchCfg(candidates=12, batch=6, seed=4), None,
                               evaluator=self.fake_evaluator(
                                   lambda g, c: (c % 5) / 5.0))
        a, b = run(), run()
        assert [r.reward for r in a.records] == [r.reward for r in b.records]
        assert a.best_genotype == b.best_genotype
        assert a.opstats == b.opstats

    def test_operator_frequencies_sum_to_one(self):
        rng = np.random.default_rng(8)
        from test_controller import random_valid_genotype
        gs = [random_valid_genotype(rng, 3, 2) for _ in range(10)]
        freq = operator_frequencies(gs)
        ad_sum = sum(v for k, v in freq.items() if not k.endswith(("_sum", "_concat")))
        assert abs(ad_sum - 1.0) <= 1e-9
        assert abs(freq["freq_sum"] + freq["freq_concat"] - 1.0) <= 1e-9

    def test_candidate_seed_stable(self):
        assert candidate_seed(3, 7) == candidate_seed(3, 7)
        assert candidate_seed(3, 7) != candidate_seed(3, 8)


def one_cpu(monkeypatch):
    """Run the search's candidates in this process, as with one usable CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


class TestWorkerPool:
    def search(self, meta_ds, variant="baseline"):
        policy = ControllerPolicy(4, 2, np.random.default_rng(3))
        cfg = EvalCfg(dataset=meta_ds, variant=variant, tasks=TASKS2, short_iters=4, batch=4)
        return search_loop(policy, SearchCfg(candidates=12, batch=6, seed=2), cfg)

    def test_byte_identical_at_one_and_two_workers(self, meta_ds, monkeypatch):
        def outputs(res):
            recs = [(r.candidate_id, r.seed, r.genotype, r.metrics, r.reward, r.diverged,
                     r.valid, r.budget_iters) for r in res.records]
            return repr((recs, res.opstats, res.best_genotype, res.best_reward))
        two = self.search(meta_ds)
        one_cpu(monkeypatch)
        one = self.search(meta_ds)
        assert any(r.valid for r in one.records)
        assert outputs(one) == outputs(two)

    def test_custom_evaluator_at_one_and_two_workers(self, monkeypatch):
        def ev(genotype, cid):
            return RewardRecord(candidate_id=cid, seed=cid, genotype=genotype,
                                metrics={"pid": os.getpid()}, reward=(cid % 5) / 5.0,
                                diverged=False, budget_iters=0, wall_ms=0)

        def search():
            policy = ControllerPolicy(2, 1, np.random.default_rng(3))
            res = search_loop(policy, SearchCfg(candidates=12, batch=6, seed=4), None,
                              evaluator=ev)
            pids = {r.metrics.pop("pid") for r in res.records}
            return pids, repr((res.records, res.opstats, res.best_genotype, res.best_reward))

        two_cpus = len(os.sched_getaffinity(0)) >= 2
        pids_two, two = search()
        one_cpu(monkeypatch)
        pids_one, one = search()
        assert pids_one == {os.getpid()}
        if two_cpus:
            assert os.getpid() not in pids_two
        assert one == two

    def test_worker_exception_reaches_the_caller(self, meta_ds):
        with pytest.raises(ConfigError, match="unknown variant"):
            self.search(meta_ds, variant="no-such-variant")


class TestSkipFrequencyTrend:
    def test_skip_connect_usage_declines(self):
        # skip-on-raw-tap genotypes score 0, so the controller should steer
        # away from the skip operator over the search
        from auxnas.auxiliary import Genotype as G
        from auxnas.layers import AdaptorOp as A

        def reward_fn(g: G, cid: int) -> float:
            for ti, cells in enumerate(g.cells):
                for c in cells:
                    for loc, op in ((c.in1, c.op1), (c.in2, c.op2)):
                        if op == int(A.SKIP_CONNECT) and loc < g.p:
                            return 0.0
            return 0.8

        policy = ControllerPolicy(4, 2, np.random.default_rng(42))
        ev = TestSearchLoop().fake_evaluator(reward_fn)
        res = search_loop(policy, SearchCfg(candidates=480, batch=16, seed=7), None,
                          evaluator=ev)
        early = np.mean([r["freq_skip_connect"] for r in res.opstats[:5]])
        late = np.mean([r["freq_skip_connect"] for r in res.opstats[-5:]])
        assert late < early


class TestTrainingHelps:
    def test_trained_candidate_beats_untrained(self, std_ds):
        # short training must strictly improve the reward on the standard set
        from test_aux import basic_chain_genotype
        g = basic_chain_genotype(4, 2)
        for seed in (10, 11, 12):
            untrained = evaluate_candidate(
                g, EvalCfg(dataset=std_ds, variant="baseline", tasks=TASKS2,
                           short_iters=0), seed=seed)
            trained = evaluate_candidate(
                g, EvalCfg(dataset=std_ds, variant="baseline", tasks=TASKS2,
                           short_iters=200), seed=seed)
            assert trained.reward > untrained.reward
