"""Token codec bijectivity and masked controller sampling."""

import numpy as np
import pytest

from auxnas.autodiff import ContractError
from auxnas.auxiliary import AuxCell, Genotype, available_locations
from auxnas.controller import ControllerPolicy, loc_mask, seq_length
from auxnas.layers import AdaptorOp, AggOp, GenotypeError


def random_valid_genotype(rng, p, t):
    cells = []
    for ti in range(t):
        row = []
        for pi in range(p):
            avail = available_locations(p, ti, pi)
            in1, in2 = rng.choice(avail, size=2, replace=True)
            row.append(AuxCell(int(in1), int(in2), int(rng.integers(0, 6)),
                               int(rng.integers(0, 6)), int(rng.integers(0, 2))))
        cells.append(tuple(row))
    return Genotype(p, t, tuple(cells))


class TestCodec:
    def test_sequence_length(self):
        assert seq_length(4, 2) == 40
        assert seq_length(1, 1) == 5

    def test_all_zeros_decode(self):
        g = Genotype.from_tokens(4, 2, [0] * 40)
        for task_cells in g.cells:
            for c in task_cells:
                assert (c.in1, c.in2) == (0, 0)
                assert c.op1 == AdaptorOp.SEP_CONV3X3 and c.op2 == AdaptorOp.SEP_CONV3X3
                assert c.agg == AggOp.SUM

    def test_encode_of_all_zeros_is_all_zeros(self):
        g = Genotype.from_tokens(4, 2, [0] * 40)
        assert g.tokens() == [0] * 40

    def test_unavailable_first_cell_location(self):
        seq = [0] * 20
        seq[0] = 4 + 3  # only the 4 taps exist at the first cell
        with pytest.raises(GenotypeError):
            Genotype.from_tokens(4, 1, seq)

    def test_length_mismatch_is_codec_error(self):
        with pytest.raises(GenotypeError):
            Genotype.from_tokens(4, 2, [0] * 13)

    def test_roundtrip_property(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            p = int(rng.integers(1, 5))
            t = int(rng.integers(1, 4))
            g = random_valid_genotype(rng, p, t)
            seq = g.tokens()
            assert len(seq) == seq_length(p, t)
            assert Genotype.from_tokens(p, t, seq) == g

    def test_cross_task_reference_roundtrip(self):
        g = Genotype(2, 2, (
            (AuxCell(0, 1, 1, 1, 0), AuxCell(2, 1, 4, 1, 1)),
            (AuxCell(1, 0, 0, 2, 0), AuxCell(2, 4, 4, 4, 0)),
        ))
        back = Genotype.from_tokens(2, 2, g.tokens())
        assert back == g
        assert back.cells[1][1].in1 == 2  # still points at task 1 cell 0

    def test_encode_rejects_invalid(self):
        with pytest.raises(GenotypeError):
            Genotype(1, 2, ((AuxCell(0, 0, 1, 1, 0),), (AuxCell(1, 0, 1, 1, 0),)))


class TestSampling:
    def make_policy(self, p=4, t=2, seed=0):
        return ControllerPolicy(p, t, np.random.default_rng(seed))

    def test_samples_always_decode(self):
        policy = self.make_policy()
        out = policy.sample(np.random.default_rng(1), n=500)
        for i in range(500):
            policy.decode(out.tokens[i])  # must not raise

    def test_fixed_seed_reproduces(self):
        policy = self.make_policy()
        a = policy.sample(np.random.default_rng(7), n=8)
        b = policy.sample(np.random.default_rng(7), n=8)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.log_probs, b.log_probs)

    def test_masked_probability_soundness(self):
        policy = self.make_policy()
        seen = []

        def check(pos, logp_t):
            probs = np.exp(logp_t.values)
            if policy._mask_add[pos] is not None:
                allowed = policy._mask_add[pos] == 0
                assert probs[:, ~allowed].max(initial=0.0) == 0.0
                assert np.abs(probs[:, allowed].sum(axis=1) - 1.0).max() <= 1e-6
            else:
                assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-6
            seen.append(pos)
            return np.zeros(3, dtype=np.int64)

        policy._rollout(3, check)
        assert seen == list(range(policy.length))

    @pytest.mark.parametrize("p,t", [(4, 2), (2, 3), (1, 1)])
    def test_scored_log_probs_equal_sampled_bitwise(self, p, t):
        # PPO's ratio is exp(score - sampled): both passes must apply the
        # same mask and arithmetic, so an unchanged policy gives ratio 1
        policy = self.make_policy(p, t, seed=5)
        s = policy.sample(np.random.default_rng(2), n=16)
        chosen, _ = policy.score_tokens(s.tokens)
        scored = np.stack([c.values for c in chosen], axis=1)
        assert np.array_equal(scored.astype(s.log_probs.dtype), s.log_probs)

    def test_score_tokens_rejects_wrong_length(self):
        policy = self.make_policy(p=2, t=1)
        with pytest.raises(ContractError):
            policy.score_tokens(np.zeros((3, policy.length + 1), dtype=np.int64))

    def test_uniform_init_marginals(self):
        policy = self.make_policy(p=2, t=1, seed=3)
        out = policy.sample(np.random.default_rng(11), n=4000)
        agg_positions = [i for i in range(policy.length) if i % 5 == 4]
        agg_tokens = out.tokens[:, agg_positions].ravel()
        frac = (agg_tokens == 0).mean()
        assert abs(frac - 0.5) <= 0.02

    def test_loc_mask_contents(self):
        m = loc_mask(4, 2, 1, 1)
        assert list(np.where(m)[0]) == [0, 1, 2, 3, 4, 8]
