"""Token layout, location masks and the recurrent controller policy.

A genotype flattens to 5*P*T tokens, five per cell in task-major cell
order: two input locations, two adaptor ops, one aggregator
(Genotype.tokens and Genotype.from_tokens are the codec). The location
head covers all P + P*T possible locations; at each position a mask
removes locations the availability rule forbids, so sampled sequences
always decode to availability-valid genotypes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor
from .auxiliary import Genotype, available_locations
from .layers import AdaptorOp, AggOp

CELL_ROLES = ("loc", "loc", "op_ad", "op_ad", "op_ag")
N_ADAPTOR_OPS = len(AdaptorOp)
N_AGG_OPS = len(AggOp)
EMBED_DIM = 32
HIDDEN_DIM = 64
MASK_VALUE = -1e9


def seq_length(p: int, t: int) -> int:
    return 5 * p * t


def loc_vocab_size(p: int, t: int) -> int:
    return p + p * t


def role_of_position(i: int) -> str:
    return CELL_ROLES[i % 5]


def loc_mask(p: int, t: int, ti: int, pi: int) -> np.ndarray:
    """Boolean availability over the full location head for cell (ti, pi)."""
    mask = np.zeros(loc_vocab_size(p, t), dtype=bool)
    mask[available_locations(p, ti, pi)] = True
    return mask


@dataclass
class SampleBatch:
    tokens: np.ndarray    # (n, L) int
    log_probs: np.ndarray  # (n, L) float, at sampling time


class ControllerPolicy:
    """Single-cell LSTM over token embeddings with three output heads.

    Heads start at zero so the initial policy is exactly uniform over each
    masked vocabulary; embeddings and recurrent weights start small-random
    so gradients reach every parameter from the first update.
    """

    def __init__(self, p: int, t: int, rng: np.random.Generator, dtype=np.float32):
        self.p, self.t = p, t
        self.length = seq_length(p, t)
        self.loc_v = loc_vocab_size(p, t)
        self.params = ParamSet()
        tag = ad.TAG_CONTROLLER
        dt = dtype
        vocab = 1 + self.loc_v + N_ADAPTOR_OPS + N_AGG_OPS  # leading START token

        def u(shape, lim):
            return rng.uniform(-lim, lim, shape).astype(dt)

        psa = self.params.add
        self.embed = psa("ctrl.embed", u((vocab, EMBED_DIM), 0.1), tag)
        self.gates = {}
        for gate in "ifgo":
            self.gates[gate] = (
                psa(f"ctrl.lstm.Wx_{gate}", u((EMBED_DIM, HIDDEN_DIM), 0.08), tag),
                psa(f"ctrl.lstm.Wh_{gate}", u((HIDDEN_DIM, HIDDEN_DIM), 0.08), tag),
                psa(f"ctrl.lstm.b_{gate}",
                    np.full(HIDDEN_DIM, 1.0 if gate == "f" else 0.0, dtype=dt), tag),
            )
        self.heads = {
            "loc": (psa("ctrl.head_loc.w", np.zeros((HIDDEN_DIM, self.loc_v), dtype=dt), tag),
                    psa("ctrl.head_loc.b", np.zeros(self.loc_v, dtype=dt), tag)),
            "op_ad": (psa("ctrl.head_op.w", np.zeros((HIDDEN_DIM, N_ADAPTOR_OPS), dtype=dt), tag),
                      psa("ctrl.head_op.b", np.zeros(N_ADAPTOR_OPS, dtype=dt), tag)),
            "op_ag": (psa("ctrl.head_agg.w", np.zeros((HIDDEN_DIM, N_AGG_OPS), dtype=dt), tag),
                      psa("ctrl.head_agg.b", np.zeros(N_AGG_OPS, dtype=dt), tag)),
        }
        self._role_offset = {"loc": 1, "op_ad": 1 + self.loc_v,
                             "op_ag": 1 + self.loc_v + N_ADAPTOR_OPS}
        # per-position loc masks as additive logits (0 allowed, MASK_VALUE not)
        self._mask_add = []
        for pos in range(self.length):
            role = role_of_position(pos)
            if role != "loc":
                self._mask_add.append(None)
                continue
            cell = pos // 5
            m = loc_mask(p, t, cell // p, cell % p)
            self._mask_add.append(np.where(m, 0.0, MASK_VALUE).astype(dt))

    def _lstm_step(self, emb: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        acts = {}
        for gate, (wx, wh, b) in self.gates.items():
            pre = ad.add(ad.linear(emb, wx, b), ad.linear(h, wh))
            acts[gate] = ad.tanh(pre) if gate == "g" else ad.sigmoid(pre)
        c2 = ad.add(ad.mul(acts["f"], c), ad.mul(acts["i"], acts["g"]))
        return ad.mul(acts["o"], ad.tanh(c2)), c2

    def _rollout(self, n: int, pick) -> None:
        """Run the controller over every position for n sequences. At each
        position ``pick(pos, logp)`` gets the masked log-prob tensor (n, V)
        and returns the (n,) tokens that are fed back as the next input."""
        dt = self.embed.dtype
        h, c = (Tensor(np.zeros((n, HIDDEN_DIM), dtype=dt)) for _ in range(2))
        prev = np.zeros(n, dtype=np.int64)  # START
        for pos in range(self.length):
            h, c = self._lstm_step(ad.embedding(self.embed, prev), h, c)
            role = role_of_position(pos)
            logits = ad.linear(h, *self.heads[role])
            madd = self._mask_add[pos]
            if madd is not None:
                logits = ad.add(logits, Tensor(np.broadcast_to(madd, (n, len(madd))).copy()))
            prev = pick(pos, ad.softmax_log(logits, axis=1)) + self._role_offset[role]

    def sample(self, rng: np.random.Generator, n: int = 1) -> SampleBatch:
        """Autoregressive masked sampling of n sequences (no tape needed)."""
        tokens = np.zeros((n, self.length), dtype=np.int64)
        logps = np.zeros((n, self.length))

        def draw(pos, logp_t):
            logp = logp_t.values
            probs = np.exp(logp)
            u = rng.random(n)
            tok = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
            # float cumsum can fall just short of 1; clamp to the last slot
            # with positive probability so masked tokens are never chosen
            last_pos = probs.shape[1] - 1 - (probs[:, ::-1] > 0).argmax(axis=1)
            tok = np.minimum(tok, last_pos)
            tokens[:, pos] = tok
            logps[:, pos] = logp[np.arange(n), tok]
            return tok

        self._rollout(n, draw)
        return SampleBatch(tokens=tokens, log_probs=logps)

    def score_tokens(self, tokens: np.ndarray):
        """Teacher-forced pass for PPO: per-position chosen log-prob tensors
        (each (n,)) and per-position mean-entropy tensors (each scalar)."""
        n = tokens.shape[0]
        if tokens.shape[1] != self.length:
            raise ad.ContractError(f"expected {self.length} tokens, got {tokens.shape[1]}")
        chosen, entropies = [], []

        def teacher(pos, logp_t):
            onehot = np.zeros(logp_t.shape, dtype=self.embed.dtype)
            onehot[np.arange(n), tokens[:, pos]] = 1
            chosen.append(ad.reduce_sum(ad.mul(logp_t, Tensor(onehot)), axes=(1,)))
            entropies.append(ad.neg(ad.reduce_mean(
                ad.reduce_sum(ad.mul(ad.exp(logp_t), logp_t), axes=(1,)))))
            return tokens[:, pos]

        self._rollout(n, teacher)
        return chosen, entropies

    def decode(self, tokens) -> Genotype:
        return Genotype.from_tokens(self.p, self.t, tokens)
