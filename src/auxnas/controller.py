"""Token codec and the recurrent controller policy.

A genotype flattens to 5*P*T tokens, five per cell in task-major cell
order: two input locations, two adaptor ops, one aggregator. The location
head covers all P + P*T possible locations; at each position a mask
removes locations the availability rule forbids, so sampled sequences
always decode to availability-valid genotypes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor
from .auxiliary import AuxCell, Genotype, available_locations
from .layers import AdaptorOp, AggOp

CELL_ROLES = ("loc", "loc", "op_ad", "op_ad", "op_ag")
N_ADAPTOR_OPS = len(AdaptorOp)
N_AGG_OPS = len(AggOp)
EMBED_DIM = 32
HIDDEN_DIM = 64
MASK_VALUE = -1e9


class CodecError(Exception):
    """Token sequence cannot be interpreted at all (wrong length/shape)."""


def seq_length(p: int, t: int) -> int:
    return 5 * p * t


def loc_vocab_size(p: int, t: int) -> int:
    return p + p * t


def role_of_position(i: int) -> str:
    return CELL_ROLES[i % 5]


def decode_tokens(seq, p: int, t: int, allow_own_task: bool = True) -> Genotype:
    """Tokens -> Genotype, task-major. Genotype.validate's violations raise
    GenotypeError (recoverable: callers assign reward 0); a wrong length
    is a CodecError."""
    seq = [int(x) for x in seq]
    if len(seq) != seq_length(p, t):
        raise CodecError(f"expected {seq_length(p, t)} tokens, got {len(seq)}")
    cells = [AuxCell(*seq[i:i + 5]) for i in range(0, len(seq), 5)]
    g = Genotype(p, t, tuple(tuple(cells[ti * p:(ti + 1) * p]) for ti in range(t)))
    g.validate(allow_own_task)
    return g


def loc_mask(p: int, t: int, ti: int, pi: int, allow_own_task: bool = True) -> np.ndarray:
    """Boolean availability over the full location head for cell (ti, pi)."""
    mask = np.zeros(loc_vocab_size(p, t), dtype=bool)
    mask[available_locations(p, t, ti, pi, allow_own_task)] = True
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

    def __init__(self, p: int, t: int, rng: np.random.Generator,
                 allow_own_task: bool = True, dtype=np.float32):
        self.p, self.t = p, t
        self.allow_own_task = allow_own_task
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
            m = loc_mask(p, t, cell // p, cell % p, allow_own_task)
            self._mask_add.append(np.where(m, 0.0, MASK_VALUE).astype(dt))

    def _lstm_step(self, emb: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        acts = {}
        for gate, (wx, wh, b) in self.gates.items():
            pre = ad.add(ad.linear(emb, wx, b), ad.linear(h, wh))
            acts[gate] = ad.tanh(pre) if gate == "g" else ad.sigmoid(pre)
        c2 = ad.add(ad.mul(acts["f"], c), ad.mul(acts["i"], acts["g"]))
        return ad.mul(acts["o"], ad.tanh(c2)), c2

    def _position_logp(self, pos: int, emb: Tensor, h: Tensor, c: Tensor):
        """One step: returns (log-prob tensor (n, V), new h, new c)."""
        h, c = self._lstm_step(emb, h, c)
        role = role_of_position(pos)
        w, b = self.heads[role]
        logits = ad.linear(h, w, b)
        madd = self._mask_add[pos]
        if madd is not None:
            n = logits.shape[0]
            logits = ad.add(logits, Tensor(np.broadcast_to(madd, (n, len(madd))).copy()))
        return ad.softmax_log(logits, axis=1), h, c

    def _start_state(self, n: int):
        dt = self.embed.dtype
        zeros = lambda: Tensor(np.zeros((n, HIDDEN_DIM), dtype=dt))
        return zeros(), zeros()

    def _embed_ids(self, global_ids: np.ndarray) -> Tensor:
        return ad.embedding(self.embed, global_ids)

    def sample(self, rng: np.random.Generator, n: int = 1) -> SampleBatch:
        """Autoregressive masked sampling of n sequences (no tape needed)."""
        h, c = self._start_state(n)
        prev = np.zeros(n, dtype=np.int64)  # START
        tokens = np.zeros((n, self.length), dtype=np.int64)
        logps = np.zeros((n, self.length))
        for pos in range(self.length):
            logp_t, h, c = self._position_logp(pos, self._embed_ids(prev), h, c)
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
            prev = tok + self._role_offset[role_of_position(pos)]
        return SampleBatch(tokens=tokens, log_probs=logps)

    def score_tokens(self, tokens: np.ndarray):
        """Teacher-forced pass for PPO: per-position chosen log-prob tensors
        (each (n,)) and per-position mean-entropy tensors (each scalar)."""
        n = tokens.shape[0]
        if tokens.shape[1] != self.length:
            raise CodecError(f"expected {self.length} tokens, got {tokens.shape[1]}")
        h, c = self._start_state(n)
        prev = np.zeros(n, dtype=np.int64)
        chosen, entropies = [], []
        dt = self.embed.dtype
        for pos in range(self.length):
            logp_t, h, c = self._position_logp(pos, self._embed_ids(prev), h, c)
            v = logp_t.shape[1]
            onehot = np.zeros((n, v), dtype=dt)
            onehot[np.arange(n), tokens[:, pos]] = 1
            chosen.append(ad.reduce_sum(ad.mul(logp_t, Tensor(onehot)), axes=(1,)))
            ent = ad.neg(ad.reduce_mean(
                ad.reduce_sum(ad.mul(ad.exp(logp_t), logp_t), axes=(1,))))
            entropies.append(ent)
            prev = tokens[:, pos] + self._role_offset[role_of_position(pos)]
        return chosen, entropies

    def decode(self, tokens) -> Genotype:
        return decode_tokens(tokens, self.p, self.t, self.allow_own_task)
