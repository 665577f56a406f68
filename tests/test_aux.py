"""Auxiliary modules: genotype validity, cross-task wiring, one-way flow,
gradient routing, and strip behavior."""

import numpy as np
import pytest

from auxnas import autodiff as ad
from auxnas.autodiff import ParamSet, Tape
from auxnas.auxiliary import (
    AuxCell,
    _align,
    Genotype,
    GenotypeAuxSet,
    available_locations,
    build_basic_aux,
    build_from_genotype,
    genotype_from_json,
    genotype_to_json,
    load_genotype,
    save_genotype,
    strip_aux,
)
from auxnas.layers import AdaptorOp, AggOp, GenotypeError
from auxnas.model import TaskSpec, build_model, load_checkpoint, save_checkpoint
from auxnas.train import sgd_step
from test_controller import random_valid_genotype

TASKS2 = [TaskSpec("seg", 5), TaskSpec("depth")]
C_AUX = 16


def make_model(seed=0, tasks=TASKS2):
    return build_model("baseline", tasks, np.random.default_rng(seed))


def cell(in1=0, in2=0, op1=AdaptorOp.CONV1X1, op2=AdaptorOp.CONV1X1, agg=AggOp.SUM):
    return AuxCell(int(in1), int(in2), int(op1), int(op2), int(agg))


def basic_chain_genotype(p, t):
    """The hand-designed chain expressed as a genotype: cell 0 reads tap 0
    twice; cell p skips from its own previous cell and adapts tap p."""
    cells = []
    for ti in range(t):
        row = [cell(0, 0)]
        for pi in range(1, p):
            prev = p + ti * p + (pi - 1)
            row.append(cell(prev, pi, AdaptorOp.SKIP_CONNECT, AdaptorOp.CONV1X1))
        cells.append(tuple(row))
    return Genotype(p, t, tuple(cells))


class TestAvailability:
    def test_taps_always_available(self):
        assert available_locations(4, 0, 0) == [0, 1, 2, 3]

    def test_own_task_earlier_cells(self):
        locs = available_locations(4, 0, 2)
        assert locs == [0, 1, 2, 3, 4, 5]

    def test_cross_task_rule(self):
        # task 2 (index 1), cell 1: taps + cells (t<=1, p<1)
        locs = available_locations(4, 1, 1)
        assert locs == [0, 1, 2, 3, 4, 8]


class TestGenotype:
    def test_minimal_genotype_builds(self):
        g = Genotype(1, 1, ((cell(0, 0),),))
        ps = ParamSet()
        aux = build_from_genotype(ps, np.random.default_rng(0), g,
                                  [TaskSpec("depth")], (8,), C_AUX)
        x = ad.Tensor(np.random.default_rng(1).random((2, 8, 4, 4)).astype(np.float32))
        preds = aux.forward([x], (8, 8), "train")
        assert preds[1].shape == (2, 1, 8, 8)

    def test_cross_task_reference_builds(self):
        g = Genotype(2, 2, (
            (cell(0, 0), cell(2, 1, AdaptorOp.SKIP_CONNECT)),
            # task 2 cell 1 reads task 1 cell 0 (loc 2) and its own cell 0 (loc 4)
            (cell(1, 0), cell(2, 4, AdaptorOp.SKIP_CONNECT, AdaptorOp.SKIP_CONNECT)),
        ))
        ps = ParamSet()
        aux = build_from_genotype(ps, np.random.default_rng(0), g, TASKS2, (8, 16), C_AUX)
        rng = np.random.default_rng(2)
        taps = [ad.Tensor(rng.random((1, 8, 8, 8)).astype(np.float32)),
                ad.Tensor(rng.random((1, 16, 4, 4)).astype(np.float32))]
        preds = aux.forward(taps, (16, 16), "train")
        assert preds[1].shape == (1, 5, 16, 16)
        assert preds[2].shape == (1, 1, 16, 16)

    def test_unavailable_location_rejected(self):
        with pytest.raises(GenotypeError):
            Genotype(4, 1, ((cell(4, 0), cell(0, 0), cell(0, 0), cell(0, 0)),))

    def test_forward_reference_rejected(self):
        # task 2 cell 0 cannot read task 1 cell 0 (needs p' < p)
        with pytest.raises(GenotypeError):
            Genotype(1, 2, ((cell(0, 0),), (cell(1, 0),)))

    def test_skip_on_raw_tap_invalid_at_build(self):
        g = Genotype(1, 1, ((cell(0, 0, AdaptorOp.SKIP_CONNECT),),))  # availability-valid
        with pytest.raises(GenotypeError):
            build_from_genotype(ParamSet(), np.random.default_rng(0), g,
                                [TaskSpec("depth")], (8,), C_AUX)

    def test_basic_chain_is_in_search_space(self):
        g = basic_chain_genotype(4, 2)
        ps = ParamSet()
        aux = build_from_genotype(ps, np.random.default_rng(0), g, TASKS2,
                                  (8, 16, 24, 32), C_AUX)
        assert len(aux.built) == 8

    def test_json_roundtrip(self, tmp_path):
        g = basic_chain_genotype(4, 2)
        doc = genotype_to_json(g)
        assert doc["op_vocab_version"] == 1
        assert len(doc["cells"]) == 8
        assert genotype_from_json(doc) == g
        path = tmp_path / "g.json"
        save_genotype(str(path), g)
        assert load_genotype(str(path)) == g


def full_forward(aux, taps, out_hw, mode):
    """Reference forward: evaluate every built cell, live or dead."""
    ref_hw = taps[0].shape[2:]
    locs = list(taps)
    for c, op1, op2, agg in aux.built:
        a1 = _align(op1(locs[c.in1], mode), ref_hw)
        a2 = _align(op2(locs[c.in2], mode), ref_hw)
        locs.append(agg(a1, a2, mode))
    p = aux.genotype.p
    return {t: head(locs[len(taps) + (t - 1) * p + p - 1], out_hw[0], out_hw[1], mode)
            for t, head in aux.heads.items()}


class UnfrozenParamSet(ParamSet):
    """Reference registry in which dead cells stay trainable, as they were
    before GenotypeAuxSet froze them."""

    def freeze(self, prefixes):
        pass


TAP_SHAPES = ((8, 8, 8), (16, 4, 4), (24, 4, 4), (32, 2, 2))
TASKS3 = [TaskSpec("seg", 5), TaskSpec("depth"), TaskSpec("normal")]
BN_BUFFERS = (".bn_rm", ".bn_rv")


def run_aux(g, tasks, dtype, forward, params, seed=0):
    """One train-mode forward, backward and SGD step of a genotype's aux set
    on fixed random taps. Returns the loss, every grad, every BN buffer,
    every parameter's values before and after the step, and the op count."""
    taps_spec = TAP_SHAPES[:g.p]
    aux = build_from_genotype(params, np.random.default_rng(seed), g, tasks,
                              tuple(c for c, _, _ in taps_spec), C_AUX, dtype=dtype)
    weights = [p for p in params.paths() if not p.endswith(BN_BUFFERS)]
    init = {p: params[p].values.copy() for p in weights}
    rng = np.random.default_rng(seed + 1)
    taps = [ad.Tensor(rng.standard_normal((2, c, h, w)).astype(dtype), requires_grad=True)
            for c, h, w in taps_spec]
    params.zero_grad()
    with Tape() as tape:
        preds = forward(aux, taps, (8, 8), "train")
        loss = None
        for t in sorted(preds):
            term = ad.reduce_mean(ad.mul(preds[t], preds[t]))
            loss = term if loss is None else ad.add(loss, term)
        n_ops = len(tape._ops)  # read before backward, which consumes the tape
        tape.backward(loss)
    grads = {p: params[p].grad.copy() for p in params.paths() if params.trainable(p)}
    grads.update({f"tap{i}": t.grad for i, t in enumerate(taps)})
    buffers = {p: params[p].values.copy() for p in params.paths() if p.endswith(BN_BUFFERS)}
    sgd_step(params, 0.1)
    return {"loss": loss.values, "grads": grads, "buffers": buffers, "init": init,
            "stepped": {p: params[p].values for p in weights}, "ops": n_ops}


def cell_prefix(g, i):
    return f"aux.t{i // g.p + 1}.cell{i % g.p}."


class TestLiveCells:
    def test_basic_chain_all_live(self):
        assert basic_chain_genotype(4, 2).live_cells() == set(range(8))

    def test_cross_task_read_keeps_earlier_task_cell(self):
        g = Genotype(2, 2, (
            (cell(0, 0), cell(0, 1)),  # task 1's head reads taps only
            (cell(1, 0), cell(2, 1, AdaptorOp.SKIP_CONNECT)),  # reads task 1 cell 0
        ))
        assert g.live_cells() == {0, 1, 3}

    def test_p1_every_cell_feeds_its_head(self):
        assert Genotype(1, 1, ((cell(0, 0),),)).live_cells() == {0}
        assert Genotype(1, 2, ((cell(0, 0),), (cell(0, 0),))).live_cells() == {0, 1}

    def test_dead_raw_skip_still_invalid_at_build(self):
        g = Genotype(2, 1, ((cell(0, 0, AdaptorOp.SKIP_CONNECT), cell(0, 1)),))
        assert g.live_cells() == {1}
        with pytest.raises(GenotypeError):
            build_from_genotype(ParamSet(), np.random.default_rng(0), g,
                                [TaskSpec("depth")], (8, 16), C_AUX)

    @pytest.mark.parametrize("p,t,tasks", [(4, 2, TASKS2), (3, 3, TASKS3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pruned_forward_matches_full_evaluation(self, p, t, tasks, dtype):
        """Skipping and freezing dead cells changes no loss, live gradient or
        live parameter after an SGD step. Dead cells keep their initial
        parameters and BN buffers, where the full reference moves them."""
        rng = np.random.default_rng(p * 10 + t)
        checked = with_dead = 0
        while checked < 20:
            g = random_valid_genotype(rng, p, t)
            try:
                pruned = run_aux(g, tasks, dtype, GenotypeAuxSet.forward, ParamSet())
            except GenotypeError:
                continue
            full = run_aux(g, tasks, dtype, full_forward, UnfrozenParamSet())
            assert pruned["loss"] == full["loss"]
            live = g.live_cells()
            dead = tuple(cell_prefix(g, i) for i in range(p * t) if i not in live)
            assert pruned["grads"].keys() == {
                k for k in full["grads"] if not k.startswith(dead)}
            for name, values in full["grads"].items():
                if name.startswith(dead):
                    assert not values.any(), name
                else:
                    assert np.array_equal(pruned["grads"][name], values), name
            for name, values in full["buffers"].items():
                kept = pruned["buffers"][name]
                if name.startswith(dead):
                    assert np.all(kept == (0.0 if name.endswith(".bn_rm") else 1.0)), name
                    assert not np.all(values == kept), name
                else:
                    assert np.array_equal(kept, values), name
            moved = False
            for name, values in full["stepped"].items():
                init = full["init"][name]
                assert np.array_equal(pruned["init"][name], init), name
                if name.startswith(dead):
                    assert np.array_equal(pruned["stepped"][name], init), name
                    moved = moved or not np.array_equal(values, init)
                else:
                    assert np.array_equal(pruned["stepped"][name], values), name
            if dead:
                with_dead += 1
                assert moved
                assert pruned["ops"] < full["ops"]
            else:
                assert pruned["ops"] == full["ops"]
            checked += 1
        assert with_dead > 0


class TestBasicAux:
    def test_p1_base_case(self):
        aux = build_basic_aux(ParamSet(), np.random.default_rng(0), [1], [TaskSpec("depth")],
                              (8,), C_AUX, AggOp.SUM)
        adaptors, aggs, _ = aux.chains[1]
        assert len(adaptors) == 1 and len(aggs) == 0

    def test_p4_chain_counts(self):
        ps = ParamSet()
        aux = build_basic_aux(ps, np.random.default_rng(0), [1], TASKS2,
                              (8, 16, 24, 32), C_AUX, AggOp.SUM)
        adaptors, aggs, _ = aux.chains[1]
        assert len(adaptors) == 4 and len(aggs) == 3

    def test_aux_pred_matches_main_shape(self):
        m = make_model()
        aux = build_basic_aux(m.params, np.random.default_rng(1), [1, 2], TASKS2,
                              m.tap_channels, C_AUX)
        x = np.random.default_rng(2).random((2, 3, 32, 32)).astype(np.float32)
        preds, taps = m.forward(x, "train")
        aux_preds = aux.forward(taps, (32, 32), "train")
        for t in (1, 2):
            assert aux_preds[t].shape == preds[t].shape


class TestGradientRouting:
    def _setup(self):
        m = make_model(seed=3)
        aux = build_basic_aux(m.params, np.random.default_rng(4), [1, 2], TASKS2,
                              m.tap_channels, C_AUX)
        x = np.random.default_rng(5).random((2, 3, 16, 16)).astype(np.float32)
        m.params.zero_grad()
        with Tape() as tape:
            _, taps = m.forward(x, "train")
            aux_preds = aux.forward(taps, (16, 16), "train")
            loss = ad.reduce_mean(ad.mul(aux_preds[1], aux_preds[1]))
            loss = ad.add(loss, ad.reduce_mean(ad.mul(aux_preds[2], aux_preds[2])))
            tape.backward(loss)
        return m

    def test_aux_loss_never_reaches_task_params(self):
        m = self._setup()
        for t in (1, 2):
            for p in m.params.tagged(ad.tag_task(t)):
                g = m.params[p].grad
                assert g is None or not np.any(g)

    def test_aux_loss_reaches_shared_params(self):
        m = self._setup()
        total = sum(np.abs(m.params[p].grad).sum()
                    for p in m.params.tagged("shared") if m.params[p].grad is not None)
        assert total > 0


class TestOneWayFlowAndStrip:
    def test_main_preds_independent_of_aux(self):
        m = make_model(seed=6)
        x = np.random.default_rng(7).random((1, 3, 32, 32)).astype(np.float32)
        before, _ = m.forward(x, "eval")
        aux = build_basic_aux(m.params, np.random.default_rng(8), [1, 2], TASKS2,
                              m.tap_channels, C_AUX)
        preds, taps = m.forward(x, "eval")
        aux.forward(taps, (32, 32), "eval")
        for t in (1, 2):
            assert np.array_equal(before[t].values, preds[t].values)
        # scribbling on aux parameters must not move the main predictions
        for p in m.params.tagged(ad.tag_aux(1), ad.tag_aux(2)):
            m.params[p].values[...] += 1.0
        after, _ = m.forward(x, "eval")
        for t in (1, 2):
            assert np.array_equal(before[t].values, after[t].values)

    def test_strip_param_accounting(self):
        m = make_model(seed=9)
        n_main = len(m.params)
        build_basic_aux(m.params, np.random.default_rng(10), [1, 2], TASKS2,
                        m.tap_channels, C_AUX)
        stripped = strip_aux(m.params)
        assert len(stripped) == n_main
        assert set(stripped.paths()) == {
            p for p in m.params.paths() if not m.params.tag(p).startswith("aux:")}

    def test_stripped_checkpoint_loads_into_plain_model(self, tmp_path):
        m = make_model(seed=11)
        build_basic_aux(m.params, np.random.default_rng(12), [1, 2], TASKS2,
                        m.tap_channels, C_AUX)
        path = tmp_path / "stripped.ckpt"
        save_checkpoint(str(path), strip_aux(m.params), m.variant, m.tasks)
        _, state = load_checkpoint(str(path))
        plain = make_model(seed=99)
        plain.params.load_state_dict(state)
        x = np.random.default_rng(13).random((1, 3, 32, 32)).astype(np.float32)
        a, _ = m.forward(x, "eval")
        b, _ = plain.forward(x, "eval")
        for t in (1, 2):
            assert np.array_equal(a[t].values, b[t].values)


class TestGradDecomposition:
    def test_joint_backward_equals_sum_of_parts(self):
        m = build_model("baseline", TASKS2, np.random.default_rng(14), dtype=np.float64)
        aux = build_basic_aux(m.params, np.random.default_rng(15), [1, 2], TASKS2,
                              m.tap_channels, C_AUX, dtype=np.float64)
        x = np.random.default_rng(16).random((1, 3, 16, 16))

        def main_loss(preds):
            return ad.add(ad.reduce_mean(ad.mul(preds[1], preds[1])),
                          ad.reduce_mean(ad.mul(preds[2], preds[2])))

        def run(parts):
            m.params.zero_grad()
            with Tape() as tape:
                preds, taps = m.forward(x, "train")
                aux_preds = aux.forward(taps, (16, 16), "train")
                terms = []
                if "main" in parts:
                    terms.append(main_loss(preds))
                if "aux" in parts:
                    terms.append(main_loss(aux_preds))
                total = terms[0]
                for t in terms[1:]:
                    total = ad.add(total, t)
                tape.backward(total)
            return (float(total.values),
                    {p: m.params[p].grad.copy() for p in m.params.paths()
                     if m.params.trainable(p)})

        l_joint, g_joint = run({"main", "aux"})
        l_main, g_main = run({"main"})
        l_aux, g_aux = run({"aux"})
        assert abs(l_joint - (l_main + l_aux)) <= 1e-12
        for p in g_joint:
            assert np.abs(g_joint[p] - (g_main[p] + g_aux[p])).max() <= 1e-12
