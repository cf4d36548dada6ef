"""Top-level acceptance checks for the whole package.

Each test covers one numbered criterion and prints a single verdict line
(`acceptance NN PASS/FAIL: detail`) so a full run reads as a checklist. The
criteria stress the load-bearing guarantees end to end: gradient correctness,
probabilistic normalization, distribution recovery on tasks with known
generators, bitwise causality and masking, the private optimizer step, metric
identities, and a complete train/sample/evaluate pass through the CLI.
"""

import copy
import json
import math
import time

import numpy as np
import pytest

from nestgen import autodiff as ad
from nestgen.autodiff import Tape
from nestgen.batches import LeafBatch, ListBatch, StructBatch, n_rows
from nestgen.cli import main as cli_main
from nestgen.codecs.base import pass_losses, root_conditioning, sample_rows, train_step
from nestgen.codecs.composites import ListCodec, StructCodec
from nestgen.codecs.exact import (batch_from_values, enumerate_outcomes,
                                  joint_table)
from nestgen.codecs.primitives import CategoricalCodec
from nestgen.metrics import evaluate, marginal_score, wasserstein_1d
from nestgen.optim import Adam
from nestgen.params import ParamStore
from nestgen.schema import compile_schema, parse_schema
from nestgen.trainer import DpConfig, TrainConfig, fit
from nestgen.transformer import TransformerConfig

from conftest import (ForcedOrder, LeafSpy, dp_row, forward_loss, loss_gradients,
                      padded_grids, random_batch, random_schema_doc)


def verdict(num, ok, detail):
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: gradients vs central finite differences -------------------------------------

def test_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250101)
    worst = 0.0
    n_coords = 0
    for case in range(20):
        heads = int(rng.choice([1, 2, 4, 8]))
        width = heads * int(rng.integers(math.ceil(8 / heads),
                                         64 // heads + 1))
        blocks = int(rng.integers(1, 3))
        doc = random_schema_doc(rng, max_depth=2)
        codec, store = compile_schema(parse_schema(doc), width=width,
                                      blocks=blocks, heads=heads,
                                      seed=int(rng.integers(1 << 30)))
        batch = random_batch(codec, 3, rng)
        _, grads = loss_gradients(codec, store, batch)

        # sample coordinates across all parameter tensors
        paths = sorted(grads)
        sizes = np.array([grads[p].size for p in paths])
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        picks = rng.choice(int(offsets[-1]), size=min(40, int(offsets[-1])),
                           replace=False)
        for flat_i in picks:
            t = int(np.searchsorted(offsets, flat_i, side="right") - 1)
            path = paths[t]
            local = int(flat_i - offsets[t])
            data = store[path].data.ravel()
            step = 1e-5
            orig = data[local]
            data[local] = orig + step
            hi = forward_loss(codec, store, batch)
            data[local] = orig - step
            lo = forward_loss(codec, store, batch)
            data[local] = orig
            fd = (hi - lo) / (2 * step)
            adg = grads[path].ravel()[local]
            scale = max(abs(fd), abs(adg), 1e-4)
            worst = max(worst, abs(fd - adg) / scale)
            n_coords += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 120
    verdict(1, ok, f"max relative gradient error {worst:.2e} over "
                   f"{n_coords} coordinates in 20 configs ({elapsed:.1f}s)")


# -- 2: enumerated joints sum to one --------------------------------------------------

def small_discrete_doc(rng):
    shape = int(rng.integers(0, 4))
    if shape == 0:
        return {"type": "enum", "name": "x",
                "cardinality": int(rng.integers(2, 13))}
    if shape == 1:
        pool = [[2, 2, 3], [2, 5], [3, 4], [2, 2, 2], [2, 6], [3, 2], [11]]
        cards = pool[int(rng.integers(0, len(pool)))]
        return {"type": "record", "name": "r",
                "shuffled": bool(rng.random() < 0.5),
                "fields": [{"name": f"f{i}", "type": "enum", "cardinality": c}
                           for i, c in enumerate(cards)]}
    if shape == 2:
        c = int(rng.integers(2, 4))
        ml = int(rng.integers(1, 3)) if c == 2 else 1
        return {"type": "array", "name": "l", "max_len": ml,
                "shuffled": bool(rng.random() < 0.5),
                "items": {"type": "enum", "name": "v", "cardinality": c}}
    c = int(rng.integers(2, 6))
    return {"type": "record", "name": "r", "fields": [
        {"name": "a", "type": "enum", "cardinality": 2},
        {"name": "el", "type": "array", "max_len": 1,
         "items": {"type": "enum", "name": "v", "cardinality": c}}]}


def test_02_enumerated_joint_normalizes():
    rng = np.random.default_rng(77)
    worst = 0.0
    for case in range(10):
        doc = small_discrete_doc(rng)
        codec, store = compile_schema(parse_schema(doc), width=8, blocks=1,
                                      heads=2, seed=case)
        outcomes = enumerate_outcomes(codec)
        assert len(outcomes) <= 12
        _, probs = joint_table(codec, store)
        worst = max(worst, abs(probs.sum() - 1.0))
        opt = Adam(lr=0.05)
        batch = batch_from_values(codec, outcomes)
        for _ in range(5):
            _, grads = train_step(codec, store, batch)
            opt.step(store, grads)
        _, probs = joint_table(codec, store)
        worst = max(worst, abs(probs.sum() - 1.0))
    verdict(2, worst <= 1e-9,
            f"max |sum - 1| = {worst:.2e} over 10 schemas, pre and post training")


# -- 3: recovery of a 2x2 joint ------------------------------------------------------

def test_03_two_by_two_joint_recovery():
    t0 = time.perf_counter()
    doc = {"type": "record", "name": "r", "fields": [
        {"name": "a", "type": "enum", "cardinality": 2},
        {"name": "b", "type": "enum", "cardinality": 2}]}
    codec, store = compile_schema(parse_schema(doc), width=8, blocks=1,
                                  heads=2, seed=1)
    target = {(0, 0): 0.4, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 0.4}
    a = np.repeat([0, 0, 1, 1], [400, 100, 100, 400])
    b = np.repeat([0, 1, 0, 1], [400, 100, 100, 400])
    batch = StructBatch({"a": LeafBatch(a), "b": LeafBatch(b)})
    opt = Adam(lr=0.01)
    loss = None
    for _ in range(2000):
        loss, grads = train_step(codec, store, batch)
        opt.step(store, grads)

    p = np.array(list(target.values()))
    entropy = float(-(p * np.log(p)).sum())
    loss_gap = abs(loss - entropy)

    outcomes, probs = joint_table(codec, store)
    model = {(o["a"], o["b"]): q for o, q in zip(outcomes, probs)}
    tree = sample_rows(codec, store, 200000, np.random.default_rng(2))
    counts = np.bincount(2 * tree.fields["a"].codes + tree.fields["b"].codes,
                         minlength=4)
    tvd = 0.5 * sum(abs(counts[2 * i + j] / 200000 - model[(i, j)])
                    for i in (0, 1) for j in (0, 1))
    elapsed = time.perf_counter() - t0
    ok = loss_gap < 0.01 and tvd < 0.02 and elapsed < 60
    verdict(3, ok, f"loss {loss:.6f} vs entropy {entropy:.6f} "
                   f"(gap {loss_gap:.5f}), sample-vs-model TVD {tvd:.5f} "
                   f"({elapsed:.1f}s)")


# -- 4: list length and element-chain recovery ----------------------------------------

LEN_SUPPORT = np.array([2, 4, 7])
LEN_PROBS = np.array([0.3, 0.5, 0.2])
CHAIN_PI = np.array([0.5, 0.3, 0.2])
CHAIN_T = np.array([[0.7, 0.2, 0.1],
                    [0.1, 0.6, 0.3],
                    [0.25, 0.25, 0.5]])


def markov_lists(rng, n, max_len=8):
    lengths = rng.choice(LEN_SUPPORT, size=n, p=LEN_PROBS)
    values = np.zeros((n, max_len), dtype=np.int64)
    values[:, 0] = rng.choice(3, size=n, p=CHAIN_PI)
    u = rng.random((n, max_len))
    cum = CHAIN_T.cumsum(axis=1)
    for i in range(1, max_len):
        values[:, i] = (u[:, i:i + 1] > cum[values[:, i - 1]]).sum(axis=1)
    valid = np.arange(max_len)[None, :] < lengths[:, None]
    return ListBatch(lengths.astype(np.int64), LeafBatch(values[valid]))


def bigram_conditionals(lengths, values):
    """Transition frequencies of the consecutive element pairs of each
    list, from the lists' lengths and their elements end to end."""
    row = np.repeat(np.arange(lengths.size), lengths)
    live = row[:-1] == row[1:]
    counts = np.zeros((3, 3))
    np.add.at(counts, (values[:-1][live], values[1:][live]), 1.0)
    return counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)


def test_04_markov_list_recovery():
    doc = {"type": "array", "name": "seq", "max_len": 8,
           "items": {"type": "enum", "name": "tok", "cardinality": 3}}
    codec, store = compile_schema(parse_schema(doc), width=16, blocks=1,
                                  heads=4, seed=3)
    data = markov_lists(np.random.default_rng(4), 8000)
    # coarse phase, then a fine phase with a small step so the optimizer
    # settles instead of orbiting the optimum
    fit(codec, store, data, TrainConfig(epochs=30, batch_size=500, lr=0.02,
                                        seed=5))
    fit(codec, store, data, TrainConfig(epochs=30, batch_size=2000, lr=0.002,
                                        seed=6))

    tree = sample_rows(codec, store, 100000, np.random.default_rng(6))
    len_freq = np.array([(tree.lengths == m).mean() for m in LEN_SUPPORT])
    other = 1.0 - len_freq.sum()
    len_tvd = 0.5 * (np.abs(len_freq - LEN_PROBS).sum() + other)

    t_hat = bigram_conditionals(tree.lengths, tree.values.codes)
    row_tvds = 0.5 * np.abs(t_hat - CHAIN_T).sum(axis=1)
    ok = len_tvd <= 0.03 and row_tvds.max() <= 0.05
    verdict(4, ok, f"length TVD {len_tvd:.4f} (limit 0.03), worst transition "
                   f"row TVD {row_tvds.max():.4f} (limit 0.05)")


# -- 5: causality under input perturbation --------------------------------------------

def struct_reachable_lists(codec, batch):
    """(list codec, its batch) pairs not nested inside any other list."""
    if isinstance(codec, ListCodec):
        return [(codec, batch)]
    if isinstance(codec, StructCodec):
        out = []
        for name, child in zip(codec.names, codec.children()):
            out.extend(struct_reachable_lists(child, batch.fields[name]))
        return out
    return []


def replace_field(batch, name, new):
    fields = dict(batch.fields)
    fields[name] = new
    return StructBatch(fields)


def replace_in_tree(codec, batch, target, new):
    """Copy of the batch with the subtree for codec path `target` replaced."""
    if codec.path == target:
        return new
    if isinstance(codec, StructCodec):
        return StructBatch({
            name: replace_in_tree(child, batch.fields[name], target, new)
            for name, child in zip(codec.names, codec.children())})
    return batch


def decoded_logits(spy, store, batch):
    """Logits each leaf scored in one identity-order pass, by leaf path."""
    _, score = spy.codec.encode(batch, rng=None)
    spy.score(root_conditioning(store, n_rows(batch)), score)
    return spy.logits


def test_05_causality_suite():
    rng = np.random.default_rng(55)
    checks = 0
    for case in range(50):
        doc = random_schema_doc(rng, max_depth=2)
        codec, store = compile_schema(parse_schema(doc), width=8, blocks=1,
                                      heads=2, seed=case)
        batch = random_batch(codec, 2, rng)
        spy = LeafSpy(codec)
        rep0 = decoded_logits(spy, store, batch)

        # struct invariant: the distributions decoded for fields before k
        # cannot move when every field from k onward is replaced
        n = len(codec.children()) if isinstance(codec, StructCodec) else 0
        if n >= 2:
            k = int(rng.integers(1, n))
            pert = batch
            for j in range(k, n):
                child = codec.children()[j]
                pert = replace_field(pert, codec.names[j],
                                     random_batch(child, 2, rng))
            rep1 = decoded_logits(spy, store, pert)
            before = [leaf.path for i in range(k)
                      for leaf in codec.children()[i].walk() if leaf.path in rep0]
            for path in before:
                assert np.array_equal(rep0[path], rep1[path]), \
                    f"case {case}: field before {k} moved"
            checks += 1

        # list invariant: the length distribution of any list node cannot
        # move when that list's element values are replaced (lengths kept)
        for lst, sub in struct_reachable_lists(codec, batch):
            fresh = random_batch(lst.value_codec, int(sub.lengths.sum()), rng)
            pert_list = ListBatch(sub.lengths.copy(), fresh)
            pert = replace_in_tree(codec, batch, lst.path, pert_list)
            rep1 = decoded_logits(spy, store, pert)
            len_path = lst.len_codec.path
            assert np.array_equal(rep0[len_path], rep1[len_path]), \
                f"case {case}: length logits of {lst.path} saw the values"
            checks += 1

        # element causality on a standalone list: positions before i cannot
        # move when positions from i onward are replaced
        card, max_len = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        lst, lstore = _standalone_list(card, max_len, seed=case)
        lspy = LeafSpy(lst)
        m = max_len
        base = LeafBatch(rng.integers(0, card, size=m))
        x0 = ListBatch(np.array([m]), base)
        r0 = decoded_logits(lspy, lstore, x0)["l/item"]
        i = int(rng.integers(1, m))
        pert_vals = base.codes.copy()
        pert_vals[i:] = (pert_vals[i:] + 1 + rng.integers(0, card - 1)) % card
        r1 = decoded_logits(lspy, lstore, ListBatch(np.array([m]),
                                                   LeafBatch(pert_vals)))["l/item"]
        assert np.array_equal(r0[:i + 1], r1[:i + 1]), f"case {case}: element"
        checks += 1
    verdict(5, True, f"{checks} bitwise perturbation checks over 50 "
                     "random schemas, all exact")


def _standalone_list(card, max_len, seed, shuffled=False):
    store = ParamStore()
    store.c0 = np.zeros(8)
    srng = np.random.default_rng(seed)
    tcfg = TransformerConfig(width=8, blocks=1, heads=2)
    val = CategoricalCodec("l/item", card, 8, store, srng)
    return ListCodec("l", val, max_len, tcfg, store, srng, shuffled=shuffled), store


# -- 6: padded positions carry no loss and no gradient ---------------------------------

def _list_depth(codec):
    """The most lists nested in one another under codec."""
    inner = max((_list_depth(c) for c in codec.children()
                 if not isinstance(codec, ListCodec) or c is codec.value_codec), default=0)
    return inner + isinstance(codec, ListCodec)


def _padding_checks(grids):
    """Padded slots of every recorded grid, after asserting that each got
    exactly zero embedding gradient."""
    checks = 0
    for path, mask, emb in grids:
        grad = np.zeros_like(emb.data) if emb.grad is None else emb.grad
        assert np.all(grad[~mask] == 0.0), f"{path}: a padded slot got gradient"
        checks += int((~mask).sum())
    return checks


def test_06_masking_zero_contribution():
    # depth-3 schemas are drawn until one nests a list in a list, which
    # depth-2 schemas never do
    rng = np.random.default_rng(66)
    cases = pad_checks = nested = 0
    for case, (depth, lists) in enumerate([(2, 1)] * 20 + [(3, 2)] * 10):
        while True:
            doc = random_schema_doc(rng, max_depth=depth)
            codec, store = compile_schema(parse_schema(doc), width=8,
                                          blocks=1, heads=2, seed=case)
            if _list_depth(codec) >= lists:
                break
        batch = random_batch(codec, 4, rng)
        loss_c, grads_c = loss_gradients(codec, store, batch)
        # the same batch, with random values added at every padded slot of
        # every grid of element embeddings a list codec feeds its encoder
        grids = padded_grids(codec, garbage=np.random.default_rng(case))
        loss_g, grads_g = loss_gradients(codec, store, batch)
        assert loss_g == loss_c, f"case {case}: padding moved the loss"
        for path in grads_c:
            assert np.array_equal(grads_c[path], grads_g[path]), \
                f"case {case}: padding moved the gradient of {path}"
        pad_checks += _padding_checks(grids)
        nested += lists > 1
        cases += 1

    # and on a standalone list, with each length group's padded positions
    # up to its own longest list
    for case in range(5):
        card, max_len = int(rng.integers(2, 6)), int(rng.integers(3, 7))
        codec, store = _standalone_list(card, max_len, seed=100 + case)
        lengths = rng.integers(0, max_len + 1, size=6)
        x = ListBatch(lengths.astype(np.int64),
                      LeafBatch(rng.integers(0, card, size=int(lengths.sum()))))
        grids = padded_grids(codec, garbage=rng)
        store.zero_grads()
        with Tape() as tape:
            _, score = codec.encode(x)
            loss = ad.mean_all(score(root_conditioning(store, 6)))
        tape.backward(loss)
        pad_checks += _padding_checks(grids)
    assert pad_checks > 0 and nested == 10
    verdict(6, True, f"{cases} schemas ({nested} with nested lists) with "
                     "bitwise-identical loss/gradients under garbage padding; "
                     f"{pad_checks} padded positions with exactly zero "
                     "embedding gradient")


# -- 7: shuffled pass equals reordered plain pass --------------------------------------

def reordered_struct(codec, sigma):
    clone = object.__new__(StructCodec)
    clone.path = codec.path
    clone.names = [codec.names[k] for k in sigma]
    clone._children = [codec.children()[k] for k in sigma]
    clone.shuffled = False
    clone.width = codec.width
    clone.enc = codec.enc
    clone.dec = codec.dec
    return clone


def test_07_shuffle_soundness():
    rng = np.random.default_rng(707)
    for case in range(25):
        n_fields = int(rng.integers(2, 6))
        cards = [int(rng.integers(2, 6)) for _ in range(n_fields)]
        doc = {"type": "record", "name": "r", "shuffled": True,
               "fields": [{"name": f"f{i}", "type": "enum", "cardinality": c}
                          for i, c in enumerate(cards)]}
        codec, store = compile_schema(parse_schema(doc), width=8, blocks=1,
                                      heads=2, seed=case)
        batch = random_batch(codec, 3, rng)
        sigma = tuple(int(i) for i in rng.permutation(n_fields))
        shuffled = pass_losses(codec, store, batch, rng=ForcedOrder(sigma=sigma))[0]
        plain = pass_losses(reordered_struct(codec, sigma), store, batch)[0]
        assert np.array_equal(shuffled.data, plain.data), f"struct case {case}"

    for case in range(25):
        card = int(rng.integers(2, 6))
        max_len = int(rng.integers(2, 7))
        codec, store = _standalone_list(card, max_len, seed=200 + case, shuffled=True)
        B = 3
        lengths = rng.integers(0, max_len + 1, size=B).astype(np.int64)
        values = rng.integers(0, card, size=(B, max_len))
        perm = np.tile(np.arange(max_len, dtype=np.int64), (B, 1))
        reordered = values.copy()
        for b in range(B):
            m = int(lengths[b])
            perm[b, :m] = rng.permutation(m)
            reordered[b, :m] = values[b, perm[b, :m]]
        valid = np.arange(max_len)[None, :] < lengths[:, None]
        x = ListBatch(lengths, LeafBatch(values[valid]))
        shuffled = pass_losses(codec, store, x, rng=ForcedOrder(perm=perm))[0]
        plain = pass_losses(codec, store,
                            ListBatch(lengths, LeafBatch(reordered[valid])))[0]
        assert np.array_equal(shuffled.data, plain.data), f"list case {case}"
    verdict(7, True, "50 random permutation cases, shuffled pass bitwise "
                     "equal to the reordered plain pass")


# -- 8: DP clipping and noise calibration ----------------------------------------------

def test_08_dp_clipping_and_noise():
    rng = np.random.default_rng(88)
    C = 1e-3
    quiet = DpConfig(clip_norm=C, noise_multiplier=0.0)
    rows = rng.normal(size=(10000, 24))
    scales = np.concatenate([np.geomspace(1e-7, 10 * C, 9000),
                             np.full(1000, C)])
    rng.shuffle(scales)
    rows *= (scales / np.linalg.norm(rows, axis=1))[:, None]
    worst = 0.0
    for i in range(10000):
        contribution = dp_row(rows[i:i + 1], quiet, rng)
        worst = max(worst, float(np.linalg.norm(contribution)))
    clip_ok = worst <= C + 1e-9

    sigma, B = 1.08, 1024
    noisy = DpConfig(clip_norm=C, noise_multiplier=sigma)
    draws = np.concatenate([
        dp_row(np.zeros((B, 20000)), noisy, np.random.default_rng(1000 + r))
        for r in range(5)])
    want = sigma * C / B
    std_err = abs(draws.std() / want - 1.0)
    ok = clip_ok and std_err < 0.05 and draws.size == 100000
    verdict(8, ok, f"max contribution norm {worst:.3e} (C={C:g}), noise std "
                   f"off by {100 * std_err:.2f}% over {draws.size} draws")


# -- 9: metric identities ----------------------------------------------------------------

MIX_DOC = {"type": "record", "name": "user", "fields": [
    {"name": "age", "type": "int", "bins": 5},
    {"name": "sex", "type": "enum"},
    {"name": "tx", "type": "array", "max_len": 5,
     "items": {"type": "record", "name": "t", "fields": [
         {"name": "place", "type": "enum"},
         {"name": "price", "type": "float", "bins": 5}]}}]}


def mixed_rows(rng, n):
    out = []
    for _ in range(n):
        m = int(rng.integers(0, 6))
        out.append({"age": int(rng.integers(18, 80)),
                    "sex": str(rng.choice(["f", "m"])),
                    "tx": [{"place": str(rng.choice(["a", "b", "c", "d"])),
                            "price": float(np.round(rng.uniform(1, 99), 2))}
                           for _ in range(m)]})
    return out


def test_09_metric_identities():
    rows = mixed_rows(np.random.default_rng(9), 1000)
    report = evaluate(rows, copy.deepcopy(rows), parse_schema(MIX_DOC),
                      k=4, n_subsets=10)
    col_zero = all(
        (c["wasserstein"] == 0.0 and c["wasserstein_normalized"] == 0.0)
        if c["kind"] == "numeric"
        else (c["jensen_distance"] == 0.0 and c["jensen_divergence"] == 0.0)
        for c in report.columns.values())
    corr_zero = all(v == 0.0 for v in report.correlation.values())
    score_exact = report.marginal["score"] == 1000.0

    # two unit masses with one moved by one: distance one half, exactly
    w = wasserstein_1d([0.0, 1.0], [0.0, 2.0])

    # real uniform on a 2x2 joint, synth uniform on its diagonal: TVD one
    # half, so the 0..1000 scale lands exactly on 500
    m = marginal_score({"a": ["0", "0", "1", "1"], "b": ["0", "1", "0", "1"]},
                       {"a": ["0", "0", "1", "1"], "b": ["0", "0", "1", "1"]},
                       {"a": "categorical", "b": "categorical"},
                       k=2, n_subsets=1)
    ok = (col_zero and corr_zero and score_exact
          and w == 0.5 and m["score"] == 500.0)
    verdict(9, ok, f"self-comparison: columns zero={col_zero}, correlation "
                   f"zero={corr_zero}, marginal={report.marginal['score']:.1f}; "
                   f"hand examples: wasserstein={w}, diagonal score="
                   f"{m['score']:.1f}")


# -- 10: end-to-end through the command line ----------------------------------------------

USERS_DOC = {"type": "record", "name": "user", "fields": [
    {"name": "age", "type": "float", "bins": 5},
    {"name": "sex", "type": "enum"},
    {"name": "transactions", "type": "array", "max_len": 4,
     "items": {"type": "record", "name": "transaction", "fields": [
         {"name": "place", "type": "enum"},
         {"name": "price", "type": "float", "bins": 5}]}}]}

PLACE_PRICE = {"a": 2.0, "b": 4.0, "c": 6.0, "d": 8.0}


def users_rows(rng, n):
    out = []
    for _ in range(n):
        sex = "f" if rng.random() < 0.5 else "m"
        age = float(np.round(rng.normal(35.0 if sex == "f" else 47.0, 4.0), 1))
        m = int(rng.choice([0, 1, 2, 3], p=[0.2, 0.4, 0.3, 0.1]))
        txs = []
        for _ in range(m):
            if sex == "f":
                place = str(rng.choice(["a", "b", "c"], p=[0.6, 0.3, 0.1]))
            else:
                place = str(rng.choice(["c", "d", "a"], p=[0.5, 0.4, 0.1]))
            price = float(np.round(PLACE_PRICE[place] + rng.uniform(0, 2), 2))
            txs.append({"place": place, "price": price})
        out.append({"age": age, "sex": sex, "transactions": txs})
    return out


def test_10_end_to_end_smoke(tmp_path, capsys):
    t0 = time.perf_counter()
    schema_path = tmp_path / "users.schema.json"
    schema_path.write_text(json.dumps(USERS_DOC), encoding="utf-8")
    data_path = tmp_path / "users.jsonl"
    rows = users_rows(np.random.default_rng(10), 5000)
    data_path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                         encoding="utf-8")
    model = str(tmp_path / "users.ngm")
    synth = str(tmp_path / "synth.jsonl")
    report_path = str(tmp_path / "report.json")

    assert cli_main(["fit", "--schema", str(schema_path), "--data",
                     str(data_path), "--out", model,
                     "--width", "24", "--blocks", "1", "--heads", "4",
                     "--epochs", "60", "--batch-size", "256",
                     "--lr", "0.01", "--seed", "0"]) == 0
    assert cli_main(["sample", "--model", model, "--count", "20000",
                     "--out", synth, "--seed", "1"]) == 0
    assert cli_main(["eval", str(data_path), synth,
                     "--schema", str(schema_path),
                     "--k", "4", "--subsets", "10",
                     "--out", report_path]) == 0
    capsys.readouterr()

    from pathlib import Path

    from nestgen.artifact import load_model
    _, store, *_ = load_model(model)
    n_params = store.n_params()
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    score = report["marginal"]["score"]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300 and score >= 900 and n_params <= 200000
    verdict(10, ok, f"marginal score {score:.1f} (floor 900), "
                    f"{n_params} parameters (cap 200000), {elapsed:.1f}s "
                    "(cap 300s)")
