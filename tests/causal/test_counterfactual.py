"""Tests for the discrete counterfactual SCM (abduction–action–prediction)."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import CausalGraph, CounterfactualSCM, DiscreteCPT

RNG = np.random.default_rng


def chain_scm() -> CounterfactualSCM:
    """S → Z → Y with a direct S → Y edge, all binary."""
    graph = CausalGraph([("S", "Z"), ("Z", "Y"), ("S", "Y")])
    dom = np.array([0.0, 1.0])
    cpts = {
        "S": DiscreteCPT((), dom, {(): np.array([0.5, 0.5])}),
        "Z": DiscreteCPT(("S",), dom, {
            (0.0,): np.array([0.8, 0.2]),
            (1.0,): np.array([0.3, 0.7]),
        }),
        "Y": DiscreteCPT(("S", "Z"), dom, {
            (0.0, 0.0): np.array([0.9, 0.1]),
            (0.0, 1.0): np.array([0.6, 0.4]),
            (1.0, 0.0): np.array([0.5, 0.5]),
            (1.0, 1.0): np.array([0.2, 0.8]),
        }),
    }
    return CounterfactualSCM(graph, cpts)


# ----------------------------------------------------------------------
# DiscreteCPT
# ----------------------------------------------------------------------
class TestDiscreteCPT:
    def test_domain_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            DiscreteCPT((), np.array([1.0, 0.0]), {(): np.array([0.5, 0.5])})

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError, match="invalid distribution"):
            DiscreteCPT((), np.array([0.0, 1.0]), {(): np.array([0.5, 0.6])})

    def test_wrong_vector_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            DiscreteCPT((), np.array([0.0, 1.0]), {(): np.array([1.0])})

    def test_apply_is_monotone_in_noise(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0, 2.0]),
                          {(): np.array([0.2, 0.5, 0.3])})
        u = np.linspace(0, 0.999, 200)
        values = cpt.apply({}, u)
        assert np.all(np.diff(values) >= 0)

    def test_apply_matches_cdf_boundaries(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0, 2.0]),
                          {(): np.array([0.2, 0.5, 0.3])})
        values = cpt.apply({}, np.array([0.0, 0.19, 0.2, 0.69, 0.7, 0.99]))
        assert list(values) == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]

    def test_fallback_for_unseen_parent_combo(self):
        dom = np.array([0.0, 1.0])
        cpt = DiscreteCPT(("P",), dom, {(0.0,): np.array([1.0, 0.0])})
        vals = cpt.apply({"P": np.array([9.0, 9.0])}, np.array([0.1, 0.9]))
        # Uniform fallback: u < .5 → 0, u >= .5 → 1.
        assert list(vals) == [0.0, 1.0]

    def test_abduct_noise_reproduces_observation(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0, 2.0]),
                          {(): np.array([0.2, 0.5, 0.3])})
        observed = np.array([0.0, 1.0, 2.0, 1.0])
        u = cpt.abduct({}, observed, RNG(0))
        assert np.array_equal(cpt.apply({}, u), observed)

    def test_abduct_rejects_out_of_domain(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0]),
                          {(): np.array([0.5, 0.5])})
        with pytest.raises(ValueError, match="outside domain"):
            cpt.abduct({}, np.array([5.0]), RNG(0))

    def test_abduct_rejects_zero_probability_evidence(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0]),
                          {(): np.array([1.0, 0.0])})
        with pytest.raises(ValueError, match="zero probability"):
            cpt.abduct({}, np.array([1.0]), RNG(0))

    def test_sample_roundtrip(self):
        cpt = DiscreteCPT((), np.array([0.0, 1.0]),
                          {(): np.array([0.3, 0.7])})
        values, noise = cpt.sample({}, 500, RNG(1))
        assert np.array_equal(cpt.apply({}, noise), values)
        assert 0.55 < values.mean() < 0.85

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_abduct_then_apply_identity_property(self, weights):
        """For any distribution, apply(abduct(x)) == x (monotone repr)."""
        probs = np.asarray(weights) / np.sum(weights)
        domain = np.arange(len(weights), dtype=float)
        cpt = DiscreteCPT((), domain, {(): probs})
        rng = RNG(7)
        observed = rng.choice(domain, size=50)
        u = cpt.abduct({}, observed, rng)
        assert np.array_equal(cpt.apply({}, u), observed)


# ----------------------------------------------------------------------
# CounterfactualSCM
# ----------------------------------------------------------------------
class TestCounterfactualSCM:
    def test_missing_cpt_rejected(self):
        graph = CausalGraph([("A", "B")])
        dom = np.array([0.0, 1.0])
        cpts = {"A": DiscreteCPT((), dom, {(): np.array([0.5, 0.5])})}
        with pytest.raises(ValueError, match="no CPT"):
            CounterfactualSCM(graph, cpts)

    def test_parent_mismatch_rejected(self):
        graph = CausalGraph([("A", "B")])
        dom = np.array([0.0, 1.0])
        cpts = {
            "A": DiscreteCPT((), dom, {(): np.array([0.5, 0.5])}),
            "B": DiscreteCPT((), dom, {(): np.array([0.5, 0.5])}),
        }
        with pytest.raises(ValueError, match="do not match"):
            CounterfactualSCM(graph, cpts)

    def test_sample_respects_intervention(self):
        scm = chain_scm()
        values = scm.sample(200, RNG(0), interventions={"S": 1})
        assert np.all(values["S"] == 1.0)

    def test_intervention_shifts_mediator(self):
        scm = chain_scm()
        z1 = scm.sample(4000, RNG(0), interventions={"S": 1})["Z"].mean()
        z0 = scm.sample(4000, RNG(1), interventions={"S": 0})["Z"].mean()
        assert z1 > z0 + 0.3  # 0.7 vs 0.2 in the CPT

    def test_evaluate_rejects_unknown_intervention(self):
        scm = chain_scm()
        noise = scm.sample_noise(10, RNG(0))
        with pytest.raises(ValueError, match="unknown nodes"):
            scm.evaluate(noise, {"Q": 1})

    def test_evaluate_rejects_misaligned_noise(self):
        scm = chain_scm()
        noise = scm.sample_noise(10, RNG(0))
        noise["Z"] = noise["Z"][:5]
        with pytest.raises(ValueError, match="differing lengths"):
            scm.evaluate(noise)

    def test_abduction_is_consistent_with_evidence(self):
        """Re-running the factual world on abducted noise recovers the row."""
        scm = chain_scm()
        evidence = {"S": 0.0, "Z": 1.0, "Y": 0.0}
        noise = scm.abduct(evidence, 300, RNG(3))
        replay = scm.evaluate(noise)
        for node, val in evidence.items():
            assert np.all(replay[node] == val), node

    def test_abduct_requires_full_evidence(self):
        scm = chain_scm()
        with pytest.raises(ValueError, match="full evidence"):
            scm.abduct({"S": 0.0}, 10, RNG(0))

    def test_counterfactual_respects_intervention(self):
        scm = chain_scm()
        cf = scm.counterfactual({"S": 0.0, "Z": 0.0, "Y": 0.0},
                                {"S": 1}, 500, RNG(5))
        assert np.all(cf["S"] == 1.0)

    def test_null_counterfactual_is_factual(self):
        """Intervening with the observed value must return the evidence."""
        scm = chain_scm()
        evidence = {"S": 1.0, "Z": 1.0, "Y": 1.0}
        cf = scm.counterfactual(evidence, {"S": 1}, 400, RNG(9))
        for node, val in evidence.items():
            assert np.all(cf[node] == val), node

    def test_counterfactual_mean_in_unit_interval(self):
        scm = chain_scm()
        m = scm.counterfactual_mean({"S": 0.0, "Z": 0.0, "Y": 0.0},
                                    {"S": 1}, "Y", 400, RNG(2))
        assert 0.0 <= m <= 1.0

    def test_counterfactual_monotone_model_raises_outcome(self):
        """In the chain SCM, flipping S to 1 weakly raises P(Y=1)."""
        scm = chain_scm()
        rng = RNG(11)
        for z in (0.0, 1.0):
            ev = {"S": 0.0, "Z": z, "Y": 0.0}
            m1 = scm.counterfactual_mean(ev, {"S": 1}, "Y", 2000, rng)
            m0 = scm.counterfactual_mean(ev, {"S": 0}, "Y", 2000, rng)
            assert m1 >= m0 - 0.05

    def test_abduct_partial_matches_evidence(self):
        scm = chain_scm()
        noise = scm.abduct_partial({"S": 1.0, "Y": 1.0}, 100, RNG(4))
        replay = scm.evaluate(noise)
        assert np.all(replay["S"] == 1.0)
        assert np.all(replay["Y"] == 1.0)
        # The unobserved mediator must retain posterior variability.
        assert len(np.unique(replay["Z"])) == 2

    def test_abduct_partial_failure_reports_accepted_count(self):
        # P(S=0, Y=1) = 0.08: one batch of 400 accepts some particles,
        # but far fewer than the 100 asked for.
        scm = chain_scm()
        with pytest.raises(RuntimeError) as info:
            scm.abduct_partial({"S": 0.0, "Y": 1.0}, 100, RNG(4),
                               max_tries=1)
        message = str(info.value)
        found, wanted = map(int, re.search(r"found only (\d+)/(\d+)",
                                           message).groups())
        assert 0 < found < wanted == 100
        assert "kept=0" not in message

    def test_abduct_partial_full_evidence_delegates(self):
        scm = chain_scm()
        noise = scm.abduct_partial({"S": 0.0, "Z": 1.0, "Y": 1.0}, 50, RNG(6))
        replay = scm.evaluate(noise)
        assert np.all(replay["Z"] == 1.0)


class TestFitFromData:
    def test_fit_recovers_marginals(self):
        rng = RNG(0)
        graph = CausalGraph([("S", "Y")])
        s = rng.integers(0, 2, 5000).astype(float)
        y = ((rng.random(5000) < np.where(s == 1, 0.8, 0.3))
             .astype(float))
        scm = CounterfactualSCM.fit({"S": s, "Y": y}, graph)
        sample = scm.sample(20000, RNG(1))
        p1 = sample["Y"][sample["S"] == 1].mean()
        p0 = sample["Y"][sample["S"] == 0].mean()
        assert p1 == pytest.approx(0.8, abs=0.05)
        assert p0 == pytest.approx(0.3, abs=0.05)

    def test_fit_requires_all_columns(self):
        graph = CausalGraph([("A", "B")])
        with pytest.raises(ValueError, match="missing"):
            CounterfactualSCM.fit({"A": np.zeros(5)}, graph)

    def test_fit_rejects_nonpositive_laplace(self):
        graph = CausalGraph([], nodes=["A"])
        with pytest.raises(ValueError, match="laplace"):
            CounterfactualSCM.fit({"A": np.zeros(5)}, graph, laplace=0.0)

    def test_fit_smoothing_prevents_zero_probability_abduction(self):
        """Even values never seen under a parent combo stay abducible."""
        graph = CausalGraph([("S", "Y")])
        s = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])  # Y==S always in the data
        scm = CounterfactualSCM.fit({"S": s, "Y": y}, graph, laplace=1.0)
        # Evidence contradicting the observed pattern is still abducible.
        noise = scm.abduct({"S": 0.0, "Y": 1.0}, 20, RNG(0))
        replay = scm.evaluate(noise)
        assert np.all(replay["Y"] == 1.0)

    def test_fit_on_dataset_generator_columns(self, compas_small):
        """The fitted SCM reproduces COMPAS's group-conditional label gap."""
        cols = {name: compas_small.table[name].astype(float)
                for name in compas_small.causal_graph.nodes}
        scm = CounterfactualSCM.fit(cols, compas_small.causal_graph)
        sample = scm.sample(8000, RNG(3))
        s, y = sample["race"], sample["risk"]
        gap = y[s == 1].mean() - y[s == 0].mean()
        data_gap = (cols["risk"][cols["race"] == 1].mean()
                    - cols["risk"][cols["race"] == 0].mean())
        assert gap == pytest.approx(data_gap, abs=0.08)


# ----------------------------------------------------------------------
# Parity of the compiled fast paths against the loop reference
# ----------------------------------------------------------------------
class TestCompiledCptParity:
    """The compiled CPT form must reproduce the loop reference exactly:
    probabilities/apply are deterministic, and abduct consumes the RNG
    in the same order (one draw batch per call)."""

    def make_cpt(self, seed=0, n_parents=2, domain_size=3):
        rng = RNG(seed)
        domain = np.arange(domain_size, dtype=float)
        parents = tuple(f"P{i}" for i in range(n_parents))
        table = {}
        for combo in np.ndindex(*(2 for _ in parents)):
            probs = rng.random(domain_size) + 0.05
            table[tuple(float(c) for c in combo)] = probs / probs.sum()
        return DiscreteCPT(parents, domain, table)

    def make_queries(self, seed=1, n=257):
        # Parent values 0/1 from the table plus 9.0, an unseen combo
        # that must resolve to the fallback distribution.
        rng = RNG(seed)
        return {
            "P0": rng.choice([0.0, 1.0, 9.0], size=n, p=[0.45, 0.45, 0.1]),
            "P1": rng.choice([0.0, 1.0], size=n),
        }

    def test_probabilities_match_loop_exactly(self):
        from repro.causal.reference import cpt_probabilities_loop

        cpt = self.make_cpt()
        queries = self.make_queries()
        n = queries["P0"].shape[0]
        assert np.array_equal(cpt.probabilities(queries, n),
                              cpt_probabilities_loop(cpt, queries, n))

    def test_root_probabilities_match_loop_exactly(self):
        from repro.causal.reference import cpt_probabilities_loop

        cpt = DiscreteCPT((), np.array([0.0, 1.0, 2.0]),
                          {(): np.array([0.2, 0.5, 0.3])})
        assert np.array_equal(cpt.probabilities({}, 31),
                              cpt_probabilities_loop(cpt, {}, 31))

    def test_apply_matches_loop_exactly(self):
        from repro.causal.reference import cpt_apply_loop

        cpt = self.make_cpt(seed=2)
        queries = self.make_queries(seed=3)
        noise = RNG(4).random(queries["P0"].shape[0])
        assert np.array_equal(cpt.apply(queries, noise),
                              cpt_apply_loop(cpt, queries, noise))

    def test_abduct_bit_identical_to_loop(self):
        from repro.causal.reference import cpt_abduct_loop

        cpt = self.make_cpt(seed=5)
        queries = self.make_queries(seed=6)
        n = queries["P0"].shape[0]
        observed = RNG(7).choice(cpt.domain, size=n)
        fast = cpt.abduct(queries, observed, RNG(8))
        loop = cpt_abduct_loop(cpt, queries, observed, RNG(8))
        assert np.array_equal(fast, loop)

    def test_scm_abduct_bit_identical_to_loop(self):
        from repro.causal.reference import scm_abduct_loop

        scm = chain_scm()
        evidence = {"S": 1.0, "Z": 0.0, "Y": 1.0}
        fast = scm.abduct(evidence, 100, RNG(9))
        loop = scm_abduct_loop(scm, evidence, 100, RNG(9))
        for node in scm.graph.nodes:
            assert np.array_equal(fast[node], loop[node]), node

    def test_fit_matches_loop_counts_exactly(self):
        from repro.causal.reference import fit_tables_loop

        rng = RNG(10)
        graph = CausalGraph([("S", "Z"), ("Z", "Y"), ("S", "Y")])
        cols = {
            "S": rng.integers(0, 2, 700).astype(float),
            "Z": rng.integers(0, 3, 700).astype(float),
            "Y": rng.integers(0, 2, 700).astype(float),
        }
        scm = CounterfactualSCM.fit(cols, graph, laplace=0.5)
        for node, (domain, table) in fit_tables_loop(cols, graph).items():
            cpt = scm.cpt(node)
            assert np.array_equal(cpt.domain, domain)
            assert set(cpt.table) == set(table)
            for key, vec in table.items():
                assert np.allclose(cpt.table[key], vec, atol=1e-15), (
                    node, key)


# ----------------------------------------------------------------------
# The compiled parent lookup behind probabilities/apply/abduct
# ----------------------------------------------------------------------
def wide_cpt(seed, n_parents=10, n_levels=3, n_keys=995, domain_size=3):
    """A CPT shaped like german's ``credit_risk``: many parents, with a
    sparse random subset of their level combinations as table keys.
    Parent 0 always has the level 0.0 (the ``-0.0`` queries need it)."""
    rng = RNG(seed)
    pool = np.array([-1.5, 1.0, 2.0, 3.25, 7.0, 11.5])
    if n_levels > pool.size:
        pool = np.arange(1, n_levels + 1, dtype=float) / 4
    levels = [np.sort(rng.choice(pool, n_levels, replace=False))
              for _ in range(n_parents)]
    levels[0][0] = 0.0
    combos = np.unique(np.column_stack(
        [rng.choice(lv, n_keys) for lv in levels]), axis=0)
    probs = rng.random((combos.shape[0], domain_size)) + 0.05
    table = dict(zip(map(tuple, combos.tolist()),
                     probs / probs.sum(axis=1, keepdims=True)))
    parents = tuple(f"P{i}" for i in range(n_parents))
    return DiscreteCPT(parents, np.arange(domain_size, dtype=float), table)


def wide_queries(cpt, n, seed, broadcast="none"):
    """Parent columns mixing table hits, near misses (a hit with one
    value swapped for another seen level), unseen combinations of seen
    levels, values outside a parent's levels, NaN and ``-0.0``; with
    ``broadcast`` set, some or all columns are stride-0 views."""
    rng = RNG(seed)
    keys = np.array(list(cpt.table))
    levels = [np.unique(col) for col in keys.T]
    p = len(cpt.parents)
    out = keys[rng.integers(0, len(keys), n)]
    kind = rng.integers(0, 6, n)
    col = rng.integers(0, p, n)
    for i in range(n):
        if kind[i] == 1:
            out[i, col[i]] = rng.choice(levels[col[i]])
        elif kind[i] == 2:
            out[i] = [rng.choice(lv) for lv in levels]
        elif kind[i] == 3:
            out[i, col[i]] = 99.5
        elif kind[i] == 4:
            out[i, col[i]] = np.nan
    out[:, 0][(out[:, 0] == 0.0) & (rng.random(n) < 0.5)] = -0.0
    columns = {name: out[:, j].copy() for j, name in enumerate(cpt.parents)}
    flat = {"none": [], "some": cpt.parents[::3],
            "all": cpt.parents}[broadcast]
    for name in flat:
        columns[name] = np.broadcast_to(columns[name][0], (n,))
    return columns


def assert_matches_loop(cpt, queries, n, seed):
    from repro.causal.reference import (cpt_abduct_loop, cpt_apply_loop,
                                        cpt_probabilities_loop)

    assert np.array_equal(cpt.probabilities(queries, n),
                          cpt_probabilities_loop(cpt, queries, n))
    noise = RNG(seed).random(n)
    assert np.array_equal(cpt.apply(queries, noise),
                          cpt_apply_loop(cpt, queries, noise))
    observed = RNG(seed + 1).choice(cpt.domain, size=n)
    assert np.array_equal(
        cpt.abduct(queries, observed, RNG(seed + 2)),
        cpt_abduct_loop(cpt, queries, observed, RNG(seed + 2)))


class TestCompiledLookup:
    """``_rows`` resolves parent combinations by vectorized searches over
    compiled level and key-code arrays (and by a memoised dict walk for
    small batches); every path must agree exactly with the per-row dict
    lookup of the loop reference."""

    @given(n=st.sampled_from([1, 64, 128, 129, 257, 20_000]),
           seed=st.integers(0, 2**16),
           broadcast=st.sampled_from(["none", "some", "all"]))
    @settings(max_examples=30, deadline=None)
    def test_wide_table_matches_loop(self, n, seed, broadcast):
        cpt = wide_cpt(seed % 7)
        assert len(cpt.parents) >= 10 and len(cpt.table) > 500
        queries = wide_queries(cpt, n, seed, broadcast)
        assert_matches_loop(cpt, queries, n, seed)

    @pytest.mark.parametrize("n", [64, 129, 5000])
    def test_radix_product_beyond_int64_matches_loop(self, n):
        cpt = wide_cpt(1, n_parents=12, n_levels=300, n_keys=400)
        keys = np.array(list(cpt.table))
        radix = math.prod(np.unique(col).size for col in keys.T)
        assert radix > np.iinfo(np.int64).max
        assert_matches_loop(cpt, wide_queries(cpt, n, seed=n), n, seed=n)

    def test_radix_overflow_cannot_alias(self):
        # Nine parents of 256 levels: a mixed-radix code wrapped modulo
        # 2**64 would drop parent 0's digit entirely, so a key with its
        # first value swapped for another seen level would alias the
        # key itself.  The lookup must still report it absent.
        n_keys, p = 256, 9
        keys = (np.arange(n_keys)[:, None] + 17 * np.arange(p)) % 256
        probs = RNG(0).random((n_keys, 2)) + 0.05
        table = dict(zip(map(tuple, keys.astype(float).tolist()),
                         probs / probs.sum(axis=1, keepdims=True)))
        cpt = DiscreteCPT(tuple(f"P{i}" for i in range(p)),
                          np.array([0.0, 1.0]), table)
        near = keys.astype(float)
        near[:, 0] = (near[:, 0] + 1) % 256
        queries = {f"P{i}": np.concatenate([keys[:, i], near[:, i]])
                   .astype(float) for i in range(p)}
        probs = cpt.probabilities(queries, 2 * n_keys)
        assert np.array_equal(probs[n_keys:],
                              np.tile(cpt.fallback, (n_keys, 1)))
        assert_matches_loop(cpt, queries, 2 * n_keys, seed=0)

    def test_negative_zero_resolves_like_zero(self):
        cpt = DiscreteCPT(("a", "b"), np.array([0.0, 1.0]), {
            (0.0, 1.0): np.array([0.9, 0.1]),
            (-0.0, 2.0): np.array([0.2, 0.8]),
        })
        n = 300
        a = np.where(np.arange(n) % 2 == 0, -0.0, 0.0)
        b = np.where(np.arange(n) % 3 == 0, 2.0, 1.0)
        probs = cpt.probabilities({"a": a, "b": b}, n)
        assert np.array_equal(probs[:, 1], np.where(b == 2.0, 0.8, 0.1))

    def test_nan_never_matches_a_key(self):
        # A NaN key is unreachable through a dict lookup (NaN != NaN),
        # so compiled lookups must give those rows the fallback too.
        cpt = DiscreteCPT(("a",), np.array([0.0, 1.0]), {
            (np.nan,): np.array([0.9, 0.1]),
            (1.0,): np.array([0.2, 0.8]),
        }, fallback=np.array([0.5, 0.5]))
        a = np.tile([np.nan, 1.0, 3.0], 100)
        probs = cpt.probabilities({"a": a}, a.size)
        assert np.array_equal(probs[:, 1], np.tile([0.5, 0.8, 0.5], 100))

    def test_table_without_keys_resolves_to_fallback(self):
        cpt = DiscreteCPT(("a",), np.array([0.0, 1.0]), {},
                          fallback=np.array([0.25, 0.75]))
        for n in (3, 500):
            probs = cpt.probabilities({"a": np.zeros(n)}, n)
            assert np.array_equal(probs, np.tile([0.25, 0.75], (n, 1)))

    @pytest.mark.parametrize("n", [1, 64, 129, 5000])
    def test_codec_roundtrip_resolves_identically(self, n):
        from repro.artifacts import decode, encode

        cpt = wide_cpt(5)
        arrays = {}
        back = decode(encode(cpt, arrays), arrays)
        queries = wide_queries(cpt, n, seed=n)
        assert np.array_equal(back.probabilities(queries, n),
                              cpt.probabilities(queries, n))
        noise = RNG(n).random(n)
        assert np.array_equal(back.apply(queries, noise),
                              cpt.apply(queries, noise))


class TestBatchedValidation:
    """Validation runs over all vectors at once but still names the
    first offending key in table order."""

    def make_table(self, second, third=(0.5, 0.5)):
        return {(0.0, 0.0): np.array([0.5, 0.5]),
                (0.0, 1.0): np.asarray(second, dtype=float),
                (1.0, 0.0): np.asarray(third, dtype=float)}

    def build(self, table):
        return DiscreteCPT(("a", "b"), np.array([0.0, 1.0]), table)

    def test_negative_entry_names_key(self):
        with pytest.raises(ValueError, match=r"invalid distribution for "
                                             r"\(0\.0, 1\.0\)"):
            self.build(self.make_table((1.2, -0.2)))

    def test_bad_sum_names_key(self):
        with pytest.raises(ValueError, match=r"invalid distribution for "
                                             r"\(0\.0, 1\.0\): \[0\.5 0\.6\]"):
            self.build(self.make_table((0.5, 0.6)))

    def test_wrong_shape_names_key(self):
        with pytest.raises(ValueError, match=r"probability vector for "
                                             r"\(0\.0, 1\.0\) has shape "
                                             r"\(3,\), expected \(2,\)"):
            self.build(self.make_table((0.2, 0.3, 0.5)))

    def test_first_offending_key_wins(self):
        with pytest.raises(ValueError, match="invalid distribution"):
            self.build(self.make_table((0.5, 0.6), third=(1.0,)))
        with pytest.raises(ValueError, match="has shape"):
            self.build(self.make_table((1.0,), third=(0.5, 0.6)))

    def test_normalisation_bit_identical_to_per_vector(self):
        rng = RNG(3)
        raw = {(float(i),): v / v.sum()
               for i, v in enumerate(rng.random((40, 9)) + 0.01)}
        cpt = DiscreteCPT(("a",), np.arange(9, dtype=float), raw)
        for key, vec in raw.items():
            assert np.array_equal(cpt.table[key], vec / vec.sum())


class TestAbductRows:
    def test_replay_recovers_every_row(self):
        scm = chain_scm()
        sample = scm.sample(300, RNG(0))
        noise = scm.abduct_rows(sample, RNG(1))
        replay = scm.evaluate(noise)
        for node in scm.graph.nodes:
            assert np.array_equal(replay[node], sample[node]), node

    def test_missing_column_rejected(self):
        scm = chain_scm()
        with pytest.raises(ValueError, match="full evidence"):
            scm.abduct_rows({"S": np.zeros(3)}, RNG(0))

    def test_misaligned_columns_rejected(self):
        scm = chain_scm()
        cols = {"S": np.zeros(3), "Z": np.zeros(3), "Y": np.zeros(2)}
        with pytest.raises(ValueError, match="differing lengths"):
            scm.abduct_rows(cols, RNG(0))

    def test_repeated_rows_match_per_row_abduction_statistically(self):
        """Batching rows × particles must give the same posterior as
        per-row abduction (draw order differs, distribution must not)."""
        scm = chain_scm()
        evidence = {"S": 0.0, "Z": 1.0, "Y": 0.0}
        n = 4000
        batched = scm.abduct_rows(
            {k: np.full(n, v) for k, v in evidence.items()}, RNG(2))
        per_row = scm.abduct(evidence, n, RNG(3))
        for node in scm.graph.nodes:
            assert abs(batched[node].mean() - per_row[node].mean()) < 0.02
            assert abs(batched[node].std() - per_row[node].std()) < 0.02


class TestEvaluateBase:
    def test_base_reuse_is_exact(self):
        """Sharing unaffected nodes from a base world must equal a full
        re-evaluation: the model is deterministic given noise."""
        scm = chain_scm()
        noise = scm.sample_noise(500, RNG(0))
        factual = scm.evaluate(noise)
        for interventions in ({"S": 1.0}, {"Z": 0.0}, {"Y": 1.0}):
            full = scm.evaluate(noise, interventions)
            shared = scm.evaluate(noise, interventions, base=factual)
            for node in scm.graph.nodes:
                assert np.array_equal(full[node], shared[node]), (
                    interventions, node)

    def test_base_with_overrides_is_exact(self):
        scm = chain_scm()
        noise = scm.sample_noise(400, RNG(1))
        factual = scm.evaluate(noise)
        z0 = scm.evaluate(noise, {"S": 0.0}, base=factual)["Z"]
        full = scm.evaluate(noise, {"S": 1.0}, overrides={"Z": z0})
        shared = scm.evaluate(noise, {"S": 1.0}, overrides={"Z": z0},
                              base=factual)
        for node in scm.graph.nodes:
            assert np.array_equal(full[node], shared[node]), node

    def test_bad_base_shape_rejected(self):
        scm = chain_scm()
        noise = scm.sample_noise(10, RNG(2))
        factual = scm.evaluate(noise)
        bad = dict(factual, S=factual["S"][:5])
        with pytest.raises(ValueError, match="base value"):
            scm.evaluate(noise, {"Y": 1.0}, base=bad)

    def test_partial_base_rejected(self):
        scm = chain_scm()
        noise = scm.sample_noise(10, RNG(3))
        factual = scm.evaluate(noise)
        partial = {"Z": factual["Z"]}  # S is unaffected but missing
        with pytest.raises(ValueError, match="base is missing"):
            scm.evaluate(noise, {"Y": 1.0}, base=partial)
