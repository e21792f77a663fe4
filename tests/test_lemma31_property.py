"""Property suite for the sequence inequality: search for counterexamples."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etagap.bounds import Lemma31Instance, lemma31_check, random_lemma31_instance


@st.composite
def instances(draw):
    length = draw(st.integers(min_value=2, max_value=50))
    mu1 = draw(st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
    steps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
            min_size=length - 1,
            max_size=length - 1,
        )
    )
    mu = [mu1]
    for s in steps:
        mu.append(mu[-1] + s)
    if mu[-1] == mu[0]:
        mu[-1] = mu[0] + 0.25
    m1 = sum(1 for v in mu if v == mu[0])
    r = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=length,
            max_size=length,
        )
    )
    if r[m1 - 1] == 0.0:
        r[m1 - 1] = draw(st.floats(min_value=0.05, max_value=1.0))
    return Lemma31Instance(tuple(mu), tuple(r))


@given(instances())
@settings(max_examples=500, deadline=None)
def test_hypothesis_implies_conclusion(inst):
    res = lemma31_check(inst)
    if res.hypothesis_ok:
        assert res.conclusion_ok, (inst, res)


@given(instances())
@settings(max_examples=300, deadline=None)
def test_quotient_form_is_the_sum_of_terms(inst):
    # A + mu_m1 mu_{m1+1} B - (mu_m1 + mu_{m1+1}) S = sum r_i^2 (mu_i - mu_m1)(mu_i - mu_{m1+1})
    res = lemma31_check(inst)
    mu, r = np.array(inst.mu), np.array(inst.r)
    mu1, mu2 = mu[inst.m1 - 1], mu[inst.m1]
    terms = r**2 * (mu - mu1) * (mu - mu2)
    parts = (res.a, mu1 * mu2 * res.b, (mu1 + mu2) * res.s)
    assert abs(parts[0] + parts[1] - parts[2] - math.fsum(terms)) <= 8 * np.finfo(float).eps * sum(parts)


@given(instances())
@settings(max_examples=300, deadline=None)
def test_cauchy_schwarz_always(inst):
    # S <= sqrt(A) sqrt(B) unconditionally (factored form avoids underflow
    # of the product for denormal-scale weights); strictness is what the
    # hypothesis adds
    res = lemma31_check(inst)
    assert res.s <= np.sqrt(res.a) * np.sqrt(res.b) * (1.0 + 1e-12)


def test_seeded_bulk_run_no_counterexamples():
    rng = np.random.default_rng(0)
    hypothesis_satisfied = 0
    for _ in range(10_000):
        res = lemma31_check(random_lemma31_instance(rng))
        if res.hypothesis_ok:
            hypothesis_satisfied += 1
            assert res.conclusion_ok
    assert hypothesis_satisfied > 9_000
