import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eager_period_keys, label_reference, random_panel
from seqeffects import MarkovKey, StratumKey, UsageError


def test_stratum_key_shape_and_labels():
    k = StratumKey((1, 0), ((1,),))
    assert k.depth == 3
    assert k.time == 2
    assert k.ends_with_treatment
    assert k.label() == "z1=1 x1=1 z2=0"
    assert k.arm() == 0


def test_single_period_label():
    assert StratumKey((1,), ()).label() == "z1=1"


def test_wide_covariates_label_all_components():
    k = StratumKey((0, 1), ((2, 0),))
    assert k.label() == "z1=0 x1=2,0 z2=1"


def test_parent_and_sibling():
    k = StratumKey((1, 1), ((0,),))
    assert k.parent_stratum() == StratumKey((1,), ((0,),))
    assert k.sibling(0) == StratumKey((1, 0), ((0,),))
    assert StratumKey((1,), ()).parent_stratum() == StratumKey((), ())


def test_growing_a_key():
    k = StratumKey((1,), ())
    k = k.with_covariate((0,))
    k = k.with_treatment(1)
    assert k == StratumKey((1, 1), ((0,),))


def test_symbols_interleave():
    # trie edge labels alternate treatment, covariate, treatment, ...
    k = StratumKey((1, 0), ((1,),))
    assert k.symbols() == [1, (1,), 0]


def test_mismatched_lengths_rejected():
    with pytest.raises(UsageError):
        StratumKey((1,), ((0,), (1,)))


def test_arm_requires_trailing_treatment():
    with pytest.raises(UsageError):
        StratumKey((1,), ((0,),)).arm()


def test_markov_key_label_is_marked_pooled():
    m = MarkovKey(3, 1, (0,), 1)
    assert m.time == 3
    assert m.label() == "z2=1 x2=0 z3=1 pooled"


def test_keys_are_hashable_and_distinct():
    a = StratumKey((1, 0), ((1,),))
    b = StratumKey((1, 0), ((0,),))
    assert a != b
    assert len({a, b, a}) == 2


# -- labels built once, keys built on demand ----------------------------

codes = st.integers(0, 10**6) | st.integers(0, 12)


@st.composite
def stratum_keys(draw):
    nz = draw(st.integers(0, 6))
    nx = draw(st.sampled_from([n for n in (nz - 1, nz) if n >= 0]))
    # one covariate width throughout, as in a dataset, or one per entry
    widths = draw(
        st.integers(0, 3).map(lambda w: [w] * nx)
        | st.lists(st.integers(0, 3), min_size=nx, max_size=nx)
    )
    treatments = tuple(draw(st.lists(codes, min_size=nz, max_size=nz)))
    covariates = tuple(
        tuple(draw(st.lists(codes, min_size=w, max_size=w))) for w in widths
    )
    return StratumKey(treatments, covariates)


markov_keys = st.builds(
    MarkovKey,
    time=st.integers(2, 40),
    prev_treatment=codes,
    prev_covariate=st.lists(codes, max_size=3).map(tuple),
    treatment=codes,
)


@settings(max_examples=300, deadline=None)
@given(key=stratum_keys() | markov_keys)
def test_label_matches_the_symbol_loop(key):
    want = label_reference(key)
    assert key.label() == want
    assert key.label() == want  # formatted afresh, the same text
    assert repr(key) == f"{type(key).__name__}<{want}>"


@settings(max_examples=100, deadline=None)
@given(key=stratum_keys() | markov_keys)
def test_a_kept_label_changes_no_field_equality_or_hash(key):
    fresh = dataclasses.replace(key)
    key.label()
    assert key == fresh and hash(key) == hash(fresh)
    assert dataclasses.astuple(key) == dataclasses.astuple(fresh)
    assert [f.name for f in dataclasses.fields(key)] == [
        f.name for f in dataclasses.fields(type(key))
    ]


def test_key_fields_are_unchanged():
    assert [f.name for f in dataclasses.fields(StratumKey)] == ["treatments", "covariates"]
    assert [f.name for f in dataclasses.fields(MarkovKey)] == [
        "time",
        "prev_treatment",
        "prev_covariate",
        "treatment",
    ]


def test_empty_and_multi_digit_labels():
    assert StratumKey().label() == "(all)"
    assert StratumKey((12, 0), ((),)).label() == "z1=12 x1= z2=0"
    assert StratumKey((3,), ((104, 7, 0),)).label() == "z1=3 x1=104,7,0"
    assert MarkovKey(11, 2, (), 30).label() == "z10=2 x10= z11=30 pooled"


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: StratumKey((1,), ((0,), (1,))),
            "invalid key shape: 1 treatments with 2 covariate entries",
        ),
        (
            lambda: StratumKey((), ((),)),
            "invalid key shape: 0 treatments with 1 covariate entries",
        ),
        (
            lambda: StratumKey((1, 0, 1), ((),)),
            "invalid key shape: 3 treatments with 1 covariate entries",
        ),
        (lambda: StratumKey((0, -1), ((0,),)), "treatment codes must be non-negative"),
        (lambda: StratumKey((-3,), ((),)), "treatment codes must be non-negative"),
        (lambda: StratumKey((0, 1), ((0, -2),)), "covariate codes must be non-negative"),
        (lambda: StratumKey((0, 1, 1), ((), (-1,))), "covariate codes must be non-negative"),
        (lambda: MarkovKey(1, 0, (0,), 1), "collapsed keys require time >= 2"),
        (lambda: MarkovKey(3, -1, (0,), 1), "treatment codes must be non-negative"),
        (lambda: MarkovKey(3, 0, (), -2), "treatment codes must be non-negative"),
    ],
)
def test_keys_reject_bad_codes_and_shapes(make, message):
    with pytest.raises(UsageError) as info:
        make()
    assert str(info.value) == message


def test_empty_covariate_vectors_are_accepted():
    k = StratumKey((0, 1, 2), ((), ()))
    assert k.depth == 5
    assert k.label() == "z1=0 x1= z2=1 x2= z3=2"


panels = st.builds(
    random_panel,
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 4),
    width=st.integers(0, 2),
    n=st.integers(1, 60),
    levels=st.sampled_from([2, 3, 12]),
)


@settings(max_examples=100, deadline=None)
@given(d=panels, markov=st.booleans())
def test_period_keys_match_the_eager_builder(d, markov):
    want = eager_period_keys(d, markov)
    periods = d.periods(markov)
    assert [len(p.arms) for p in periods] == [len(w) for w in want]
    for period, w in zip(periods, want):
        assert [period.key(g) for g in range(len(w))] == w
        assert period.labels(range(len(w))) == [key.label() for key in w]
        with pytest.raises(IndexError):
            period.key(len(w))
