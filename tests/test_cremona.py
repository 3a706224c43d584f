from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fatflats.cremona import (
    LinearSystem,
    cremona_transform,
    empty_certificate,
    hyperplane_product_witness,
    reduce_system,
    verify_gamma_points_case,
    virtual_dimension,
)


def test_parse_format_round_trip():
    sys_ = LinearSystem.parse(3, "12;7,7,7,7,7,7")
    assert sys_ == LinearSystem(3, 12, (7,) * 6)
    assert sys_.format() == "12;7,7,7,7,7,7"
    assert LinearSystem.parse(2, "5;").mults == ()


def test_every_construction_checks_n_and_coerces_mults():
    with pytest.raises(ValueError, match=r"Cremona systems live in P\^n with n >= 2"):
        LinearSystem(1, 2, (1,))
    sys_ = LinearSystem(2, 3, [1, True])
    assert sys_.mults == (1, 1) and type(sys_.mults) is tuple
    assert [type(m) for m in sys_.mults] == [int, int]


def test_transform_examples():
    out, c = cremona_transform(LinearSystem(2, 1, (0, 0, 0)), (0, 1, 2))
    assert (c, out) == (1, LinearSystem(2, 2, (1, 1, 1)))
    out, c = cremona_transform(LinearSystem(3, 3, (3, 3, 3, 3)), (0, 1, 2, 3))
    assert (c, out) == (-6, LinearSystem(3, -3, (-3, -3, -3, -3)))
    out, c = cremona_transform(LinearSystem(4, 3, (2,) * 7), (0, 1, 2, 3, 4))
    assert c == -1
    assert out == LinearSystem(4, 2, (1, 1, 1, 1, 1, 2, 2))


def test_transform_pads_short_lists():
    out, c = cremona_transform(LinearSystem(2, 1, (1,)), (0, 1, 2))
    assert c == 0 and out.mults == (1, 0, 0)


def test_transform_index_validation():
    with pytest.raises(ValueError):
        cremona_transform(LinearSystem(3, 2, (1, 1, 1, 1)), (0, 1, 2))
    with pytest.raises((IndexError, ValueError)):
        cremona_transform(LinearSystem(3, 2, (1, 1, 1, 1)), (-1, 0, 1, 2))


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=-6, max_value=12),
    st.data(),
)
def test_transform_is_an_involution(n, d, data):
    size = data.draw(st.integers(min_value=n + 1, max_value=n + 4))
    mults = tuple(
        data.draw(st.lists(st.integers(-4, 9), min_size=size, max_size=size))
    )
    idx = tuple(data.draw(st.permutations(range(size)))[: n + 1])
    sys_ = LinearSystem(n, d, mults)
    once, c1 = cremona_transform(sys_, idx)
    twice, c2 = cremona_transform(once, idx)
    assert twice == sys_
    assert c2 == -c1


@given(
    st.integers(min_value=0, max_value=12),
    st.lists(st.integers(0, 6), min_size=3, max_size=7),
)
def test_virtual_dimension_invariant_in_plane(d, mults):
    # in the plane the count C(d+2,2) - sum C(m_i+1,2) transforms by
    # c*(d - sum(chosen) - c) = 0, so it is invariant whenever no entry
    # gets clamped
    sys_ = LinearSystem(2, d, tuple(mults))
    out, _ = cremona_transform(sys_, (0, 1, 2))
    assume(all(m >= 0 for m in out.mults) and out.d >= 0)
    assert virtual_dimension(out) == virtual_dimension(sys_)


def test_virtual_dimension_not_invariant_in_space():
    # pinned counterexample: in P^3 the naive count moves even when every
    # multiplicity and degree stays comfortably nonnegative, so only the
    # actual dimension (not the virtual one) transports along reductions
    sys_ = LinearSystem(3, 4, (2, 2, 1, 1))
    out, c = cremona_transform(sys_, (0, 1, 2, 3))
    assert c == 2 and out == LinearSystem(3, 6, (4, 4, 3, 3))
    assert virtual_dimension(sys_) == 25
    assert virtual_dimension(out) == 24


def test_empty_certificate():
    assert empty_certificate(LinearSystem(3, -3, (-3,) * 4))
    assert empty_certificate(LinearSystem(3, 0, (-1, -1, -1, -1, 3)))
    assert not empty_certificate(LinearSystem(2, 1, (1, 1, 0)))


def test_count_certificate():
    # five points in P^2: no hyperplane product (5 > 2 * 2), but 6 - 5 > 0 forms
    trace = reduce_system(LinearSystem(2, 2, (1,) * 5))
    assert (trace.verdict, trace.certificate, trace.steps) == ("nonempty", "virtual dimension 1 > 0", ())
    # six points: virtual dimension 0, so no certificate fires until reduction empties it
    trace = reduce_system(LinearSystem(2, 2, (1,) * 6))
    assert (trace.verdict, trace.certificate) == ("empty", "negative degree in -1;0,0,0,-1,-1,-1")
    assert len(trace.steps) == 2


def test_witness_examples():
    w = hyperplane_product_witness(LinearSystem(3, 4, (3, 3, 3, 3)))
    assert w is not None and w.verify(LinearSystem(3, 4, (3, 3, 3, 3)))
    assert sorted(len(subset) for subset, _ in w.factors) == [3, 3, 3, 3]
    w = hyperplane_product_witness(LinearSystem(3, 5, (3,) * 5))
    assert w is not None and w.verify(LinearSystem(3, 5, (3,) * 5))
    w = hyperplane_product_witness(LinearSystem(4, 1, (1, 0, 0)))
    assert w is not None and sum(weight for _, weight in w.factors) == 1
    # no product can carry more coverage than n per degree unit
    assert hyperplane_product_witness(LinearSystem(2, 2, (1,) * 6)) is None
    assert hyperplane_product_witness(LinearSystem(3, 7, (6, 6, 6, 6))) is None


def test_witness_clamps_negative_multiplicities():
    w = hyperplane_product_witness(LinearSystem(3, 4, (3, 3, 3, 3, -1, -1)))
    assert w is not None
    assert w.verify(LinearSystem(3, 4, (3, 3, 3, 3, 0, 0)))


def _boxed_witness(sys_):
    """Reference: the round-robin one degree unit at a time, O(d) boxes."""
    needs = [max(m, 0) for m in sys_.mults]
    boxes = [[] for _ in range(sys_.d)]
    for cursor, point in enumerate(p for p, need in enumerate(needs) for _ in range(need)):
        boxes[cursor % sys_.d].append(point)
    grouped = {}
    for box in boxes:
        key = tuple(sorted(box))
        grouped[key] = grouped.get(key, 0) + 1
    return tuple(sorted(grouped.items()))


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10),
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=8),
)
def test_witness_feasibility_criterion(n, d, mults):
    sys_ = LinearSystem(n, d, tuple(mults))
    w = hyperplane_product_witness(sys_)
    feasible = max(mults) <= d and sum(mults) <= n * d
    assert (w is not None) == feasible
    if w is not None:
        assert w.verify(sys_) and w.factors == _boxed_witness(sys_)


def test_witness_cost_does_not_grow_with_the_degree():
    d = 10**12
    w = hyperplane_product_witness(LinearSystem(3, d, (1, 1)))
    assert w.factors == (((), d - 2), ((0,), 1), ((1,), 1))
    w = hyperplane_product_witness(LinearSystem(3, d, (d, d - 1, 5, -2)))
    assert w.factors == (((0, 1), d - 5), ((0, 1, 2), 4), ((0, 2), 1))
    assert w.verify(LinearSystem(3, d, (d, d - 1, 5, 0)))
    assert reduce_system(LinearSystem(3, d, (1, 1))).verdict == "nonempty"
    assert hyperplane_product_witness(LinearSystem(3, 0, (0, -4))).factors == ()


def test_reduce_examples():
    trace = reduce_system(LinearSystem(3, 7, (6, 6, 6, 6)))
    assert trace.verdict == "empty"
    assert len(trace.steps) == 1
    assert trace.steps[0].c == -10
    assert trace.final == LinearSystem(3, -3, (-4, -4, -4, -4))

    trace = reduce_system(LinearSystem(3, 4, (3, 3, 3, 3, 3)))
    assert trace.verdict == "empty"
    assert len(trace.steps) == 1
    assert trace.final == LinearSystem(3, 0, (-1, -1, -1, -1, 3))

    trace = reduce_system(LinearSystem(3, 12, (7,) * 6))
    assert trace.verdict == "nonempty"
    assert len(trace.steps) == 2
    assert sorted(trace.final.mults) == [-1, -1, 3, 3, 3, 3]
    assert trace.final.d == 4
    assert trace.witness is not None


def test_reduce_stops_when_no_progress():
    trace = reduce_system(LinearSystem(3, 2, (2, 2, 2, 2)), max_steps=5)
    # c = 2*2 - 8 = -4 fires; follow the trace to a certificate either way
    assert trace.verdict in ("empty", "nonempty")
    stuck = reduce_system(LinearSystem(3, 5, (1, 1, 1, 1)), max_steps=5)
    assert stuck.verdict == "nonempty"  # plenty of room: witness fires at once


def test_reduce_empty_families():
    for n in range(2, 6):
        for h in range(1, 5):
            sys_ = LinearSystem(n, h * (n + 1) - 1, (h * n,) * (n + 1))
            assert reduce_system(sys_).verdict == "empty"
    for n in range(2, 5):
        for h in range(1, 4):
            sys_ = LinearSystem(n, h * (n + 2) - 1, (h * n,) * (n + 2))
            assert reduce_system(sys_).verdict == "empty"


def test_gamma_case_reports():
    rep = verify_gamma_points_case(3, 4, 3)
    assert rep.ok
    assert [row.alpha for row in rep.rows] == [4, 8, 12]
    assert all(row.ratio == F(4, 3) for row in rep.rows)

    rep = verify_gamma_points_case(3, 5, 3)
    assert rep.ok
    assert [row.alpha for row in rep.rows] == [5, 10, 15]

    rep = verify_gamma_points_case(4, 7, 2)
    assert rep.ok and rep.gamma == F(3, 2)
    assert "matches" in rep.endpoint_note

    rep = verify_gamma_points_case(3, 6, 2)
    assert rep.ok and rep.gamma == F(12, 7)
    assert all(row.lower_empty for row in rep.rows)
    assert "matches" in rep.endpoint_note

    # the conic system L(2; 1^5) has virtual dimension 1: certified before
    # any Cremona step, so there is no reduced endpoint to compare
    rep = verify_gamma_points_case(2, 5, 2)
    assert rep.ok and rep.gamma == 2
    assert rep.endpoint_note == "no Cremona step: 2;1,1,1,1,1 is certified (virtual dimension 1 > 0)"
    for n in range(3, 8):
        assert "matches" in verify_gamma_points_case(n, n + 3, 1).endpoint_note, n


@pytest.mark.parametrize("h_max", [0, -2])
def test_gamma_case_rejects_empty_or_nonpositive_h(h_max):
    with pytest.raises(ValueError, match="h_max >= 1"):
        verify_gamma_points_case(3, 6, h_max)


def test_gamma_case_all_small_dimensions():
    for n in range(2, 6):
        for s in (n + 1, n + 2, n + 3):
            assert verify_gamma_points_case(n, s, 2).ok
