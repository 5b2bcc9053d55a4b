import itertools
import math
import sys
import time

import pytest

from jetstrata import symbols
from jetstrata.charclass import CharClassError, VirtualBundle, porteous_pontrjagin, porteous_sw
from jetstrata.filtration import FiltrationError, StageOutOfRange, build_run, next_index, product_obstruction
from jetstrata.gring import PresentationError, invert_total_class, kunneth_product, tensor_component, truncated_polynomial_ring
from jetstrata.symbols import (
    INFINITE_ORDER,
    BoardmanSymbol,
    EmptyStratum,
    ExceedsSource,
    HypothesisViolated,
    JetContext,
    KTooSmall,
    NonzeroTail,
    NotMonotone,
    SymbolError,
    codim_lower_bound,
    first_order_codim,
    jet_fiber_dim,
    tail_vanishing,
    truncate_symbol,
    validate_symbol,
)


def test_validate_symbol_accepts_nonincreasing():
    ctx = JetContext(3, 3, 5)
    assert validate_symbol((2, 1, 0), ctx).entries == (2, 1, 0)


def test_validate_symbol_rejects_increasing_step():
    with pytest.raises(NotMonotone):
        validate_symbol((1, 2), JetContext(3, 3, 5))


def test_validate_symbol_rejects_leading_entry_above_source():
    with pytest.raises(ExceedsSource):
        validate_symbol((4, 1), JetContext(3, 5, 5))


def test_symbol_must_be_nonempty_and_nonnegative():
    with pytest.raises(SymbolError):
        BoardmanSymbol(())
    with pytest.raises(SymbolError):
        BoardmanSymbol((2, -1))


def test_jet_context_invariants():
    with pytest.raises(SymbolError):
        JetContext(0, 3)
    with pytest.raises(SymbolError):
        JetContext(3, 0)
    with pytest.raises(SymbolError):
        JetContext(3, 3, 0)
    JetContext(1, 5, INFINITE_ORDER)
    JetContext(2, 1, 1)  # counting arithmetic tolerates a 1-dimensional target


def test_first_order_codim_equal_dimensions():
    assert first_order_codim(2, JetContext(5, 5, 7)) == 4


def test_first_order_codim_fold_rank():
    # kernel rank n-p+1 always has codimension n-p+1
    for n, p in [(5, 3), (7, 2), (4, 4)]:
        i = n - p + 1
        assert first_order_codim(i, JetContext(n, p, 9)) == n - p + 1


def test_first_order_codim_small_rank_large_target():
    assert first_order_codim(1, JetContext(4, 7, 3)) == 4


def test_first_order_codim_empty_stratum():
    with pytest.raises(EmptyStratum):
        first_order_codim(1, JetContext(5, 2, 9))  # rank below n-p


def test_first_order_codim_rank_bounds():
    with pytest.raises(SymbolError):
        first_order_codim(0, JetContext(3, 3, 5))
    with pytest.raises(ExceedsSource):
        first_order_codim(4, JetContext(3, 5, 5))


def test_codim_lower_bound_single_entry_matches_first_order():
    for n, p in [(3, 3), (6, 4), (2, 7)]:
        ctx = JetContext(n, p, 9)
        for i in range(max(n - p + 1, 1), n + 1):
            assert codim_lower_bound(BoardmanSymbol((i,)), ctx) == first_order_codim(i, ctx)


def test_codim_lower_bound_tail_terms():
    # second term vanishes when the tail is zero
    ctx = JetContext(6, 4, 9)
    assert codim_lower_bound(BoardmanSymbol((3, 0)), ctx) == 3
    # (2,1) at equal dimensions: 4 + 1
    assert codim_lower_bound(BoardmanSymbol((2, 1)), JetContext(5, 5, 9)) == 5


def test_codim_lower_bound_hypothesis():
    with pytest.raises(HypothesisViolated):
        codim_lower_bound(BoardmanSymbol((2, 1)), JetContext(6, 3, 9))  # needs i1 >= 4


def test_codim_lower_bound_exceeds_length_plus_gap():
    # exhaustive at small scale; the acceptance suite pushes this to 10
    for n in range(1, 7):
        for p in range(2, 7):
            ctx = JetContext(n, p, 9)
            floor = max(n - p + 1, 1)
            for length in range(1, 5):
                for entries in itertools.combinations_with_replacement(
                    range(1, n + 1), length
                ):
                    sym = tuple(sorted(entries, reverse=True))
                    if sym[0] < floor:
                        continue
                    bound = codim_lower_bound(BoardmanSymbol(sym), ctx)
                    assert bound >= abs(n - p) + length


def test_tail_vanishing_positive_next_to_last():
    assert tail_vanishing(BoardmanSymbol((1, 1, 1, 1, 0)), JetContext(3, 3, 5)) is True


def test_tail_vanishing_two_trailing_zeros():
    assert tail_vanishing(BoardmanSymbol((2, 1, 0, 0)), JetContext(2, 2, 4)) is False


def test_tail_vanishing_boundary_length():
    # shortest admissible length n - |n-p| + 2, next-to-last positive
    for n, p in [(2, 2), (3, 3), (3, 5)]:
        k = n - abs(n - p) + 2
        if k < 2:
            continue
        entries = tuple([1] * (k - 1) + [0])
        assert tail_vanishing(BoardmanSymbol(entries), JetContext(n, p, k)) is True


def test_tail_vanishing_rejects_short_symbols():
    with pytest.raises(KTooSmall):
        tail_vanishing(BoardmanSymbol((1, 1, 0)), JetContext(3, 3, 5))


def test_truncate_symbol():
    assert truncate_symbol(BoardmanSymbol((2, 1, 0, 0))).entries == (2, 1, 0)
    assert truncate_symbol(BoardmanSymbol((1, 0))).entries == (1,)
    with pytest.raises(NonzeroTail):
        truncate_symbol(BoardmanSymbol((2, 1)))
    with pytest.raises(SymbolError):
        truncate_symbol(BoardmanSymbol((0,)))


def test_truncate_twice_reaches_length_minus_two():
    sym = BoardmanSymbol((3, 2, 1, 0, 0))
    assert len(truncate_symbol(truncate_symbol(sym))) == len(sym) - 2


def test_jet_fiber_dim_examples():
    assert jet_fiber_dim(JetContext(1, 1, 2)) == 2
    assert jet_fiber_dim(JetContext(2, 1, 1)) == 2
    assert jet_fiber_dim(JetContext(2, 3, 2)) == 15


def test_jet_fiber_dim_matches_monomial_enumeration():
    # independent oracle: count exponent vectors of degree 1..k directly
    for n, p, k in [(1, 1, 2), (2, 1, 1), (2, 3, 2), (3, 2, 3)]:
        count = 0
        for total in range(1, k + 1):
            count += sum(
                1
                for exps in itertools.product(range(total + 1), repeat=n)
                if sum(exps) == total
            )
        assert jet_fiber_dim(JetContext(n, p, k)) == p * count


def test_jet_fiber_dim_strictly_increasing():
    for n in range(1, 5):
        for p in range(2, 5):
            for k in range(1, 5):
                base = jet_fiber_dim(JetContext(n, p, k))
                assert jet_fiber_dim(JetContext(n + 1, p, k)) > base
                assert jet_fiber_dim(JetContext(n, p + 1, k)) > base
                assert jet_fiber_dim(JetContext(n, p, k + 1)) > base


def test_jet_fiber_dim_rejects_infinite_order():
    with pytest.raises(SymbolError):
        jet_fiber_dim(JetContext(2, 3, INFINITE_ORDER))


def test_parse_order():
    assert symbols.parse_order("inf") is INFINITE_ORDER
    assert symbols.parse_order("7") == 7
    assert symbols.parse_order(3) == 3
    with pytest.raises(SymbolError):
        symbols.parse_order(0)


# Spellings ``int`` reads as an integer but the input grammar refuses.
NOT_INTEGERS = [" 7", "7 ", "\t7", "1_0", "+7", "٣", "7٣", "²", "", "-", "--7", "- 7", "7.0", "1e3", "0x7"]


def test_parse_integer_reads_an_optional_minus_and_ascii_digits():
    assert [symbols.parse_integer(t) for t in ("0", "7", "-7", "007", "-0", str(10**400))] == [
        0, 7, -7, 7, 0, 10**400
    ]


@pytest.mark.parametrize("text", NOT_INTEGERS)
def test_parse_integer_refuses_other_spellings(text):
    with pytest.raises(SymbolError, match="ASCII digits"):
        symbols.parse_integer(text)
    with pytest.raises(SymbolError, match="ASCII digits"):
        symbols.parse_order(text)
    with pytest.raises(SymbolError, match="ASCII digits"):
        symbols.parse_symbol(f"2,{text}")


def test_parse_symbol_splits_on_commas():
    assert symbols.parse_symbol("2,1,0") == (2, 1, 0)
    assert symbols.parse_symbol("-1") == (-1,)


def test_jet_fiber_dim_matches_the_binomial_up_to_the_digit_limit():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    for n, p, k in [(7, 3, 5), (5, 3, 7), (3000, 2, 3000), (10, 10**4000, 10), (1, 1, 10**30)]:
        expected = p * (math.comb(n + k, n) - 1)
        assert expected < 10**limit
        assert jet_fiber_dim(JetContext(n, p, k)) == expected
    # Just past the limit: the jet dimension times a p one larger.
    c = math.comb(20, 10) - 1
    p = 10**limit // c
    assert jet_fiber_dim(JetContext(10, p, 10)) == p * c
    with pytest.raises(SymbolError, match=f"more than {limit} digits"):
        jet_fiber_dim(JetContext(10, p + 1, 10))


@pytest.mark.parametrize("n, k", [(10**4, 10**4), (10**6, 10**6), (10**12, 10**12), (2, 10**4000)])
def test_jet_fiber_dim_refuses_an_unprintable_value_quickly(n, k):
    start = time.perf_counter()
    with pytest.raises(SymbolError, match="digits"):
        jet_fiber_dim(JetContext(n, 10**6, k))
    assert time.perf_counter() - start < 1.0


def _product_run():
    ring = truncated_polynomial_ring("integer_mod_torsion", 32, [("t", 4)])
    bundle = VirtualBundle(ring.element({"1": 1, "t": 1, "t^2": 1}), ring.unit())
    return build_run(0, [8, 9], [bundle])


def _mod2_bundle():
    ring = truncated_polynomial_ring("mod2", 4, [("w", 1)])
    return VirtualBundle(ring.element({"1": 1, "w": 1}), ring.unit())


def _integer_bundle():
    ring = truncated_polynomial_ring("integer_mod_torsion", 8, [("t", 4)])
    return VirtualBundle(ring.element({"1": 1, "t": 1}), ring.unit())


# Each integer argument in its bool form: ``True`` is not the number 1.
BOOL_ARGUMENTS = {
    "JetContext n": (lambda: JetContext(True, 3, 3), SymbolError, "source dimension"),
    "JetContext p": (lambda: JetContext(3, True, 3), SymbolError, "target dimension"),
    "JetContext k": (lambda: JetContext(3, 3, True), SymbolError, "jet order"),
    "JetContext all": (lambda: JetContext(True, True, True), SymbolError, "source dimension"),
    "BoardmanSymbol entry": (lambda: BoardmanSymbol((True,)), SymbolError, "entries"),
    "BoardmanSymbol tail": (lambda: BoardmanSymbol((2, False)), SymbolError, "entries"),
    "parse_order": (lambda: symbols.parse_order(True), SymbolError, "jet order"),
    "first_order_codim": (lambda: first_order_codim(True, JetContext(3, 3)), SymbolError, "kernel rank"),
    "porteous_sw": (lambda: porteous_sw(True, JetContext(3, 3, 9), _mod2_bundle()), CharClassError, "stratum index"),
    "porteous_pontrjagin": (
        lambda: porteous_pontrjagin(True, JetContext(4, 4, 9), _integer_bundle()), CharClassError, "stratum index"
    ),
    "product_obstruction": (lambda: product_obstruction(_product_run(), False), StageOutOfRange, "stage False"),
    "next_index": (lambda: next_index(True), FiltrationError, "budget"),
    "invert_total_class through": (lambda: invert_total_class(_integer_bundle().ring.unit(), True), ValueError, "through"),
    "virtual_total through": (lambda: _integer_bundle().virtual_total(True), ValueError, "through"),
    "tensor_component degree": (
        lambda: tensor_component(kunneth_product(_mod2_bundle().ring, _mod2_bundle().ring)[0].unit(), True, 0),
        PresentationError,
        "degree",
    ),
    "element times scalar": (lambda: _integer_bundle().total_positive * True, TypeError, "'bool'"),
    "scalar times element": (lambda: False * _integer_bundle().total_positive, TypeError, "'bool'"),
}


@pytest.mark.parametrize("name", sorted(BOOL_ARGUMENTS))
def test_bools_are_not_integer_arguments(name):
    call, error, named = BOOL_ARGUMENTS[name]
    with pytest.raises(error, match=named):
        call()


@pytest.mark.parametrize("through", [-1, "x"])
def test_through_must_be_a_nonnegative_integer(through):
    bundle = _integer_bundle()
    with pytest.raises(ValueError, match="through"):
        invert_total_class(bundle.total_negative_pulled, through)
    with pytest.raises(ValueError, match="through"):
        bundle.virtual_total(through)
