import math
import os
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcode import coding
from permcode.asymptotics import pmax_estimate_plancherel, pmax_estimate_schur_weyl
from permcode.cli import main
from permcode.coding import (
    SPLIT_FROM_N,
    CodingInstance,
    _gap_side,
    _over_shares,
    _receive_totals,
    _send_totals,
    balanced_color_classes,
    classical_success,
    info_bound,
    quantum_pmax_exact,
)
from permcode.young import (
    CapacityError,
    InternalInvariantError,
    _content_product,
    dim_irrep,
    enumerate_partitions,
    multiplicity,
)

from test_young import count_ssyt, count_syt


def pmax_oracle(n: int, d: int) -> Fraction:
    """Brute-force: tableau-counting oracles instead of hook-length products."""
    total = 0
    for diag in enumerate_partitions(n):
        dim = count_syt(diag)
        mult = count_ssyt(diag, d)
        total += min(dim, mult) * dim
    return Fraction(total, math.factorial(n))


def test_pmax_three_boxes_two_colors():
    rep = quantum_pmax_exact(CodingInstance(3, 2))
    assert rep.p_quantum == Fraction(5, 6)
    assert rep.dim_w == 5
    assert rep.method == "exact-enumeration"


def test_pmax_two_boxes_two_colors():
    assert quantum_pmax_exact(CodingInstance(2, 2)).p_quantum == 1


def test_pmax_four_boxes_two_colors_adjudicated():
    # per-diagram terms at d=2: [4]: min(5,1)*1=1, [3,1]: min(3,3)*3=9,
    # [2,2]: min(1,2)*2=2, [2,1,1] and [1^4]: multiplicity 0.
    rep = quantum_pmax_exact(CodingInstance(4, 2))
    assert rep.p_quantum == Fraction(1, 2)
    assert rep.dim_w == 12
    assert rep.p_quantum == pmax_oracle(4, 2)
    # and it respects the counting bound 16/24
    assert rep.p_quantum <= info_bound(CodingInstance(4, 2)) == Fraction(2, 3)


def test_pmax_matches_tableau_oracle_small_grid():
    for n in range(1, 7):
        for d in range(1, 5):
            assert quantum_pmax_exact(CodingInstance(n, d)).p_quantum == pmax_oracle(n, d)


def test_pmax_capacity_error():
    with pytest.raises(CapacityError, match="n=70 exceeds the enumeration cap 66; use the sampling paths"):
        quantum_pmax_exact(CodingInstance(70, 35))
    with pytest.raises(CapacityError):
        quantum_pmax_exact(CodingInstance(10, 5), cap=9)


def test_classical_examples():
    assert classical_success(CodingInstance(3, 2)) == Fraction(1, 2)
    assert classical_success(CodingInstance(4, 2)) == Fraction(1, 4)
    assert classical_success(CodingInstance(5, 5)) == 1
    assert classical_success(CodingInstance(6, 3)) == Fraction(1, 8)


def test_balanced_split_is_optimal():
    # any other split of n into d nonnegative class sizes does worse
    n, d = 7, 3
    best = classical_success(CodingInstance(n, d))

    def splits(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in splits(total - first, parts - 1):
                yield (first,) + rest

    for sizes in splits(n, d):
        p = Fraction(1, math.prod(math.factorial(s) for s in sizes))
        assert p <= best
    assert sorted(balanced_color_classes(n, d)) == [2, 2, 3]


def test_classical_weakly_increasing_in_d():
    for n in range(1, 10):
        values = [classical_success(CodingInstance(n, d)) for d in range(1, n + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_info_bound_examples():
    assert info_bound(CodingInstance(3, 2)) == 1
    assert info_bound(CodingInstance(4, 2)) == Fraction(2, 3)
    assert info_bound(CodingInstance(10, 3)) == Fraction(59049, 3628800)


def test_info_bound_near_d_equals_n():
    # d >= N returns 1 without forming d^N; the value is the plain formula's
    for n in range(1, 31):
        for d in range(max(1, n - 1), n + 2):
            assert info_bound(CodingInstance(n, d)) == min(1, Fraction(d**n, math.factorial(n)))


def test_probability_ordering_grid():
    for n in range(1, 9):
        for d in range(1, 9):
            inst = CodingInstance(n, d)
            assert classical_success(inst) <= quantum_pmax_exact(inst).p_quantum <= info_bound(inst) <= 1


def test_pmax_certainty_when_colors_sufficient():
    for n in range(1, 9):
        for d in (n, n + 1):
            assert quantum_pmax_exact(CodingInstance(n, d)).p_quantum == 1


def test_pmax_nondecreasing_in_d_and_one_exactly_from_d_equals_n():
    # a bisection over d for the fewest colors rests on both; at d = n - 1
    # the column (1^n) has m = 0, so P_max < 1 there
    for n in range(1, 26):
        values = [quantum_pmax_exact(CodingInstance(n, d)).p_quantum for d in range(1, n + 2)]
        assert all(a <= b for a, b in zip(values, values[1:])), n
        assert [p == 1 for p in values] == [d >= n for d in range(1, n + 2)], n


def test_pmax_three_way_identity():
    # P = E_plancherel[min(1, m/D)] = (d^n/n!) E_schur_weyl[min(1, D/m)]
    for n in range(1, 11):
        for d in (2, 3):
            nfact = math.factorial(n)
            p = quantum_pmax_exact(CodingInstance(n, d)).p_quantum
            plancherel_form = sum(
                (
                    Fraction(dim_irrep(diag) ** 2, nfact)
                    * min(Fraction(1), Fraction(multiplicity(diag, d), dim_irrep(diag)))
                    for diag in enumerate_partitions(n)
                ),
                Fraction(0),
            )
            schur_weyl_form = Fraction(d**n, nfact) * sum(
                (
                    Fraction(multiplicity(diag, d) * dim_irrep(diag), d**n)
                    * min(Fraction(1), Fraction(dim_irrep(diag), multiplicity(diag, d)))
                    for diag in enumerate_partitions(n)
                    if multiplicity(diag, d) > 0
                ),
                Fraction(0),
            )
            assert p == plancherel_form == schur_weyl_form


def test_min_side_counts():
    rep = quantum_pmax_exact(CodingInstance(3, 2))
    assert rep.min_side_counts == {"dim_wins": 1, "mult_wins": 0, "ties": 1, "zero_mult": 1}


# ------------------------------------------- the minority-side search

def full_enumeration(n: int, d: int) -> tuple[int, dict[str, int]]:
    """Oracle for quantum_pmax_exact: every diagram, with no side or pruning."""
    dim_w = 0
    counts = {"dim_wins": 0, "mult_wins": 0, "ties": 0, "zero_mult": 0}
    for diag in enumerate_partitions(n):
        dim, mult = dim_irrep(diag), multiplicity(diag, d)
        dim_w += min(dim, mult) * dim
        if mult == 0:
            counts["zero_mult"] += 1
        elif dim < mult:
            counts["dim_wins"] += 1
        elif mult < dim:
            counts["mult_wins"] += 1
        else:
            counts["ties"] += 1
    return dim_w, counts


def test_covering_moves_raise_content_product():
    # the premise of the pruning: moving the last box of a lower row to the
    # end of a higher row strictly raises every nonzero prod(d + content)
    moves = 0
    for n in range(2, 17):
        for diag in enumerate_partitions(n):
            rows = list(diag)
            before = {d: _content_product(rows, d) for d in range(len(rows), n + 1)}
            for i, j in combinations(range(len(rows)), 2):
                moved = rows.copy()
                moved[i] += 1
                moved[j] -= 1
                if i > 0 and moved[i] > moved[i - 1]:
                    continue
                if j + 1 < len(rows) and moved[j] < moved[j + 1]:
                    continue
                moved = [r for r in moved if r]
                moves += 1
                for d, product in before.items():
                    assert _content_product(moved, d) > product > 0, (rows, moved, d)
    assert moves == 3380  # every such move of every partition of 2..16


def test_pmax_exact_matches_full_enumeration_n22():
    for n in range(1, 23):
        for d in range(1, n + 2):
            rep = quantum_pmax_exact(CodingInstance(n, d))
            assert (rep.dim_w, rep.min_side_counts) == full_enumeration(n, d), (n, d)


@st.composite
def mid_size_instances(draw):
    n = draw(st.integers(23, 40))
    critical = math.floor(n / math.e)
    d = draw(st.one_of(st.integers(1, n + 1), st.integers(critical - 3, critical + 3)))
    return n, d


@settings(deadline=None, max_examples=12)
@given(mid_size_instances())
def test_pmax_exact_matches_full_enumeration_n23_to_40(instance):
    rep = quantum_pmax_exact(CodingInstance(*instance))
    assert (rep.dim_w, rep.min_side_counts) == full_enumeration(*instance)


# ------------------------------------------- the search split over processes

def test_split_search_equals_serial_search(split_into):
    # both sides of m = D up to N = 14, then the side quantum_pmax_exact
    # searches: the other side keeps nearly every diagram at N = 30
    for n in range(1, 31):
        for d in range(1, n + 2):
            sides = (False, True) if n <= 14 else (CodingInstance(n, d).above_critical,)
            for above in sides:
                split_into(1)
                serial = _gap_side(n, d, above)
                for shares in (2, 3):
                    split_into(shares)
                    assert _gap_side(n, d, above) == serial, (n, d, above, shares)


@pytest.mark.parametrize("n, d", [(50, 18), (50, 25)])
def test_split_search_equals_serial_search_n50(split_into, n, d):
    above = CodingInstance(n, d).above_critical
    results = []
    for shares in (1, 2, 3):
        split_into(shares)
        results.append(_gap_side(n, d, above))
    assert results[0] == results[1] == results[2]


def test_both_sides_of_the_gap_agree(split_into):
    # d^N - (m > D side) and N! - (m < D side) share no term; both run the
    # rows of length 1 that finish their leaf in one step
    split_into(1)
    for n in range(1, 27):
        nfact = math.factorial(n)
        for d in range(1, n + 2):
            below = d**n - _gap_side(n, d, False)[0]
            assert below == nfact - _gap_side(n, d, True)[0], (n, d)


def test_search_counts():
    # the diagrams kept and the prefixes visited at N = 50 that README.md
    # quotes, and above the critical ratio the kept side with the diagrams of
    # m = 0 among its leaves
    for d, leaves, work, sides in (
        (10, 382, (1_065, 1_004, 61), ("dim_wins", "ties")),
        (18, 43_200, (156_391, 150_176, 6_215), ("dim_wins", "ties")),
        (25, 22_251, (91_904, 91_044, 860), ("mult_wins", "ties", "zero_mult")),
    ):
        rep = quantum_pmax_exact(CodingInstance(50, d))
        counts = rep.search_counts
        assert counts["leaves"] == leaves == sum(rep.min_side_counts[side] for side in sides)
        assert (counts["visited"], counts["kept"], counts["pruned"]) == work
        assert counts["visited"] == counts["kept"] + counts["pruned"]
        assert counts["leaves"] < counts["kept"]


def test_search_beyond_the_cap():
    # far below the critical ratio the dominance-largest completions overshoot
    # d rows by hundreds, and at (1000, 995) nearly every diagram has m = 0;
    # the values were frozen from the search with an explicit bound of d rows
    for (n, d), dim_w, sides, work in (
        ((70, 8), 2107713371757242199, (90, 191873, 1, 3896004), (243, 227, 16, 91)),
        ((120, 15), 1018063192113309348, (2138, 243330201, 1, 1601017220), (7136, 6931, 205, 2139)),
        ((200, 20), 623726082683930060, (10728, 340131769595, 1, 3632867249064), (40889, 40144, 745, 10729)),
        (
            (500, 20),
            1573255124051528333,
            (6530, 215338020409115291, 1, 2299949694553914873205),
            (25220, 24857, 363, 6531),
        ),
        (
            (1000, 10),
            242035315645374265,
            (135, 968356321790035, 1, 24061467864032621505335827937820),
            (396, 385, 11, 136),
        ),
        ((1000, 995), 1436374408064680821, (24061467864032622473692149727972, 6, 1, 12), (46, 45, 1, 19)),
    ):
        rep = quantum_pmax_exact(CodingInstance(n, d), cap=10**6)
        assert rep.dim_w % (2**61 - 1) == dim_w, (n, d)
        assert tuple(rep.min_side_counts[k] for k in ("dim_wins", "mult_wins", "ties", "zero_mult")) == sides, (n, d)
        assert tuple(rep.search_counts[k] for k in ("visited", "kept", "pruned", "leaves")) == work, (n, d)


def test_totals_cross_the_pipe_as_marshal_bytes():
    big = 10**4999 + 12_345  # 5000 digits: str() refuses it
    with pytest.raises(ValueError):
        str(big)
    for totals in ((big, -big, 0, 7), ()):
        read_fd, write_fd = os.pipe()
        try:
            _send_totals(write_fd, totals)
            os.close(write_fd)
            write_fd = -1
            assert _receive_totals(read_fd, len(totals)) == totals
        finally:
            os.close(read_fd)
            if write_fd >= 0:
                os.close(write_fd)


@pytest.mark.parametrize("sent", [b"", b"\x00garbage", None])
def test_unreadable_totals_raise(sent):
    read_fd, write_fd = os.pipe()
    try:
        if sent is None:
            _send_totals(write_fd, (1, 2))  # two integers where three are expected
        else:
            os.write(write_fd, sent)
        os.close(write_fd)
        with pytest.raises(InternalInvariantError):
            _receive_totals(read_fd, 3)
    finally:
        os.close(read_fd)


@pytest.mark.parametrize("failure", ["dies", "sends nothing"])
def test_failed_child_exits_2_and_is_reaped(monkeypatch, capsys, failure):
    # the child runs the patched module state it was forked with
    if failure == "dies":
        monkeypatch.setattr(coding, "_send_totals", lambda fd, totals: os._exit(3))
    else:
        monkeypatch.setattr(coding, "_send_totals", lambda fd, totals: None)
    monkeypatch.setattr(coding, "_usable_cpus", lambda: 2)
    assert main(["pmax", "--method", "exact", "--n", "40", "--d", "15"]) == 2
    assert "exact search" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failed_parent_share_kills_and_reaps_children(error):
    def work(j):
        if j == 0:
            raise error("share 0 failed")
        time.sleep(60)  # a child; only the parent's kill ends it early
        return (j,)

    started = time.monotonic()
    with pytest.raises(error):
        _over_shares(work, [1, 1, 1], "test work")
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("core", [
    lambda n, d: quantum_pmax_exact(CodingInstance(n, d)),
    lambda n, d: pmax_estimate_plancherel(n, d, 10, 0),
    lambda n, d: pmax_estimate_schur_weyl(n, d, 10, 0),
], ids=["exact", "plancherel", "schur-weyl"])
def test_each_core_splits_from_split_from_n_on(monkeypatch, core):
    class Forked(OSError):
        pass

    def fork():
        raise Forked

    monkeypatch.setattr(coding, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    for d in (10, 15):  # below and above the critical ratio
        core(SPLIT_FROM_N - 1, d)  # one share, in process
        with pytest.raises(Forked):
            core(SPLIT_FROM_N, d)


def test_usable_cpus_without_affinity_call(monkeypatch):
    # as on macOS: no os.sched_getaffinity, so the CPU count, or 1 where it is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert coding._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert coding._usable_cpus() == 1


def test_one_share_runs_in_process(monkeypatch):
    expected = quantum_pmax_exact(CodingInstance(40, 15))
    monkeypatch.setattr(coding, "_usable_cpus", lambda: 1)
    assert quantum_pmax_exact(CodingInstance(40, 15)) == expected
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")  # a platform without fork
    assert quantum_pmax_exact(CodingInstance(40, 15)) == expected
