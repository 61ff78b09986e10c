import random
import re
import tracemalloc
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from chaincover import core
from chaincover.core import (CycleError, EmptyPoset, dual, from_relations,
                             from_text, induced, is_pure, iter_bits, mask_of)
from chaincover.generators import (antichain, chain, grid_index, grid_labels, grid_upper,
                                   random_poset)
from chaincover.incgraph import interval_cover
from chaincover.selftest import LAWS

import oracles


def axioms_hold(p):
    for x in range(p.n):
        if p.lt(x, x):
            return False
        for y in range(p.n):
            if p.lt(x, y) and p.lt(y, x):
                return False
            for z in range(p.n):
                if p.lt(x, y) and p.lt(y, z) and not p.lt(x, z):
                    return False
    return True


class TestFromRelations:
    def test_transitivity_forced(self):
        p = from_relations(3, [(0, 1), (1, 2)])
        assert p.relation_pairs() == [(0, 1), (0, 2), (1, 2)]

    def test_antisymmetry_violation(self):
        with pytest.raises(CycleError):
            from_relations(2, [(0, 1), (1, 0)])

    def test_reflexive_pair(self):
        with pytest.raises(CycleError):
            from_relations(1, [(0, 0)])

    def test_cycle_is_reported(self):
        with pytest.raises(CycleError) as info:
            from_relations(4, [(0, 1), (1, 2), (2, 0)])
        assert set(info.value.cycle) <= {0, 1, 2}
        assert len(info.value.cycle) == 3

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            from_relations(2, [(0, 5)])

    @pytest.mark.parametrize("pairs, bad", [
        ([(-1, 2)], "(-1, 2)"),
        ([(0, 1), (2, 0), (1, 2), (1, 3), (-1, 0)], "(1, 3)"),
    ])
    def test_first_bad_pair_is_named(self, pairs, bad):
        # a negative index would otherwise wrap to the last element
        with pytest.raises(IndexError,
                           match=re.escape(f"pair {bad} out of range for 3 elements")):
            from_relations(3, pairs)

    def test_duplicate_and_transitive_pairs_close_as_reference(self):
        rng = random.Random(11)
        for seed in range(20):
            p = random_poset(25, 0.2, seed)
            rising = p.relation_pairs() + p.cover_pairs()
            assert all(u < v for u, v in rising)
            perm = list(range(p.n))
            rng.shuffle(perm)
            shuffled = [(perm[u], perm[v]) for u, v in rising]
            rng.shuffle(shuffled)
            for pairs in (rising, shuffled):
                assert (list(from_relations(p.n, pairs).up)
                        == oracles.reference_closure(p.n, pairs))

    def test_grid_cover_relation_closes_to_grid(self):
        # the cover relation of the 4-grid regenerates the grid itself
        g = grid_upper(4)
        p = from_relations(6, g.cover_pairs())
        assert p == g

    def test_axioms_on_random_instances(self):
        for seed in range(30):
            p = random_poset(12, 0.25, seed)
            assert axioms_hold(p)

    def test_empty_poset_is_legal(self):
        p = from_relations(0, [])
        assert p.n == 0 and p.full_mask == 0


class TestDual:
    def test_chain_reverses(self):
        p = dual(chain(3))
        assert p.lt(2, 1) and p.lt(1, 0) and p.lt(2, 0)

    def test_antichain_fixed_point(self):
        assert dual(antichain(3)) == antichain(3)

    def test_involution(self):
        for seed in range(10):
            p = random_poset(10, 0.3, seed)
            assert dual(dual(p)) == p

    def test_dual_grid_width_two(self):
        from chaincover.cover import min_chain_cover
        assert min_chain_cover(dual(grid_upper(4))).certificate_mask.bit_count() == 2

    def test_commutes_with_induced(self):
        for seed in range(10):
            p = random_poset(10, 0.3, seed)
            subset = mask_of([0, 2, 3, 7, 9])
            a, _ = induced(dual(p), subset)
            b, _ = induced(p, subset)
            assert a == dual(b)


class TestEquality:
    """Posets compare and hash by (n, up)."""

    def test_text_copy_hashes_equal(self):
        g = grid_upper(5)
        plain = from_text(g.to_text())
        assert g == plain and hash(g) == hash(plain)
        assert len({g, plain}) == 1

    def test_dual_involution_hashes_equal(self):
        for seed in range(5):
            p = random_poset(12, 0.3, seed)
            assert dual(dual(p)) == p and hash(dual(dual(p))) == hash(p)

    def test_differs_from_its_rows(self):
        p = grid_upper(4)
        assert p != p.up and p.up != p
        assert p != chain(p.n) and from_relations(2, []) != from_relations(3, [])


class TestInduced:
    def test_identity(self):
        g = grid_upper(4)
        sub, back = induced(g, g.full_mask)
        assert sub == g and back == tuple(range(g.n))

    def test_chain_subset(self):
        sub, _ = induced(chain(5), mask_of({0, 2, 4}))
        assert sub == chain(3)

    def test_grid_antichain_pair(self):
        g = grid_upper(4)
        sub, _ = induced(g, mask_of({grid_index(4, 0, 3), grid_index(4, 1, 2)}))
        assert sub == antichain(2)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            induced(chain(3), 1 << 5)
        with pytest.raises(IndexError):
            induced(chain(3), -1)

    def test_labels_restrict(self):
        g = grid_upper(4)
        sub, back = induced(g, mask_of({0, 5}))
        assert [grid_labels(4)[x] for x in back] == [(0, 1), (2, 3)]
        assert back == (0, 5) and sub == chain(2)


class TestRegion:
    """The subsets ↑x, ↓x, Inc_x and [a, b] as bitmasks over p's indices."""

    def test_inc_on_grid(self):
        g = grid_upper(4)
        assert set(iter_bits(g.inc_mask(grid_index(4, 0, 3)))) == {
            grid_index(4, 1, 2)}

    def test_interval_on_grid(self):
        g = grid_upper(4)
        interval, _ = interval_cover(g, (grid_index(4, 0, 1), grid_index(4, 1, 3)))
        labels = {grid_labels(4)[x] for x in iter_bits(interval)}
        assert labels == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}

    def test_up_includes_argument(self):
        p = antichain(3)
        assert (p.up[0] | 1 << 0) == 0b001

    def test_up_down_meet_in_singleton(self):
        for seed in range(8):
            p = random_poset(9, 0.3, seed)
            for x in range(p.n):
                assert (p.up[x] | 1 << x) & (p.down[x] | 1 << x) == 1 << x

    def test_partition_identity(self):
        for seed in range(8):
            assert LAWS["partition identity"](random_poset(9, 0.3, seed))


class TestPurity:
    def test_chain_is_pure(self):
        assert is_pure(chain(3))
        assert oracles.brute_is_pure(chain(3))

    def test_antichain_not_pure(self):
        assert not is_pure(antichain(2))
        assert not oracles.brute_is_pure(antichain(2))

    def test_grid_has_greatest_hence_pure(self):
        # (n-2, n-1) dominates every grid point, so the enumerator agrees
        g = grid_upper(4)
        assert g.greatest() == grid_index(4, 2, 3)
        assert oracles.brute_is_pure(g)
        assert is_pure(g)

    def test_empty_rejected(self):
        with pytest.raises(EmptyPoset):
            is_pure(antichain(0))

    def test_matches_greatest_element_and_enumerator(self):
        for seed in range(40):
            p = random_poset(8, 0.3, seed)
            fast = is_pure(p)
            assert fast == (p.greatest() is not None)
            assert fast == oracles.brute_is_pure(p)


@st.composite
def relabelled_posets(draw):
    """A random order on 0..n-1 (n = 0 included), relabelled by a random
    permutation, so a pair u < v need not have u below v as integers."""
    n = draw(st.integers(0, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n)) if n else []
    perm = draw(st.permutations(range(n)))
    return from_relations(n, [(perm[min(u, v)], perm[max(u, v)])
                              for u, v in pairs if u != v])


@given(relabelled_posets(), st.data())
def test_induced_keeps_exactly_the_pairs_inside(p, data):
    subset = data.draw(st.sets(st.integers(0, p.n - 1))) if p.n else set()
    sub, back = induced(p, mask_of(subset))
    assert back == tuple(sorted(subset))
    assert all(sub.lt(i, j) == p.lt(x, y)
               for i, x in enumerate(back) for j, y in enumerate(back))


# Poset texts mixing valid and duplicate pairs, comments, blank lines, every
# kind of line end and tabs with fields that are not ASCII digits (sign,
# underscore, other scripts' digits, superscript, fullwidth), a no-break
# space, three-field lines, out-of-range pairs, 5,000-digit fields and one
# line longer than any fast-path line.
_DIGITS = "9" * 5000
_POSET_TEXT = st.builds(
    lambda head, body: head + "".join(line + end for line, end in body),
    st.sampled_from(["n 3\n", "n 5\n", "n 12\n", "n 0\n", "", "# c\nn 4\r\n",
                     "n 5 # \u00e9\n", "n\t5\n", "n +3\n", "n 1_0\n",
                     "n \u0663\n", "n \uff15\n", f"n {_DIGITS}\n"]),
    st.lists(st.tuples(
        st.sampled_from(["0 1", "1 2", "2 4", "0 1", "3 1", "4 0", "1 0", "11 10",
                         "", "  ", "# c", "0 1 # c", "2 3# \u00e9 \u0663",
                         "0\t2", "\t1  3\t", "0\u00a01", "+3 1", "1 +3",
                         "1_0 2", "\u0663 1", "1 \u00b2", "\uff11 2", "-1 2",
                         "0 1 2", "0", "x 1", "0 99", "99 0", "007 4",
                         f"{_DIGITS} 1", f"0 {_DIGITS}", "0" * 5000 + "1 2",
                         "0" + " " * 700 + "1", "n 3"]),
        st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"])),
        max_size=12))


@st.composite
def plain_texts(draw):
    """Texts of the header and pair lines only: pairs rising, falling,
    repeated, reflexive or closing cycles, and the rare field out of range or
    past int()'s digit limit.  Half are in ``to_text``'s own form, the form
    read in bulk, bar the rare break of it that the bulk check must pass to
    the line route: a leading zero, an empty line, a last line of one field
    without its newline.  The other half pad with spaces and tabs, add
    leading zeros and end lines with CRLF, and a quarter of them drop the
    last newline."""
    n = draw(st.integers(0, 12))
    rising = draw(st.booleans())
    exact = draw(st.booleans())

    def field() -> int | str:
        if n and draw(st.integers(0, 40)):
            return draw(st.integers(0, n - 1))
        return draw(st.sampled_from([str(n), f"00{n + 3}", "20001", _DIGITS,
                                     "0" * 5000 + "1"]))

    def rare(text: str) -> str:
        return text if draw(st.integers(0, 40)) == 0 else ""

    text = ("n {}\n" if exact else draw(st.sampled_from(["n {}\n", "n 00{}\n"]))).format(n)
    for _ in range(draw(st.integers(0, 10))):
        u, v = field(), field()
        if rising and isinstance(u, int) and isinstance(v, int):
            if u == v:
                continue
            u, v = min(u, v), max(u, v)
        if exact:
            text += rare("\n") + f"{rare('0')}{u} {rare('0')}{v}\n"
            continue
        u, v = (draw(st.sampled_from(["", "0", "00"])) + str(x)
                if isinstance(x, int) else x for x in (u, v))
        text += "".join([draw(st.sampled_from(["", " ", "\t"])), u,
                         draw(st.sampled_from([" ", "\t", " \t  "])), v,
                         draw(st.sampled_from(["", " ", "\t"])),
                         draw(st.sampled_from(["\n"] * 19 + ["\r\n"]))])
    if exact:
        text += rare(str(field()))
    elif draw(st.integers(0, 3)) == 0:
        text = text.removesuffix("\n")
    return text


def _parsed(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


class TestTextFormat:
    def test_round_trip(self):
        for seed in range(10):
            p = random_poset(10, 0.25, seed)
            assert from_text(p.to_text()) == p

    @given(relabelled_posets())
    def test_round_trip_any_poset(self, p):
        assert from_text(p.to_text()) == p

    def test_comments_and_blank_lines(self):
        text = "# leading comment\nn 3\n\n0 1  # inline\n1 2\n"
        p = from_text(text)
        assert p == chain(3)

    def test_any_text_in_comments(self):
        assert from_text("n 3  # \u00e9\n0 1  # \u0663\n1 2\n") == chain(3)
        assert from_text("n 3  # +1 -1 1_0\n0 1\n1 2\n") == chain(3)

    def test_cycle_on_load(self):
        with pytest.raises(CycleError):
            from_text("n 2\n0 1\n1 0\n")

    def test_missing_header(self):
        with pytest.raises(ValueError):
            from_text("0 1\n")

    def test_empty(self):
        assert from_text("n 0\n").n == 0

    @settings(max_examples=300, deadline=None)
    @given(_POSET_TEXT)
    def test_equals_reference_parser(self, text):
        # texts with comments, blank lines or errors go line by line
        assert _parsed(from_text, text) == _parsed(oracles.reference_from_text, text)

    @settings(max_examples=300, deadline=None)
    @given(plain_texts())
    def test_plain_text_equals_reference_parser(self, text):
        assert _parsed(from_text, text) == _parsed(oracles.reference_from_text, text)

    def test_plain_text_read_in_bulk(self):
        def bulk(text):
            n, pairs = core._read_plain(text)
            return n, list(pairs)

        assert bulk("n 0\n") == (0, [])
        assert bulk("n 005\n3 1\n0 2\n0 2\n4 4\n") == (
            5, [(3, 1), (0, 2), (0, 2), (4, 4)])
        # anything else goes line by line, which names the line of an error
        padded = "n 5\n3 1\n\t0  02 \n0 2\n4\t4\n"
        for text in (padded, "n 3\n0 1\r\n", "n 3\n0 1", "n 40\n1 2\n34",
                     "n 3\n0 1 # c\n", "n 3\n0 3\n", "n 3\n01 2\n", "n 3\n0 01\n",
                     "n 3\n 0 1\n", "n 3\n0  1\n", "n 3\n0 1 \n", "n 3\n0 1\n 1 2\n",
                     f"n 3\n0 {_DIGITS}\n", f"n {_DIGITS}\n", "n 20001\n",
                     "\nn 3\n", "n 3\n\n0 1\n", "n 3\n0 1\n\n", " n 3\n", "n\t3\n",
                     "n 3\n0 1 2\n", "n 3\n+1 2\n", "n 3\n\u0661 2\n", "n 3\n0\u00a01\n"):
            assert core._read_plain(text) is None, text
        assert core._read_lines(padded) == (5, [(3, 1), (0, 2), (0, 2), (4, 4)])
        with pytest.raises(CycleError, match="^relation closes into a cycle: 4 < 4$"):
            from_text(padded)
        with pytest.raises(ValueError, match="^line 3: expected '<u> <v>'$"):
            from_text("n 40\n1 2\n34")

    @given(relabelled_posets())
    @example(grid_upper(6))
    @example(oracles.relabel(grid_upper(6), list(range(15))[::-1]))
    @example(random_poset(30, 0.2, 1))
    @example(chain(0))
    def test_written_text_is_read_in_bulk(self, p):
        # a lost bulk route would show only as slowness
        with mock.patch.object(core, "_read_lines") as line_route:
            assert from_text(p.to_text()) == p
        line_route.assert_not_called()

    def test_plain_read_keeps_no_state_per_line(self):
        # the bulk route's copies of the body and its array of fields stay
        # below what the line loop's list of pair tuples holds
        text = grid_upper(120).to_text()
        peaks = []
        for read in (core._read_lines, core._read_plain):
            tracemalloc.start()
            try:
                read(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_builds_through_from_relations(self, monkeypatch):
        # the closure stays behind the module's from_relations, a traced
        # name, on the bulk route and on the line route
        calls = []
        real = core.from_relations
        monkeypatch.setattr(core, "from_relations",
                            lambda n, pairs: calls.append(n) or real(n, pairs))
        for text in ("n 3\n0 1\n1 2\n", "n 3\n0 1\n1 2  # c\n"):
            assert from_text(text) == chain(3)
        assert calls == [3, 3]


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_cover_pairs_are_transitive_reduction():
    g = grid_upper(4)
    hasse = set(g.cover_pairs())
    # no cover edge is implied by two others
    for x, y in hasse:
        assert g.lt(x, y)
        assert not any(g.lt(x, z) and g.lt(z, y) for z in range(g.n))
    # closing the cover relation restores the full order
    assert core.from_relations(g.n, hasse) == g


def random_pairs(rng: random.Random, n: int, count: int, acyclic: bool):
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)] if n else []
    if acyclic:
        rank = list(range(n))
        rng.shuffle(rank)
        pairs = [(u, v) for u, v in pairs if rank[u] < rank[v]]
    return pairs


class TestClosureKernel:
    """The topological closure against Warshall (``oracles.reference_closure``)."""

    def test_rows_equal_warshall(self):
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(0, 40)
            pairs = random_pairs(rng, n, rng.randint(0, 3 * n), acyclic=True)
            assert list(from_relations(n, pairs).up) == oracles.reference_closure(n, pairs)

    def test_rising_and_shuffled_equal_warshall(self):
        # pairs that all rise take reverse index order; the same orders
        # relabelled by a shuffle take Kahn's
        rng = random.Random(10)
        for _ in range(300):
            n = rng.randint(0, 40)
            pairs = [(u, v) for u, v in random_pairs(rng, n, rng.randint(0, 3 * n),
                                                     acyclic=False) if u != v]
            rising = [(min(u, v), max(u, v)) for u, v in pairs]
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = [(perm[u], perm[v]) for u, v in rising]
            for case in (rising, shuffled):
                assert list(from_relations(n, case).up) == oracles.reference_closure(n, case)

    def test_cycles_equal_warshall(self):
        rng = random.Random(9)
        cyclic = 0
        for _ in range(300):
            n = rng.randint(1, 40)
            pairs = random_pairs(rng, n, rng.randint(1, 2 * n), acyclic=False)
            try:
                want = oracles.reference_closure(n, pairs)
            except CycleError as exc:
                want = (exc.cycle, str(exc))
                cyclic += 1
            try:
                got = list(from_relations(n, pairs).up)
            except CycleError as exc:
                got = (exc.cycle, str(exc))
            assert got == want
        assert cyclic >= 100

    def test_cycle_behind_a_long_chain(self):
        # the chain 0 < 1 < ... < n-3 sits above a 2-cycle on the last two
        # indices: Kahn's order stops at once and only those two lie on a cycle
        n = 400
        pairs = [(n - 1, n - 2), (n - 2, n - 1), (n - 1, 0)]
        pairs += [(i, i + 1) for i in range(n - 3)]
        with pytest.raises(CycleError) as info:
            from_relations(n, pairs)
        assert info.value.cycle == [n - 2, n - 1]
        assert str(info.value) == f"relation closes into a cycle: {n - 2} < {n - 1} < {n - 2}"

    def test_matches_networkx_closure(self):
        for n, prob, seed in ((100, 0.05, 1), (300, 0.02, 2), (800, 0.01, 3)):
            rng = random.Random(seed)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < prob]
            rank = list(range(n))
            rng.shuffle(rank)
            pairs = [(rank[u], rank[v]) for u, v in pairs]
            g = nx.DiGraph(pairs)
            g.add_nodes_from(range(n))
            closed = nx.transitive_closure_dag(g)
            p = from_relations(n, pairs)
            assert sorted(p.relation_pairs()) == sorted(closed.edges())


class TestTranspose:
    """``Poset.down`` (``core._transpose``) against the per-bit transpose, at
    the edges of a byte, a 64-bit word and a block of ``core._BLOCK`` rows."""

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 255, 256, 257, 513, 800,
                                   core._BLOCK - 1, core._BLOCK, core._BLOCK + 1])
    def test_down_equals_per_bit_transpose(self, n):
        rng = random.Random(n)
        for count in (n // 2, 3 * n):
            pairs = random_pairs(rng, n, count, acyclic=False)
            p = from_relations(n, [(min(u, v), max(u, v)) for u, v in pairs if u != v])
            perm = list(range(n))
            rng.shuffle(perm)
            for q in (p, oracles.relabel(p, perm), dual(p)):
                assert q.down == oracles.reference_down(q)

    def test_dense_rows(self):
        p = chain(300)
        assert p.down == oracles.reference_down(p)
        assert p.down[299] == (1 << 299) - 1
        n = core._BLOCK + 9
        assert chain(n).down == tuple((1 << x) - 1 for x in range(n))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 80).flatmap(lambda n: st.tuples(
               st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
               st.sampled_from((1, 5, 8, 16, core._BLOCK)))))
    def test_any_bit_matrix_in_any_block_size(self, case):
        rows, block = case
        n = len(rows)
        want = [0] * n
        for x in range(n):
            for y in iter_bits(rows[x]):
                want[y] |= 1 << x
        with mock.patch.object(core, "_BLOCK", block):
            got = core._transpose(tuple(rows), n)
            assert got == tuple(want)
            assert core._transpose(got, n) == tuple(rows)

    def test_zero_blocks_are_skipped(self):
        # falling pairs into the first block leave its rows all zero, so
        # only the later blocks are packed
        rng = random.Random(7)
        n = 2 * core._BLOCK + 300
        pairs = [(rng.randrange(core._BLOCK, n), rng.randrange(core._BLOCK))
                 for _ in range(3000)]
        p = from_relations(n, pairs)
        assert not any(p.up[:core._BLOCK]) and any(p.up[core._BLOCK:])
        assert p.down == oracles.reference_down(p)

    @staticmethod
    def peak_of_down(p):
        tracemalloc.start()
        try:
            p.down
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_one_block(self):
        # one pair in each block of 2,048 rows: the packed rows of one block
        # take 2 MB at n = 8,000, those of the whole matrix 8 MB
        text = "n 8000\n" + "".join(f"{u} {u + 1}\n" for u in range(0, 8000, 2048))
        assert self.peak_of_down(from_text(text)) < 8_000_000

    def test_zero_rows_pack_nothing(self):
        # the largest antichain a text may hold: every block is skipped, so
        # the peak is the result's 20,000 references, not 10 MB of packing
        assert self.peak_of_down(from_text("n 20000\n")) < 1_000_000


class TestCoverPairsKernel:
    def test_equals_per_bit_scan(self):
        rng = random.Random(31)
        posets = [grid_upper(k) for k in (2, 3, 6, 12)]
        posets += [chain(40), antichain(5), antichain(0)]
        for seed in range(200):
            posets.append(random_poset(rng.randrange(1, 60),
                                       rng.choice((0.02, 0.1, 0.3, 0.7)), seed))
        for p in list(posets):
            perm = list(range(p.n))
            rng.shuffle(perm)
            posets += [dual(p), oracles.relabel(p, perm),
                       oracles.relabel(p, perm[::-1])]
        for p in posets:
            assert p.cover_pairs() == oracles.reference_cover_pairs(p), p
