import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chaincover import cli, cover
from chaincover.cli import run
from chaincover.core import MAX_TEXT_ELEMENTS, InternalInconsistency, from_text
from chaincover.generators import (antichain, canonical_ideal_chain, chain,
                                   grid_upper, lex_sum, random_poset)

NON_UTF8 = b"\xff\xfe\n"
BAD = "invalid literal for int() with base 10: "


def one_error_line(err: str) -> bool:
    return len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.fixture
def grid6_file(tmp_path):
    path = tmp_path / "grid6.poset"
    path.write_text(grid_upper(6).to_text())
    return str(path)


@pytest.fixture
def grid4_file(tmp_path):
    path = tmp_path / "grid4.poset"
    path.write_text(grid_upper(4).to_text())
    return str(path)


class TestCov:
    def test_width(self, grid6_file, capsys):
        assert run(["cov", grid6_file]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_witness(self, grid6_file, capsys):
        assert run(["cov", grid6_file, "--witness"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "3"
        chains = [line.split() for line in out[1:4]]
        covered = sorted(int(x) for chain in chains for x in chain)
        assert covered == list(range(15))

    def test_json(self, grid6_file, capsys):
        assert run(["cov", grid6_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1 and doc["width"] == 3
        assert len(doc["certificate"]) == 3

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(grid_upper(6).to_text()))
        assert run(["cov", "-"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_missing_file(self, capsys):
        assert run(["cov", "/nonexistent/x.poset"]) == 2

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "bin.poset"
        path.write_bytes(NON_UTF8)
        assert run(["cov", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and one_error_line(err)

    def test_non_utf8_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(NON_UTF8), encoding="utf-8"))
        assert run(["cov", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: -: ") and one_error_line(err)

    def test_internal_inconsistency_propagates(self, grid6_file, monkeypatch):
        def broken(p, mask=None, *, greedy=True):
            raise InternalInconsistency("chains do not cover every element")
        monkeypatch.setattr(cover, "min_chain_cover", broken)
        with pytest.raises(InternalInconsistency):
            run(["cov", grid6_file])

    def test_cyclic_input(self, tmp_path, capsys):
        path = tmp_path / "bad.poset"
        path.write_text("n 2\n0 1\n1 0\n")
        assert run(["cov", str(path)]) == 2
        assert "cycle" in capsys.readouterr().err

    def test_header_over_limit(self, tmp_path, capsys):
        from chaincover.core import MAX_TEXT_ELEMENTS
        path = tmp_path / "huge.poset"
        for count in (MAX_TEXT_ELEMENTS + 1, 99999999999):
            path.write_text(f"n {count}\n")
            assert run(["cov", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: line 1: ")
            assert len(err.splitlines()) == 1

    def test_over_long_number(self, tmp_path, capsys):
        path = tmp_path / "long.poset"
        digits = "9" * 5000
        limit = sys.get_int_max_str_digits()
        for text, lineno in ((f"n {digits}\n", 1), (f"n 3\n0 {digits}\n", 2),
                             (f"n 3\n{digits} 1\n", 2)):
            path.write_text(text)
            assert run(["cov", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"error: {path}: line {lineno}: integer literal longer than "
                f"{limit} digits\n")
        path.write_text(f"n 3\n0 x{digits}\n")  # not a number at all
        assert run(["cov", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: line 2: invalid literal")

    @pytest.mark.parametrize("text, message", [
        ("n 1_0\n", "line 1: " + BAD + "'1_0'"),
        ("n +3\n0 1\n", "line 1: " + BAD + "'+3'"),
        ("n -0\n", "line 1: " + BAD + "'-0'"),
        ("n \u0663\n", "line 1: " + BAD + "'\u0663'"),
        ("n 13\n0 1_2\n", "line 2: " + BAD + "'1_2'"),
        ("n 3\n-1 2\n", "line 2: " + BAD + "'-1'"),
        ("n 3  # \u00e9\n0 +1\n", "line 2: " + BAD + "'+1'"),
        ("n 2\n0 5\n", "line 2: pair (0, 5) out of range for 2 elements"),
        ("n 2\n# c\n0 1\n2 0\n",
         "line 4: pair (2, 0) out of range for 2 elements"),
    ])
    def test_bad_number_names_its_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "f.poset"
        path.write_text(text)
        assert run(["cov", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_deep_augmenting_path(self, tmp_path, capsys):
        # The fence x_i < y_i, x_{i+1} < y_i on 3,000 elements.  x_0 takes
        # the last index among the x's, so it is augmented last, along a
        # path through the whole fence.
        m = 1500
        x = [m - 1] + list(range(m - 1))
        pairs = [(x[i], m + i) for i in range(m)]
        pairs += [(x[i + 1], m + i) for i in range(m - 1)]
        path = tmp_path / "fence.poset"
        path.write_text(f"n {2 * m}\n" + "".join(f"{u} {v}\n" for u, v in pairs))
        assert run(["cov", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["width"] == m == len(doc["certificate"])
        p = from_text(path.read_text())
        assert sorted(e for c in doc["chains"] for e in c) == list(range(2 * m))
        assert all(p.lt(a, b) for c in doc["chains"] for a, b in zip(c, c[1:]))
        assert not any(p.comparable(a, b) for a in doc["certificate"]
                       for b in doc["certificate"] if a != b)


# Exact `decompose` bytes, plain and --json.
DECOMPOSE = [
    pytest.param(grid_upper(6), "0\n1\n2 3 4 5 6 7 8 9 10 11 12\n13\n14\n", (
        '{"parts": [[0], [1], [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], [13],'
        ' [14]], "schema": 1}\n'
    ), id="grid6"),
    pytest.param(lex_sum([antichain(2), grid_upper(5), chain(2)]),
                 "0 1\n2\n3\n4 5 6 7 8 9\n10\n11\n12\n13\n", (
        '{"parts": [[0, 1], [2], [3], [4, 5, 6, 7, 8, 9], [10], [11], [12],'
        ' [13]], "schema": 1}\n'
    ), id="lexsum"),
    pytest.param(random_poset(20, 0.2, 3), " ".join(map(str, range(20))) + "\n", (
        '{"parts": [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,'
        ' 16, 17, 18, 19]], "schema": 1}\n'
    ), id="random20-0.2-3"),
]


class TestAntichainDecompose:
    def test_antichain(self, grid6_file, capsys):
        assert run(["antichain", grid6_file]) == 0
        members = [int(x) for x in capsys.readouterr().out.split()]
        assert len(members) == 3

    def test_decompose(self, grid4_file, capsys):
        assert run(["decompose", grid4_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["0", "1", "2 3", "4", "5"]

    @pytest.mark.parametrize("poset, plain, as_json", DECOMPOSE)
    def test_decompose_bytes(self, tmp_path, capsys, poset, plain, as_json):
        path = tmp_path / "p.poset"
        path.write_text(poset.to_text())
        assert run(["decompose", str(path)]) == 0
        assert capsys.readouterr().out == plain
        assert run(["decompose", str(path), "--json"]) == 0
        assert capsys.readouterr().out == as_json


class TestDistMetric:
    def test_dist(self, grid4_file, capsys):
        assert run(["dist", grid4_file, "2", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1 2 3"

    def test_dist_unreachable(self, tmp_path, capsys):
        path = tmp_path / "chain.poset"
        path.write_text("n 3\n0 1\n1 2\n")
        assert run(["dist", str(path), "0", "2"]) == 1
        assert capsys.readouterr().out.strip() == "unreachable"

    def test_check_metric(self, tmp_path, capsys):
        path = tmp_path / "bridge.poset"
        path.write_text("n 4\n0 1\n1 2\n")
        assert run(["check-metric", str(path), "0", "2"]) == 0
        out = capsys.readouterr().out
        assert "item1=ok" in out and "item2=ok" in out

    def test_check_metric_precondition(self, tmp_path):
        path = tmp_path / "chain.poset"
        path.write_text("n 3\n0 1\n1 2\n")
        assert run(["check-metric", str(path), "0", "2"]) == 2


class TestFindGrid:
    def test_found(self, grid6_file, capsys):
        assert run(["find-grid", grid6_file, "-k", "3"]) == 0
        assert "->" in capsys.readouterr().out

    def test_not_found(self, grid6_file, capsys):
        assert run(["find-grid", grid6_file, "-k", "7"]) == 1

    def test_unknown_with_budget(self, tmp_path, capsys):
        from chaincover.generators import random_poset
        path = tmp_path / "r.poset"
        path.write_text(random_poset(16, 0.15, 3).to_text())
        code = run(["find-grid", str(path), "-k", "3", "--budget", "1"])
        assert code in (0, 1, 3)
        if code == 3:
            assert capsys.readouterr().out.strip() == "unknown"

    def test_negative_budget_exit2(self, grid6_file, tmp_path, capsys):
        two = tmp_path / "two.poset"
        two.write_text("n 2\n")
        for path in (grid6_file, str(two)):
            assert run(["find-grid", path, "-k", "3", "--budget", "-5"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: budget must be nonnegative, got -5\n"

    def test_zero_budget(self, grid6_file, tmp_path, capsys):
        # a zero budget answers from the size, height and width bounds, or
        # says unknown
        assert run(["find-grid", grid6_file, "-k", "3", "--budget", "0"]) == 3
        assert capsys.readouterr().out == "unknown\n"
        two = tmp_path / "two.poset"
        two.write_text("n 2\n")
        assert run(["find-grid", str(two), "-k", "3", "--budget", "0"]) == 1
        assert capsys.readouterr().out == "not found\n"

    def test_dual_flag(self, grid6_file):
        assert run(["find-grid", grid6_file, "-k", "4", "--dual"]) in (0, 1)

    def test_huge_k_on_small_poset(self, tmp_path, capsys):
        # the size bound answers before a grid of ~5e9 elements is built
        path = tmp_path / "small.poset"
        path.write_text("n 3\n0 1\n")
        assert run(["find-grid", str(path), "-k", "100000"]) == 1
        assert capsys.readouterr().out.strip() == "not found"


# Exact `reduce --json` bytes: grid6 at its width, and two random posets
# at t = 1 and at t = Cov(P).
REDUCE_JSON = [
    pytest.param(grid_upper(6), 3, (
        '{"antichain": [], "case": "case1", "component_covs": [1, 1, 3, 1,'
        ' 1], "profiles": {"0": [0, 0, 3], "1": [0, 1, 3], "10": [1, 3, 2],'
        ' "11": [1, 3, 1], "12": [1, 3, 1], "13": [0, 3, 1], "14": [0, 3,'
        ' 0], "2": [1, 1, 3], "3": [1, 2, 3], "4": [2, 2, 2], "5": [1, 1,'
        ' 3], "6": [1, 2, 3], "7": [2, 2, 2], "8": [1, 3, 2], "9": [2, 2,'
        ' 2]}, "q": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14],'
        ' "schema": 1, "selected": [2, 3, 4, 6, 7, 8, 9, 10, 11, 12],'
        ' "threshold": 3, "x0": 2}\n'
    ), id="grid6-t3"),
    pytest.param(random_poset(20, 0.1, 1), 1, (
        '{"antichain": [0, 1, 2, 3, 4, 9, 13, 14, 16], "case": "case1",'
        ' "component_covs": [1], "profiles": {"17": [0, 0, 0]}, "q": [17],'
        ' "schema": 1, "selected": [17], "threshold": 1, "x0": 17}\n'
    ), id="random20-0.1-1-t1"),
    pytest.param(random_poset(20, 0.1, 1), 11, (
        '{"antichain": [], "case": "unreduced", "component_covs": [11],'
        ' "profiles": {"0": [10, 10, 11], "1": [9, 9, 11], "10": [10, 11,'
        ' 11], "11": [9, 11, 11], "12": [10, 11, 10], "13": [10, 10, 10],'
        ' "14": [10, 10, 10], "15": [10, 11, 10], "16": [10, 10, 10],'
        ' "17": [10, 10, 10], "18": [10, 11, 10], "19": [10, 10, 10],'
        ' "2": [10, 10, 10], "3": [10, 10, 11], "4": [10, 10, 11], "5": [10,'
        ' 11, 11], "6": [10, 10, 11], "7": [10, 11, 10], "8": [10, 11, 10],'
        ' "9": [10, 10, 11]}, "q": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,'
        ' 12, 13, 14, 15, 16, 17, 18, 19], "schema": 1, "selected": [1, 6,'
        ' 11, 12, 15, 18, 19], "threshold": 11, "x0": 1}\n'
    ), id="random20-0.1-1-t11"),
    pytest.param(random_poset(20, 0.3, 4), 1, (
        '{"antichain": [0, 2, 3, 4, 5], "case": "case1",'
        ' "component_covs": [1], "profiles": {"7": [0, 0, 0]}, "q": [7],'
        ' "schema": 1, "selected": [7], "threshold": 1, "x0": 7}\n'
    ), id="random20-0.3-4-t1"),
    pytest.param(random_poset(20, 0.3, 4), 6, (
        '{"antichain": [], "case": "case1_dual", "component_covs": [6],'
        ' "profiles": {"0": [5, 5, 6], "1": [5, 6, 6], "10": [3, 6, 4],'
        ' "11": [5, 6, 5], "12": [3, 6, 4], "13": [3, 6, 3], "14": [3, 6,'
        ' 4], "15": [3, 6, 4], "16": [3, 6, 3], "17": [4, 6, 4], "18": [3,'
        ' 6, 3], "19": [3, 6, 3], "2": [5, 5, 6], "3": [5, 5, 5], "4": [5,'
        ' 5, 5], "5": [5, 5, 5], "6": [4, 6, 5], "7": [5, 5, 5], "8": [4, 6,'
        ' 4], "9": [5, 6, 5]}, "q": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,'
        ' 12, 13, 14, 15, 16, 17, 18, 19], "schema": 1, "selected": [0, 1,'
        ' 2, 3, 4, 5, 6, 7, 9, 10, 11, 14], "threshold": 6, "x0": 14}\n'
    ), id="random20-0.3-4-t6"),
]


class TestReduceVerb:
    def test_json_schema(self, grid6_file, capsys):
        assert run(["reduce", grid6_file, "-t", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["case"] in ("case1", "case1_dual", "unreduced")
        assert doc["threshold"] == 3
        assert isinstance(doc["profiles"], dict)

    @pytest.mark.parametrize("poset, t, expected", REDUCE_JSON)
    def test_json_bytes(self, tmp_path, capsys, poset, t, expected):
        path = tmp_path / "p.poset"
        path.write_text(poset.to_text())
        assert run(["reduce", str(path), "-t", str(t), "--json"]) == 0
        assert capsys.readouterr().out == expected

    def test_precondition_exit2(self, grid6_file):
        assert run(["reduce", grid6_file, "-t", "9"]) == 2


class TestIdealEmbed:
    def test_found(self, tmp_path, capsys):
        poset, ideals = canonical_ideal_chain(6, 3)
        pfile = tmp_path / "grid.poset"
        pfile.write_text(poset.to_text())
        ifile = tmp_path / "ideals.txt"
        ifile.write_text("\n".join(" ".join(str(x) for x in sorted(j))
                                   for j in ideals) + "\n")
        assert run(["ideal-embed", str(pfile), "--ideals", str(ifile)]) == 0
        out = capsys.readouterr().out
        assert "0 1 ->" in out and "1 2 ->" in out

    def test_invalid_chain_exit2(self, tmp_path):
        poset, ideals = canonical_ideal_chain(6, 2)
        pfile = tmp_path / "grid.poset"
        pfile.write_text(poset.to_text())
        ifile = tmp_path / "ideals.txt"
        ifile.write_text("1\n0 1 2\n")  # (0,2) without (0,1): not downward closed
        assert run(["ideal-embed", str(pfile), "--ideals", str(ifile)]) == 2

    def test_non_integer_token_exit2(self, tmp_path, capsys):
        poset, _ = canonical_ideal_chain(6, 2)
        pfile = tmp_path / "grid.poset"
        pfile.write_text(poset.to_text())
        ifile = tmp_path / "ideals.txt"
        ifile.write_text("# header\n0 x\n")
        assert run(["ideal-embed", str(pfile), "--ideals", str(ifile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ifile}:2: ")
        assert len(err.splitlines()) == 1

    def test_over_long_token_exit2(self, tmp_path, capsys):
        poset, _ = canonical_ideal_chain(6, 2)
        pfile = tmp_path / "grid.poset"
        pfile.write_text(poset.to_text())
        ifile = tmp_path / "ideals.txt"
        ifile.write_text("0\n0 " + "9" * 5000 + "\n")
        assert run(["ideal-embed", str(pfile), "--ideals", str(ifile)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {ifile}:2: integer literal longer than "
                       f"{sys.get_int_max_str_digits()} digits\n")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("text, message", [
        ("0\n0 5\n", "2: element 5 out of range for 3 elements"),
        ("0 3 1\n", "1: element 3 out of range for 3 elements"),
        ("0\n0 +1\n", "2: " + BAD + "'+1'"),
        ("-1\n", "1: " + BAD + "'-1'"),
    ])
    def test_bad_token_names_its_line(self, tmp_path, capsys, text, message):
        pfile = tmp_path / "chain.poset"
        pfile.write_text("n 3\n0 1\n1 2\n")
        ifile = tmp_path / "ideals.txt"
        ifile.write_text(text)
        assert run(["ideal-embed", str(pfile), "--ideals", str(ifile)]) == 2
        assert capsys.readouterr().err == f"error: {ifile}:{message}\n"

    def test_non_utf8_ideals_exit2(self, tmp_path, capsys):
        poset, _ = canonical_ideal_chain(6, 2)
        pfile = tmp_path / "grid.poset"
        pfile.write_text(poset.to_text())
        ifile = tmp_path / "ideals.txt"
        ifile.write_bytes(NON_UTF8)
        assert run(["ideal-embed", str(pfile), "--ideals", str(ifile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ifile}: ") and one_error_line(err)


class TestSymbolicVerbs:
    def test_sym_cov(self, capsys):
        assert run(["sym-cov", "grid(aleph(1))"]) == 0
        assert capsys.readouterr().out.strip() == "aleph(1)"

    def test_sym_cov_finite_grid(self, capsys):
        assert run(["sym-cov", "grid(6)"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_sym_cov_parse_error(self, capsys):
        assert run(["sym-cov", "grid(("]) == 2

    def test_sym_cov_deep_nesting_exit2(self, capsys):
        assert run(["sym-cov", "dual(" * 3000 + "grid(5)" + ")" * 3000]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: nesting deeper than")
        assert len(err.splitlines()) == 1

    def test_obstructions(self, capsys):
        assert run(["obstructions", "aleph(1)"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["grid(aleph(1))", "dual(grid(aleph(1)))"]

    def test_obstructions_domain_error(self, capsys):
        assert run(["obstructions", "aleph(0)"]) == 2

    @pytest.mark.parametrize("argv", [
        ["obstructions", "9" * 5000], ["obstructions", "aleph(" + "9" * 4301 + ")"],
        ["sym-cov", "grid(" + "9" * 5000 + ")"]])
    def test_over_long_literal_exit2(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and one_error_line(captured.err)
        assert "digits" in captured.err
        assert "set_int_max_str_digits" not in captured.err


class TestGenDot:
    def test_gen_grid_round_trip(self, capsys):
        assert run(["gen", "grid", "-n", "6"]) == 0
        text = capsys.readouterr().out
        from chaincover.core import from_text
        assert from_text(text) == grid_upper(6)

    def test_gen_random_seeded(self, capsys):
        assert run(["gen", "random", "-n", "10", "-p", "0.2", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert run(["gen", "random", "-n", "10", "-p", "0.2", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_gen_lexsum(self, tmp_path, capsys):
        a = tmp_path / "a.poset"
        a.write_text("n 2\n")
        b = tmp_path / "b.poset"
        b.write_text("n 3\n")
        assert run(["gen", "lexsum", str(a), str(b)]) == 0
        from chaincover.core import from_text
        from chaincover.generators import antichain, lex_sum
        assert from_text(capsys.readouterr().out) == lex_sum(
            [antichain(2), antichain(3)])

    def test_gen_size_error(self, capsys):
        assert run(["gen", "grid", "-n", "1"]) == 2

    @pytest.mark.parametrize("what, n, count", [
        ("random", 20001, 20001), ("random", 10**12, 10**12),
        ("chain", 20001, 20001), ("antichain", 10**9, 10**9),
        ("grid", 201, 20100), ("grid", 10**6, 499999500000)])
    def test_gen_over_limit(self, capsys, what, n, count):
        assert run(["gen", what, "-n", str(n), "-p", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: gen {what}: {count} elements, "
                                f"more than {MAX_TEXT_ELEMENTS}\n")

    @pytest.mark.parametrize("what", ["chain", "antichain", "random"])
    def test_gen_negative_count(self, capsys, what):
        assert run(["gen", what, "-n", "-3"]) == 2
        assert capsys.readouterr().err == "error: element count must be nonnegative\n"

    def test_gen_at_limit_is_accepted(self, capsys):
        assert run(["gen", "antichain", "-n", str(MAX_TEXT_ELEMENTS)]) == 0
        assert capsys.readouterr().out == f"n {MAX_TEXT_ELEMENTS}\n"

    def test_gen_lexsum_over_limit(self, tmp_path, capsys):
        part = tmp_path / "part.poset"
        part.write_text(f"n {MAX_TEXT_ELEMENTS // 2 + 1}\n")
        assert run(["gen", "lexsum", str(part), str(part)]) == 2
        assert capsys.readouterr().err.startswith("error: gen lexsum: ")

    def test_dot(self, grid4_file, capsys):
        assert run(["dot", grid4_file]) == 0
        assert "digraph" in capsys.readouterr().out
        assert run(["dot", grid4_file, "--inc"]) == 0
        assert "dashed" in capsys.readouterr().out


class _Enough(Exception):
    """The sink has taken as many lines as it was asked for."""


class _Sink(io.TextIOBase):
    """Standard output that keeps nothing, and raises _Enough once it has
    been written ``limit`` lines."""

    def __init__(self, limit=None):
        self.left = limit

    def write(self, s):
        if self.left is not None:
            self.left -= s.count("\n")
            if self.left <= 0:
                raise _Enough
        return len(s)


def traced_peak(argv, limit=None) -> int:
    """tracemalloc's peak over ``run(argv)``, cut at ``limit`` lines."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Sink(limit)):
            try:
                run(argv)
            except _Enough:
                pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dot_inc_streams_its_lines(tmp_path):
    # `n 2000` has 1,999,000 Inc edges, ~90 MB of DOT.  Lines are written
    # a chunk at a time as they are made, so by the 20,000th the peak is
    # still within 1 MB of `dot` alone, whose peak is the load; output built
    # before its first write would show in full (all of it, traced, takes
    # ~20 s to write)
    path = tmp_path / "n2000"
    path.write_text("n 2000\n")
    traced_peak(["dot", str(path)])  # builds the parser
    plain = traced_peak(["dot", str(path)])
    assert traced_peak(["dot", str(path), "--inc"], limit=20_000) < plain + (1 << 20)


@pytest.fixture(scope="module")
def cap_dir(tmp_path_factory):
    """Files of MAX_TEXT_ELEMENTS elements: an antichain, a chain, a chain
    below two tops, and all of the latter as one ideal."""
    d = tmp_path_factory.mktemp("cap")
    n = MAX_TEXT_ELEMENTS
    (d / "n20000").write_text(f"n {n}\n")
    (d / "chain20000").write_text(chain(n).to_text())
    (d / "tops20000").write_text(lex_sum([chain(n - 2), antichain(2)]).to_text())
    (d / "whole").write_text(" ".join(map(str, range(n))) + "\n")
    return d


# (argv, exit code, seconds): every verb at the header cap, each within a
# bound of five or more times its time on a 2-vCPU machine.  Left out: `reduce`
# on `n20000`, whose claim 1 ran past 120 s at -t 1, and `dot --inc` at the
# cap, about 2 * 10^8 lines, whose memory test_dot_inc_streams_its_lines
# bounds.  `gen random` at the cap makes 2 * 10^8 draws, 12 s for
# random_poset alone; test_gen_random_at_4000 runs it at 8 * 10^6.
CAP_RUNS = [
    ("cov n20000", 0, 2), ("antichain n20000", 0, 2),
    ("decompose n20000", 0, 2), ("dist n20000 0 1", 0, 2),
    ("find-grid n20000 -k 6 --budget 20000", 1, 2), ("dot n20000", 0, 2),
    ("cov chain20000", 0, 2), ("antichain chain20000", 0, 2),
    ("decompose chain20000", 0, 5), ("dist chain20000 0 1", 1, 3),
    ("find-grid chain20000 -k 6 --budget 20000", 1, 2),
    ("dot chain20000", 0, 2), ("reduce chain20000 -t 1", 0, 10),
    ("ideal-embed tops20000 --ideals whole", 2, 5),
]


@pytest.mark.parametrize("argv, code, seconds", CAP_RUNS,
                         ids=[row[0] for row in CAP_RUNS])
def test_every_verb_at_the_cap(cap_dir, capsys, argv, code, seconds):
    argv = [str(cap_dir / a) if (cap_dir / a).exists() else a
            for a in argv.split()]
    start = time.perf_counter()
    assert run(argv) == code
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < seconds


def test_gen_random_at_4000(capsys):
    # 7,998,000 draws, bounded at five times their 0.5-0.6 s on a 2-vCPU
    # machine, and the bytes that the one-draw-at-a-time stream printed
    start = time.perf_counter()
    assert run(["gen", "random", "-n", "4000", "-p", "0.3", "--seed", "5"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.encode()
    assert len(out) == 77_678
    assert hashlib.md5(out).hexdigest() == "e54a518e0b69a04de77e58462068f88c"
    assert elapsed < 3


class TestRoundTripIdentity:
    def test_gen_cov_matches_sym_cov(self, capsys, monkeypatch):
        import io
        assert run(["gen", "grid", "-n", "6"]) == 0
        text = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(["cov", "-"]) == 0
        via_file = capsys.readouterr().out.strip()
        assert run(["sym-cov", "grid(6)"]) == 0
        assert capsys.readouterr().out.strip() == via_file


def test_selftest_quick(capsys):
    assert run(["selftest", "--rounds", "4"]) == 0
    assert "0 failed" in capsys.readouterr().out


@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_selftest_needs_a_round(capsys, rounds):
    assert run(["selftest", "--rounds", rounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rounds must be at least 1, got {rounds}\n"


def test_selftest_fail_names_instance(capsys, monkeypatch):
    from chaincover import selftest
    monkeypatch.setitem(selftest.LAWS, "order axioms", lambda p: False)
    assert run(["selftest", "--seed", "7", "--rounds", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    # round i draws random_poset(6 + (7i + seed) % 19, (.05, .1, .3)[i % 3], seed + i)
    assert out[0] == "FAIL order axioms: seed=7 n=13 p=0.05"
    assert out[-2] == "FAIL order axioms: seed=8 n=20 p=0.1"
    assert out[-1].endswith(" 2 failed")


def test_unknown_verb_usage_error(capsys):
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["cov"], "chaincover cov: the following arguments are required: file"),
    (["frobnicate"], "chaincover: argument verb: invalid choice: 'frobnicate'"),
    (["cov", "{f}", "--bogus"], "chaincover: unrecognized arguments: --bogus"),
    (["dist", "{f}", "a", "1"], "chaincover dist: argument x: invalid int value"),
])
def test_usage_error_is_one_line(grid6_file, capsys, argv, message):
    assert run([a.format(f=grid6_file) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err)
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [["gen", "chain", "-n", "3"], ["dot", "{f}"],
                                  ["selftest", "--rounds", "1"]])
def test_json_only_on_verbs_with_a_json_form(grid6_file, capsys, argv):
    argv = [a.format(f=grid6_file) for a in argv]
    assert run(argv + ["--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err)
    assert err == "error: chaincover: unrecognized arguments: --json\n"


# Exact (exit code, stdout, stderr) of every verb, plain and --json.  An
# empty list keeps its line: `antichain: ` and `antichain ` keep their
# trailing space, and decompose of `n 0` prints nothing at all.
PINNED_FILES = {"n0": "n 0\n", "n1": "n 1\n", "n3": "n 3\n0 1\n",
                "grid8": grid_upper(8).to_text(),
                "IDEALS": "0 1 2 3 4 5 6\n0 1 2 3 4 5 6 7 8 9 10 11 12\n",
                "chain3": "n 3\n0 1\n1 2\n", "CHAIN_IDEALS": "0\n0 1\n0 1 2\n",
                "n20": "n 20\n0 5\n1 13\n", "IDEALS_5_13": "5 13\n",
                "IDEALS_13_5": "13 5\n"}
# The witnesses of an invalid ideal walk its members in ascending order,
# whatever the order of its tokens.
_N20_WITNESSES = ("error: ideal 0: not downward closed (witness (0, 5)); ideal 0:"
                  " not up-directed (witness (5, 13)); ideal 0: no cofinal chain"
                  " (no greatest element) (witness ())\n")
PINNED = [
    ("cov n0 --witness", 0, "0\nantichain: \n", ""),
    ("cov n0 --witness --json", 0,
     '{"certificate": [], "chains": [], "schema": 1, "width": 0}\n', ""),
    ("antichain n0", 0, "\n", ""),
    ("antichain n0 --json", 0, '{"antichain": [], "schema": 1}\n', ""),
    ("decompose n0", 0, "", ""),
    ("decompose n0 --json", 0, '{"parts": [], "schema": 1}\n', ""),
    ("reduce n0 -t 1", 2, "", "error: Cov(P) < 1\n"),
    ("dot n0", 0, "digraph poset {\n  rankdir=BT;\n}\n", ""),
    ("cov n1 --witness", 0, "1\n0\nantichain: 0\n", ""),
    ("reduce n1 -t 1", 0, "case case1\nantichain \nq 0\nx0 0\nselected 0\n", ""),
    ("reduce n1 -t 1 --json", 0,
     '{"antichain": [], "case": "case1", "component_covs": [1], "profiles":'
     ' {"0": [0, 0, 0]}, "q": [0], "schema": 1, "selected": [0],'
     ' "threshold": 1, "x0": 0}\n', ""),
    ("dist n1 0 0", 0, "0 0\n", ""),
    ("dist n1 0 0 --json", 0,
     '{"distance": 0, "path": [0], "reachable": true, "schema": 1}\n', ""),
    ("dist n1 1 2", 2, "", "error: element 1 out of range for 1 elements\n"),
    ("find-grid n1 -k 2 --json", 0,
     '{"mapping": [0], "result": "found", "schema": 1}\n', ""),
    ("cov n3 --witness", 0, "2\n0 1\n2\nantichain: 1 2\n", ""),
    ("antichain n3", 0, "1 2\n", ""),
    ("decompose n3", 0, "0 1 2\n", ""),
    ("reduce n3 -t 2", 0,
     "case unreduced\nantichain \nq 0 1 2\nx0 0\nselected 0 1\n", ""),
    ("reduce n3 -t 2 --json", 0,
     '{"antichain": [], "case": "unreduced", "component_covs": [2],'
     ' "profiles": {"0": [1, 1, 2], "1": [1, 2, 1], "2": [1, 1, 1]}, "q":'
     ' [0, 1, 2], "schema": 1, "selected": [0, 1], "threshold": 2, "x0": 0}\n',
     ""),
    ("dist n3 0 2", 0, "1 0 2\n", ""),
    ("dist n3 1 2 --json", 0,
     '{"distance": 1, "path": [1, 2], "reachable": true, "schema": 1}\n', ""),
    ("dist n3 3 4", 2, "", "error: element 3 out of range for 3 elements\n"),
    ("check-metric n3 0 1", 0, "d=2 path=0-2-1 item1=ok item2=ok\n", ""),
    ("check-metric n3 0 1 --json", 0,
     '{"distance": 2, "item1_ok": true, "item2_ok": true, "path": [0, 2, 1],'
     ' "schema": 1, "violations": []}\n', ""),
    ("dot n3 --inc", 0,
     'digraph poset {\n  rankdir=BT;\n  v0 [label="0"];\n  v1 [label="1"];\n'
     '  v2 [label="2"];\n  v0 -> v1;\n  v0 -> v2 [style=dashed, dir=none];\n'
     "  v1 -> v2 [style=dashed, dir=none];\n}\n", ""),
    ("find-grid grid8 -k 6 --budget 0", 3, "unknown\n", ""),
    ("find-grid grid8 -k 6 --budget 0 --json", 3,
     '{"result": "unknown", "schema": 1}\n', ""),
    ("find-grid grid8 -k 3", 0, "(0,1) -> 0\n(0,2) -> 1\n(1,2) -> 2\n", ""),
    ("find-grid grid8 -k 3 --json", 0,
     '{"mapping": [0, 1, 2], "result": "found", "schema": 1}\n', ""),
    ("find-grid n1 -k 1", 2, "", "error: grid size must be at least 2\n"),
    ("find-grid grid8 -k 9 --json", 1,
     '{"result": "not found", "schema": 1}\n', ""),
    ("antichain grid8 --json", 0, '{"antichain": [6, 11, 15, 18], "schema": 1}\n',
     ""),
    ("reduce grid8 -t 2", 0,
     "case unreduced\nantichain 4\nq 7 8 9 13 14 18\nx0 9\nselected 9\n", ""),
    ("reduce grid8 -t 2 --json", 0,
     '{"antichain": [4], "case": "unreduced", "component_covs": [1, 1, 2, 1, 1],'
     ' "profiles": {"13": [1, 1, 1], "14": [0, 2, 1], "18": [0, 2, 0], "7":'
     ' [0, 0, 2], "8": [0, 1, 2], "9": [1, 1, 1]}, "q": [7, 8, 9, 13, 14, 18],'
     ' "schema": 1, "selected": [9], "threshold": 2, "x0": 9}\n', ""),
    ("cov grid8 --witness", 0,
     "4\n0 1 2 3 4 5 6 12 17 21 26\n7 8 9 10 11 16 20 24\n13 14 15 19 23 27\n"
     "18 22 25\nantichain: 6 11 15 18\n", ""),
    ("dist grid8 2 25", 0, "3 2 7 6 25\n", ""),
    ("check-metric grid8 2 25 --json", 0,
     '{"distance": 3, "item1_ok": true, "item2_ok": true, "path": [2, 7, 6,'
     ' 25], "schema": 1, "violations": []}\n', ""),
    ("ideal-embed grid8 --ideals IDEALS", 0, "0 1 -> 0\n", ""),
    ("ideal-embed grid8 --ideals IDEALS --json", 0,
     '{"mapping": [0], "result": "found", "schema": 1}\n', ""),
    ("ideal-embed chain3 --ideals CHAIN_IDEALS", 1, "failure at 0 2\n", ""),
    ("ideal-embed chain3 --ideals CHAIN_IDEALS --json", 1,
     '{"position": [0, 2], "result": "failure", "schema": 1}\n', ""),
    ("ideal-embed n20 --ideals IDEALS_5_13", 2, "", _N20_WITNESSES),
    ("ideal-embed n20 --ideals IDEALS_13_5", 2, "", _N20_WITNESSES),
    ("sym-cov grid(aleph(1))", 0, "aleph(1)\n", ""),
    ("sym-cov grid(aleph(1)) --json", 0,
     '{"cov": "aleph(1)", "schema": 1}\n', ""),
    ("sym-cov grid(aleph(w*0))", 2, "",
     "error: coefficient must be positive (at position 14)\n"),
    ("sym-cov grid(aleph(w^0*3))", 0, "aleph(3)\n", ""),
    ("sym-cov lexsumfam(up,w,aleph(succ_n))", 2, "",
     "error: expected 'inc' or 'dec' (at position 10)\n"),
    ("sym-cov lexsumfam(inc,w,aleph(3))", 2, "",
     "error: expected a family spec (at position 16)\n"),
    ("obstructions aleph(w)", 0,
     "lexsumfam(inc,w,aleph(succ_n))\nlexsumfam(dec,w,aleph(succ_n))\n"
     "dual(lexsumfam(inc,w,aleph(succ_n)))\n"
     "dual(lexsumfam(dec,w,aleph(succ_n)))\n", ""),
    ("obstructions aleph(w) --json", 0,
     '{"obstructions": ["lexsumfam(inc,w,aleph(succ_n))",'
     ' "lexsumfam(dec,w,aleph(succ_n))", "dual(lexsumfam(inc,w,aleph(succ_n)))",'
     ' "dual(lexsumfam(dec,w,aleph(succ_n)))"], "schema": 1}\n', ""),
    ("gen chain -n 3", 0, "n 3\n0 1\n1 2\n", ""),
    ("gen grid -n 3", 0, "n 3\n0 1\n1 2\n", ""),
    ("gen lexsum", 2, "", "error: lexsum needs at least one part file\n"),
    ("gen random -n 3 -p nan", 2, "", "error: probability must lie in [0, 1]\n"),
    ("selftest --rounds 1", 0, "selftest: 9 passed, 0 failed\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", PINNED,
                         ids=[row[0] for row in PINNED])
def test_pinned_bytes(tmp_path, capsys, argv, code, out, err):
    for name, text in PINNED_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in PINNED_FILES else a for a in argv.split()]
    assert run(argv) == code
    assert capsys.readouterr() == (out, err)


# -- one parser per process ----------------------------------------------------
#
# run() reuses one argparse tree; each query must still answer as the first
# query of a fresh interpreter does.  COLUMNS pins argparse's wrap width on
# both sides.

SRC = str(Path(__file__).resolve().parents[1] / "src")
VERBS = ["cov", "antichain", "decompose", "dist", "check-metric", "find-grid",
         "reduce", "ideal-embed", "sym-cov", "obstructions", "gen", "dot",
         "selftest"]


def fresh_process(argv, code=None, stdin=b"", **env):
    """(stdout, stderr, exit code) of ``python -m chaincover.cli <argv>``, or
    of the script ``code`` with ``argv``, in a new interpreter fed the bytes
    ``stdin``, with ``env`` added to its environment."""
    cmd = ["-c", code] if code is not None else ["-m", "chaincover.cli"]
    done = subprocess.run([sys.executable, *cmd, *argv], input=stdin,
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80", **env})
    return done.stdout.decode(), done.stderr.decode(), done.returncode


class TestSharedParser:
    @pytest.mark.parametrize("first, second", [
        (["cov", "{f}", "--witness"], ["cov", "{f}"]),
        (["antichain", "{f}", "--json"], ["antichain", "{f}"]),
        (["find-grid", "{f}", "-k", "4", "--budget", "5"],
         ["find-grid", "{f}", "-k", "4"]),
        (["gen", "random", "-n", "9", "--seed", "3"], ["gen", "random", "-n", "9"]),
        (["cov"], ["cov", "{f}"]),
    ])
    def test_back_to_back_equals_fresh(self, grid6_file, capsys, monkeypatch,
                                       first, second):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in (first, second):
            argv = [a.format(f=grid6_file) for a in argv]
            code = run(argv)
            out, err = capsys.readouterr()
            assert (out, err, code) == fresh_process(argv), argv

    @pytest.mark.parametrize("argv", [["-h"]] + [[verb, "-h"] for verb in VERBS])
    def test_help_twice_same_bytes(self, capsys, argv):
        assert run(argv) == 0
        first = capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr() == first and first.out.startswith("usage: ")

    def test_two_runs_build_one_parser(self, grid6_file, capsys):
        cli.build_parser.cache_clear()
        assert run(["cov", grid6_file]) == 0
        assert run(["nope"]) == 2
        assert cli.build_parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        script = ("import chaincover.cli as cli; "
                  "print(cli.build_parser.cache_info().misses)")
        assert fresh_process([], script) == ("0\n", "", 0)


class TestEntryPoint:
    """The real entry point, cold: one process, one parser, one query."""

    def test_cov_json(self, grid6_file, capsys):
        out, err, code = fresh_process(["cov", grid6_file, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["width"] == 3
        assert run(["cov", grid6_file, "--json"]) == 0
        assert capsys.readouterr().out == out

    def test_unknown_verb(self):
        out, err, code = fresh_process(["nope"])
        assert (code, out) == (2, "") and one_error_line(err)
        assert err.startswith(
            "error: chaincover: argument verb: invalid choice: 'nope'")

    def test_unreadable_file(self, tmp_path):
        out, err, code = fresh_process(["cov", str(tmp_path / "absent.poset")])
        assert (code, out) == (2, "") and one_error_line(err)

    def test_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        # the poset and ideals files are read as UTF-8 whatever the locale,
        # so a comment may hold any text
        g, ideals = tmp_path / "g.poset", tmp_path / "g.ideals"
        g.write_text("# \u00e9\n" + grid_upper(8).to_text(), encoding="utf-8")
        ideals.write_text("0 1 2 3 4 5 6  # \u00e9\n" + " ".join(map(str, range(13))),
                          encoding="utf-8")
        ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        assert fresh_process(["cov", str(g)], **ascii_locale) == ("4\n", "", 0)
        assert fresh_process(["ideal-embed", str(g), "--ideals", str(ideals)],
                             **ascii_locale) == ("0 1 -> 0\n", "", 0)

    @pytest.mark.parametrize("env", [{}, {"LC_ALL": "C", "PYTHONUTF8": "0",
                                          "PYTHONCOERCECLOCALE": "0"}],
                             ids=["default", "ascii-locale"])
    def test_stdin_is_strict_utf8_like_a_file(self, tmp_path, env):
        # standard input is decoded as a file is, whatever the locale: bytes
        # that are not UTF-8 exit 2 on both routes, and UTF-8 text in a
        # comment and CRLF line ends read as from a file
        bad = b"n 2\n0 1  # \xff\n"
        path = tmp_path / "bad.poset"
        path.write_bytes(bad)
        reason = "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"
        assert fresh_process(["cov", "-"], stdin=bad, **env) == (
            "", f"error: -: {reason}\n", 2)
        assert fresh_process(["cov", str(path)], **env) == (
            "", f"error: {path}: {reason}\n", 2)
        good = "n 3\r\n0 1  # \u00e9\r\n1 2\r\n".encode()
        path.write_bytes(good)
        witness = ("1\n0 1 2\nantichain: 2\n", "", 0)
        assert fresh_process(["cov", "-", "--witness"], stdin=good, **env) == witness
        assert fresh_process(["cov", str(path), "--witness"], **env) == witness


# -- the failure boundary ------------------------------------------------------
#
# Whatever bytes or text arrive, run() answers 0, 1, 2 or 3 and never raises;
# exit 2 is one "error: " line on stderr.  Element counts in the structured
# files stay small (the header is drawn whole), so every verb answers fast.

_POSET_BYTES = st.one_of(
    st.binary(max_size=40),
    st.builds(lambda head, body: head + b"".join(body),
              st.sampled_from([b"", b"n 0\n", b"n 3\n", b"n 5\n", b"n -2\n",
                               b"n 99999\n", b"n 3 # c\n", b"n +3\n",
                               b"n 1_0\n", "n \u0663\n".encode()]),
              st.lists(st.sampled_from([b"0 1\n", b"1 2\n", b"2 0\n", b"1 4\n",
                                        b"0", b"2", b" ", b"\n", b"#", b"-", b"x",
                                        b"+", b"_", b"9 0\n",
                                        b"n", b"\t", b"\r", b"\xff", b"\xc3",
                                        "\u00e9".encode(), b"9" * 5000]),
                       max_size=12)))

_IDEALS_BYTES = st.one_of(
    st.binary(max_size=40),
    st.lists(st.sampled_from([b"0", b"1", b"2", b"3", b"5", b"14", b"99", b"-1",
                              b"+1", b"1_0",
                              b" ", b"\n", b"#", b"x", b"\xff", b"9" * 5000]),
             max_size=24).map(b"".join))

_TERM_TEXT = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(["grid(", "dual(", "lexsum([", "lexsumfam(", "inc,",
                              "dec,", ",", "w", "aleph(", "aleph(0)", "aleph(1)",
                              "aleph(w)", "succ_n", "succ_fund(", ")", "]",
                              "chain(", "antichain(", "0", "1", "3", "^", "*",
                              "+", " ", "\u00b2", "9" * 5000]),
             max_size=14).map("".join))

_FILE_VERBS = [["cov", "--witness"], ["antichain", "--json"], ["decompose"],
               ["dot", "--inc"], ["dist", "0", "2"], ["check-metric", "0", "1"],
               ["find-grid", "-k", "3", "--budget", "20"], ["reduce", "-t", "2"]]


def run_at_boundary(argv, stdin=b""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3), argv
    if code == 2:
        assert one_error_line(err.getvalue()), (argv, err.getvalue())
    return code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    poset, _ = canonical_ideal_chain(6, 3)
    (d / "grid.poset").write_text(poset.to_text())
    return d


class TestBoundaryFuzz:
    @settings(max_examples=120, deadline=None)
    @given(data=_POSET_BYTES, verb=st.sampled_from(_FILE_VERBS),
           via_stdin=st.booleans())
    def test_poset_bytes(self, fuzz_dir, data, verb, via_stdin):
        if via_stdin:
            run_at_boundary([verb[0], "-", *verb[1:]], stdin=data)
        else:
            path = fuzz_dir / "input.poset"
            path.write_bytes(data)
            run_at_boundary([verb[0], str(path), *verb[1:]])

    @settings(max_examples=80, deadline=None)
    @given(data=_IDEALS_BYTES)
    def test_ideals_bytes(self, fuzz_dir, data):
        path = fuzz_dir / "input.ideals"
        path.write_bytes(data)
        run_at_boundary(["ideal-embed", str(fuzz_dir / "grid.poset"),
                         "--ideals", str(path)])

    @settings(max_examples=120, deadline=None)
    @given(text=_TERM_TEXT, verb=st.sampled_from(["sym-cov", "obstructions"]))
    def test_term_and_cardinal_text(self, text, verb):
        # "--" keeps argparse from reading a leading "-" as an option
        run_at_boundary([verb, "--", text])
