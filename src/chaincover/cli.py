"""Command-line entry point binding every module to files and exit codes.

Exit codes: 0 success / Found / property holds; 1 NotFound / property fails;
2 input or usage error; 3 Unknown (search budget exhausted).  ``-`` as a
poset file means standard input.  ``--json`` switches machine-readable
output on every verb but ``gen``, ``dot`` and ``selftest``, which have no
JSON form; every JSON payload carries ``"schema": 1``.

Exit 2 prints one ``error:`` line on stderr, for usage errors; unreadable
or non-UTF-8 files and stdin; malformed poset, ideals, term and cardinal
text, integer literals too long to convert included; out-of-range elements;
unmet preconditions; invalid ideal chains; countable cardinals; ``gen``
sizes out of range; a negative ``--budget``; and ``--rounds`` below 1.
:func:`run` alone maps errors to exit codes; any other exception is a bug.

Each ``_cmd_*`` verb maps its parsed arguments to ``(exit code, JSON
payload or None, plain lines)`` and prints nothing; :func:`run` alone
prints, the payload under ``--json`` and otherwise each line and a newline,
a thousand lines at a time as they come: a verb may return any iterable
of them, and ``dot`` streams its own.

The argparse tree is built once per process, by the first :func:`run`, and
only read after that; each call parses into a fresh Namespace.  It binds
the ``_cmd_*`` functions as they are when it is built.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import sys
from collections.abc import Iterable

from . import core, cover, generators, ideal_embed, incgraph, patterns, reduction
from . import symbolic

SCHEMA = 1


class _InputError(Exception):
    """Anything wrong with user input that the CLI itself finds."""


class _Parser(argparse.ArgumentParser):
    """Usage errors raise _InputError, so that they print as one line."""

    def error(self, message):
        raise _InputError(f"{self.prog}: {message}")


# What input alone can raise: every library input error is a
# PreconditionError.  Bare ValueError, IndexError and RuntimeError stay out,
# so InternalInconsistency and real bugs keep their tracebacks.
_INPUT_ERRORS = (_InputError, core.PreconditionError)


def _read_text(path: str, stream=None) -> str:
    """All of the file ``path``, or of ``stream`` when one is given, read as
    strict UTF-8 with universal newlines whatever the locale: a stream's
    bytes are decoded here, and only a text stream with no bytes under it
    (no ``buffer``) is read as it is."""
    try:
        if stream is None:
            with open(path, encoding="utf-8") as f:
                return f.read()
        if (raw := getattr(stream, "buffer", None)) is None:
            return stream.read()
        return io.TextIOWrapper(io.BytesIO(raw.read()), encoding="utf-8").read()
    except OSError as exc:
        raise _InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _read_poset(path: str, *elements: int) -> core.Poset:
    """The poset in file ``path``, after checking ``elements`` are in range."""
    text = _read_text(path, sys.stdin if path == "-" else None)
    try:
        p = core.from_text(text)
    except (ValueError, IndexError) as exc:
        raise _InputError(f"{path}: {exc}") from exc
    for x in elements:
        if not 0 <= x < p.n:
            raise _InputError(f"element {x} out of range for {p.n} elements")
    return p


# A verb's answer: exit code, JSON payload (None without a JSON form), lines.
_Answer = tuple[int, dict | None, Iterable[str]]


def _words(xs) -> str:
    return " ".join(map(str, xs))


def _cmd_cov(args) -> _Answer:
    # the empty start keeps the printed chains those of the textbook search
    cc = cover.min_chain_cover(_read_poset(args.file), greedy=False)
    certificate = list(core.iter_bits(cc.certificate_mask))
    lines = [str(cc.width)]
    if args.witness:
        lines += [_words(chain) for chain in cc.chains]
        lines.append("antichain: " + _words(certificate))
    return 0, {"width": cc.width, "chains": [list(c) for c in cc.chains],
               "certificate": certificate}, lines


def _cmd_antichain(args) -> _Answer:
    cc = cover.min_chain_cover(_read_poset(args.file))
    members = list(core.iter_bits(cc.certificate_mask))
    return 0, {"antichain": members}, [_words(members)]


def _cmd_decompose(args) -> _Answer:
    p = _read_poset(args.file)
    parts = [list(core.iter_bits(c)) for c in incgraph.inc_components(p)]
    return 0, {"parts": parts}, [_words(part) for part in parts]


def _cmd_dist(args) -> _Answer:
    p = _read_poset(args.file, args.x, args.y)
    hop = incgraph.inc_distance_path(p, args.x, args.y)
    if hop is None:
        return 1, {"reachable": False}, ["unreachable"]
    d, path = hop
    return 0, {"reachable": True, "distance": d, "path": path}, [
        f"{d} {_words(path)}"]


def _cmd_check_metric(args) -> _Answer:
    p = _read_poset(args.file, args.x, args.y)
    report = incgraph.check_metric_lemma(p, args.x, args.y)
    line = (f"d={report.d} path=" + "-".join(map(str, report.path))
            + f" item1={'ok' if report.item1_ok else 'FAIL'}"
            + f" item2={'ok' if report.item2_ok else 'FAIL'}")
    return 0 if report.ok else 1, {
        "item1_ok": report.item1_ok, "item2_ok": report.item2_ok,
        "distance": report.d, "path": list(report.path),
        "violations": list(report.violations)}, [line]


def _cmd_find_grid(args) -> _Answer:
    p = _read_poset(args.file)
    if args.k < 2:
        raise _InputError("grid size must be at least 2")
    found = patterns.embeds_grid(p, args.k, want_dual=args.dual,
                                 budget=args.budget)
    if found is None:
        return 1, {"result": "not found"}, ["not found"]
    return 0, {"result": "found", "mapping": list(found.mapping)}, [
        f"({a},{b}) -> {x}" for (a, b), x
        in zip(generators.grid_labels(args.k), found.mapping)]


def _cmd_reduce(args) -> _Answer:
    out = reduction.reduce(_read_poset(args.file), args.threshold)
    payload = {
        "case": out.case,
        "threshold": out.threshold,
        "antichain": list(core.iter_bits(out.antichain)),
        "q": list(core.iter_bits(out.q)),
        "profiles": {str(x): [pr.cov_inc, pr.cov_minus_up, pr.cov_minus_down]
                     for x, pr in sorted(out.profiles.items())},
        "component_covs": list(out.component_covs),
        "x0": out.x0,
        "selected": list(core.iter_bits(out.selected)),
    }
    return 0, payload, [f"case {out.case}",
                        "antichain " + _words(payload["antichain"]),
                        "q " + _words(payload["q"]), f"x0 {out.x0}",
                        "selected " + _words(payload["selected"])]


def _cmd_ideal_embed(args) -> _Answer:
    p = _read_poset(args.file)
    ideals = []
    for lineno, raw in enumerate(_read_text(args.ideals).splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            try:
                ideal = frozenset(core.int_field(tok) for tok in tokens)
                top = max(ideal)
                if top >= p.n:
                    raise ValueError(f"element {top} out of range for {p.n} elements")
            except ValueError as exc:
                raise _InputError(f"{args.ideals}:{lineno}: {exc}") from exc
            ideals.append(ideal)
    chain = ideal_embed.IdealChain(p, tuple(ideals))
    result = ideal_embed.embed_from_ideal_chain(chain)
    if isinstance(result, ideal_embed.EmbedFailure):
        a, b = result.position
        return 1, {"result": "failure", "position": [a, b]}, [
            f"failure at {a} {b}"]
    return 0, {"result": "found", "mapping": list(result.mapping)}, [
        f"{a} {b} -> {x}" for (a, b), x
        in zip(generators.grid_labels(len(ideals)), result.mapping)]


def _cmd_sym_cov(args) -> _Answer:
    text = symbolic.cov_symbolic(symbolic.parse_term(args.term)).to_text()
    return 0, {"cov": text}, [text]


def _cmd_obstructions(args) -> _Answer:
    terms = symbolic.obstruction_list(symbolic.parse_cardinal(args.cardinal))
    rendered = [symbolic.term_to_text(t) for t in terms]
    return 0, {"obstructions": rendered}, rendered


def _cmd_gen(args) -> _Answer:
    parts = [_read_poset(f) for f in args.parts] if args.what == "lexsum" else []
    count, build = {
        "grid": (args.n * (args.n - 1) // 2 if args.n >= 2 else 0,
                 lambda: generators.grid_upper(args.n)),
        "chain": (args.n, lambda: generators.chain(args.n)),
        "antichain": (args.n, lambda: generators.antichain(args.n)),
        "random": (args.n,
                   lambda: generators.random_poset(args.n, args.p, args.seed)),
        "lexsum": (sum(part.n for part in parts),
                   lambda: generators.lex_sum(parts)),
    }[args.what]
    if count > core.MAX_TEXT_ELEMENTS:
        raise _InputError(f"gen {args.what}: {count} elements, more than "
                          f"{core.MAX_TEXT_ELEMENTS}")
    if args.what == "lexsum" and not parts:
        raise _InputError("lexsum needs at least one part file")
    return 0, None, build().to_text().splitlines()


def _cmd_dot(args) -> _Answer:
    return 0, None, incgraph.to_dot(_read_poset(args.file), include_inc=args.inc)


def _cmd_selftest(args) -> _Answer:
    from . import selftest
    passed, failures = selftest.run(args.seed, args.rounds)
    return 1 if failures else 0, None, [
        *failures, f"selftest: {passed} passed, {len(failures)} failed"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="chaincover", description="chain covers, antichains and "
                  "decompositions of finite posets")
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        if name not in ("gen", "dot", "selftest"):  # verbs with a JSON form
            sp.add_argument("--json", action="store_true",
                            help="machine readable output")
        if name not in ("sym-cov", "obstructions", "gen", "selftest"):
            sp.add_argument("file")  # verbs that read a poset file
        return sp

    sp = add("cov", _cmd_cov, help="minimum chain cover width")
    sp.add_argument("--witness", action="store_true",
                    help="also print chains and the antichain certificate")

    add("antichain", _cmd_antichain, help="a maximum antichain")
    add("decompose", _cmd_decompose,
        help="incomparability components in chain order")

    sp = add("dist", _cmd_dist, help="incomparability-graph distance")
    sp.add_argument("x", type=int)
    sp.add_argument("y", type=int)

    sp = add("check-metric", _cmd_check_metric,
             help="verify the incomparability metric consequences for x < y")
    sp.add_argument("x", type=int)
    sp.add_argument("y", type=int)

    sp = add("find-grid", _cmd_find_grid, help="search for a half-grid copy")
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--dual", action="store_true")
    sp.add_argument("--budget", type=int, default=None)

    sp = add("reduce", _cmd_reduce, help="threshold reduction with certificates")
    sp.add_argument("-t", "--threshold", type=int, required=True)

    sp = add("ideal-embed", _cmd_ideal_embed,
             help="embed a grid from a chain of ideals")
    sp.add_argument("--ideals", required=True,
                    help="file with one ideal per line (space-separated indices)")

    sp = add("sym-cov", _cmd_sym_cov, help="symbolic covering number of a term")
    sp.add_argument("term")

    sp = add("obstructions", _cmd_obstructions,
             help="obstruction list for an uncountable cardinal")
    sp.add_argument("cardinal")

    sp = add("gen", _cmd_gen, help="emit a poset in the text format")
    sp.add_argument("what", choices=["grid", "chain", "antichain", "random", "lexsum"])
    sp.add_argument("-n", type=int, default=0)
    sp.add_argument("-p", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("parts", nargs="*", help="part files for lexsum")

    sp = add("dot", _cmd_dot, help="Hasse diagram in DOT")
    sp.add_argument("--inc", action="store_true",
                    help="also draw incomparability edges, dashed")

    sp = add("selftest", _cmd_selftest, help="run the invariant suite")
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--rounds", type=int, default=25)

    return top


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, payload, lines = args.fn(args)
    except SystemExit:  # -h, once its help is printed
        return 0
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except patterns.BudgetExhausted:
        code, payload, lines = 3, {"result": "unknown"}, ["unknown"]
    if getattr(args, "json", False):
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        # joined in chunks: on unbuffered output each write is a system call
        rest = iter(lines)
        while chunk := list(itertools.islice(rest, 1024)):
            sys.stdout.write("\n".join(chunk) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
