"""Command-line interface: solve, gen, table, verify, play.

Exit codes: 0 success, 1 runtime failure (parse errors, budget
exhaustion, check violations, aborted games), 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import graph6
from .cache import CacheEntry, cache_get, cache_put
from .canon import canonical_certificate
from .corpus import corpus_from_spec, family_items, parse_range
from .graph import Graph, GraphError
from .matching import matching_number, min_maximal_number
from .solver import (
    DEFAULT_BUDGET,
    GameState,
    MemoBudgetError,
    Player,
    StrategyForfeit,
    Transcript,
    game_values,
    play,
    solve,
)
from .strategies import STRATEGIES, Strategy, make_strategy

# attempting exact comparison beyond this order is not desk-viable
COMPARE_CAP = 24


class PlayAborted(Exception):
    def __init__(self, moves):
        super().__init__("input ended before the game finished")
        self.moves = moves


def _player(text: str) -> Player:
    return Player.MAX if text == "max" else Player.MIN


def _edge_str(e) -> str:
    return f"{e[0]}-{e[1]}"


def _load_graph(args) -> Graph:
    sources = [s for s in ("g6", "file", "gen") if getattr(args, s, None)]
    if len(sources) != 1:
        raise GraphError("provide exactly one of --g6, --file, --gen")
    if args.g6:
        return graph6.parse(args.g6)
    if args.file:
        with open(args.file, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    return graph6.parse(line)
        raise GraphError(f"no graph6 line in {args.file!r}")
    name, _, params = args.gen.partition(":")
    items = family_items(name, params)
    if len(items) != 1:
        raise GraphError("this command needs a single graph; ranges not allowed here")
    return items[0].graph


# -- solve -----------------------------------------------------------------


def cmd_solve(args) -> int:
    g = _load_graph(args)
    first = _player(args.player)
    start = time.perf_counter()
    alpha = matching_number(g)
    mu = min_maximal_number(g)
    cache_state = "off"
    cached = None
    cert = None
    if args.cache:
        cert = canonical_certificate(g)
        entry = cache_get(args.cache, cert)
        if entry is not None and all(mu <= v <= alpha for v in (entry.max_value, entry.min_value)):
            cache_state, cached = "hit", entry
        else:
            cache_state = "miss"
    if cached is not None:
        value = cached.max_value if first is Player.MAX else cached.min_value
        moves = "(cached values only; rerun without --cache for moves)"
    else:
        result = solve(g, first, mode=args.mode, budget=args.budget)
        value = result.value
        moves = " ".join(_edge_str(e) for e in result.optimal_moves) or "(none)"
        if args.cache:
            other = solve(g, first.other, mode=args.mode, budget=args.budget).value
            mx, mn = (value, other) if first is Player.MAX else (other, value)
            cache_put(args.cache, CacheEntry(cert, mx, mn))
    elapsed = time.perf_counter() - start
    print(f"graph: g6={graph6.emit(g)} n={g.n} m={g.edge_count}")
    print(f"alpha_prime={alpha}")
    print(f"mu={mu}")
    print(f"player={args.player} mode={args.mode} cache={cache_state}")
    print(f"value={value}")
    print(f"optimal_moves={moves}")
    print(f"time={elapsed:.3f}s")
    return 0


# -- gen / table -------------------------------------------------------------


def cmd_gen(args) -> int:
    name, _, params = args.gen.partition(":")
    for item in family_items(name, params):
        print(graph6.emit(item.graph))
    return 0


def cmd_table(args) -> int:
    params = parse_range(args.range)
    print(f"{'n':>4} {'alpha':>6} {'mu':>4} {'Max':>4} {'Min':>4}")
    for p in params:
        g = family_items(args.gen, str(p))[0].graph
        mx, mn = game_values(g, mode=args.mode, budget=args.budget)
        print(
            f"{g.n:>4} {matching_number(g):>6} {min_maximal_number(g):>4} "
            f"{mx:>4} {mn:>4}"
        )
    return 0


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .verify import CHECKS, run_check, write_records

    if args.check not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        print(f"error: unknown check {args.check!r}; available: {known}", file=sys.stderr)
        return 2
    corpus = corpus_from_spec(args.corpus)
    report = run_check(
        args.check, corpus, mode=args.mode, budget=args.budget, jobs=args.jobs
    )
    if args.records:
        write_records(report, args.records)
    for v in report.violations:
        print(f"violation: {v.witness}  expected {v.expected}  got {v.actual}")
    unit = "classes" if args.corpus.split(":", 1)[0] in ("exhaustive", "trees", "cubic") else "instances"
    if report.passed:
        print(f"{report.check}: pass ({report.instances} {unit}) [{report.seconds:.1f}s]")
        return 0
    print(
        f"{report.check}: fail ({report.instances} {unit}, "
        f"{len(report.violations)} violations) [{report.seconds:.1f}s]"
    )
    return 1


# -- play ----------------------------------------------------------------------


class InteractiveStrategy(Strategy):
    """Prompts for moves as 'u v' in root vertex ids; EOF aborts."""

    name = "interactive"

    def choose(self, state: GameState):
        print(f"legal moves: {' '.join(_edge_str(e) for e in state.moves)}")
        while True:
            try:
                line = input(f"{state.to_move} move (u v)> ")
            except EOFError:
                raise PlayAborted(tuple(e for e, _ in state.history)) from None
            fields = line.split()
            if len(fields) == 2 and all(f.lstrip("-").isdigit() for f in fields):
                u, v = sorted((int(fields[0]), int(fields[1])))
                if (u, v) in state.moves:
                    return (u, v)
            print(f"illegal move {line.strip()!r}; pick one of the legal moves")


def _print_transcript(moves, first: Player) -> None:
    who = first
    for i, mv in enumerate(moves, start=1):
        print(f"{i}. {who} {_edge_str(mv)}")
        who = who.other


def cmd_play(args) -> int:
    g = _load_graph(args)
    first = _player(args.start)

    def side(spec: str, which: str) -> Strategy:
        if args.interactive == which:
            return InteractiveStrategy()
        return make_strategy(spec, seed=args.seed, mode=args.mode)

    strat_first = side(args.first, "first")
    strat_second = side(args.second, "second")
    print(f"game on g6={graph6.emit(g)} n={g.n} start={args.start}")
    try:
        transcript: Transcript = play(g, first, strat_first, strat_second)
    except PlayAborted as exc:
        _print_transcript(exc.moves, first)
        print(f"aborted after {len(exc.moves)} moves: {exc}")
        return 1
    _print_transcript(transcript.moves, first)
    print(f"final size: {transcript.final_size}")
    if g.n <= COMPARE_CAP:
        try:
            value = solve(g, first, mode=args.mode, budget=args.budget).value
        except MemoBudgetError:
            print("optimal value: unavailable (memo budget)")
        else:
            tag = "matches optimal play" if value == transcript.final_size else "differs from optimal play"
            print(f"optimal value: {value} ({tag})")
    else:
        print(f"optimal value: skipped (n > {COMPARE_CAP})")
    return 0


# -- parser ----------------------------------------------------------------------


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g6", help="graph6 string")
    p.add_argument("--file", help="path to a graph6 file (first graph used)")
    p.add_argument("--gen", help="family spec NAME[:P1,P2,...]")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["subset", "iso"], default="subset")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                   help="cap on the entries of one graph's exact table, both players together")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchgame",
        description="Exact solver and strategy lab for the maximal-matching game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a game value and optimal first moves")
    _add_graph_args(p)
    _add_solver_args(p)
    p.add_argument("--player", choices=["max", "min"], default="max")
    p.add_argument("--cache", help="path to a persistent value cache")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="emit graph6 lines for a family spec")
    p.add_argument("--gen", required=True, help="family spec NAME[:P1,P2,...]; ranges LO..HI allowed")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("table", help="value table for a one-parameter family")
    p.add_argument("--gen", required=True, help="family name (one int parameter)")
    p.add_argument("--range", required=True, help="parameter range LO..HI")
    _add_solver_args(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a registered check over a corpus")
    p.add_argument("--check", required=True)
    p.add_argument("--corpus", required=True, help="corpus spec, e.g. exhaustive:5")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--records", help="write line-delimited records to this path")
    _add_solver_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("play", help="simulate (or play) one game")
    _add_graph_args(p)
    _add_solver_args(p)
    p.add_argument("--first", default="exact", help=f"one of: {', '.join(sorted(STRATEGIES))}")
    p.add_argument("--second", default="exact")
    p.add_argument("--start", choices=["max", "min"], default="max")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interactive", choices=["first", "second"],
                   help="replace that side with prompted input")
    p.set_defaults(func=cmd_play)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, graph6.Graph6Error, MemoBudgetError, StrategyForfeit, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
