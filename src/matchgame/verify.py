"""Registered invariant checks over graph corpora.

Each check takes one corpus item and returns violations (empty means
pass).  run_check maps a check over a corpus, optionally across
processes, and aggregates a Report whose violation order is
independent of scheduling.  All rational bounds are compared in
integer arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

from . import graph6
from .canon import canonical_certificate
from .corpus import CorpusItem
from .families import disjoint_union, gadget_H, star
from .graph import (
    Graph,
    GraphError,
    is_connected,
    is_forest,
    is_linear_forest,
    split_partition,
)
from .matching import (
    _blossom_match,
    compatibility_witness,
    covered_vertices,
    covering_max_matching,
    matching_number,
    min_maximal_number,
)
from .solver import DEFAULT_BUDGET, MemoBudgetError, Player, _table, play, solve
from .strategies import (
    ExactStrategy,
    GreedyFirstStrategy,
    MaxGreedyMatchingStrategy,
    MaxMinDegStrategy,
    MinGkStrategy,
    RandomStrategy,
)


@dataclass(frozen=True)
class Violation:
    witness: str
    expected: str
    actual: str


@dataclass
class Report:
    check: str
    instances: int
    violations: list[Violation] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CheckContext:
    mode: str = "subset"
    budget: int = DEFAULT_BUDGET

    def result(self, g: Graph, first: Player):
        return _solve_cached(g, first, self.mode, self.budget)

    def values(self, g: Graph, mask: int | None = None) -> tuple[int, int]:
        """(Max, Min) of g, or of g[mask] read from g's own table."""
        if mask is None:
            return (
                self.result(g, Player.MAX).value,
                self.result(g, Player.MIN).value,
            )
        value = _table(g, self.mode, self.budget)
        return value(mask, Player.MAX), value(mask, Player.MIN)


@lru_cache(maxsize=1 << 18)
def _solve_cached(g: Graph, first: Player, mode: str, budget: int):
    return solve(g, first, mode=mode, budget=budget)


@lru_cache(maxsize=1 << 18)
def _alpha(g: Graph) -> int:
    return matching_number(g)


@lru_cache(maxsize=1 << 16)
def _mu(g: Graph) -> int:
    return min_maximal_number(g)


def _w(item: CorpusItem) -> str:
    return graph6.emit(item.graph)


# -- value comparisons ---------------------------------------------------


def check_diff_le_one(item, ctx):
    mx, mn = ctx.values(item.graph)
    if abs(mx - mn) > 1:
        return [Violation(_w(item), "|Max - Min| <= 1", f"Max={mx} Min={mn}")]
    return []


def check_monotone_delete(item, ctx):
    g = item.graph
    mx, mn = ctx.values(g)
    out = []
    for v in range(g.n):
        sx, sn = ctx.values(g, g.vertex_mask & ~(1 << v))
        if sx > mx or sn > mn:
            out.append(
                Violation(
                    _w(item),
                    f"deleting vertex {v} never raises a value",
                    f"Max {mx}->{sx} Min {mn}->{sn}",
                )
            )
    return out


def check_delete_drop_le2(item, ctx):
    g = item.graph
    mx, mn = ctx.values(g)
    out = []
    for v in range(g.n):
        sx, sn = ctx.values(g, g.vertex_mask & ~(1 << v))
        if sx < mx - 2 or sn < mn - 2:
            out.append(
                Violation(
                    _w(item),
                    f"deleting vertex {v} drops each value by at most 2",
                    f"Max {mx}->{sx} Min {mn}->{sn}",
                )
            )
    return out


def check_trivial_bounds(item, ctx):
    g = item.graph
    mx, mn = ctx.values(g)
    lo, hi = _mu(g), _alpha(g)
    if lo <= mn <= hi and lo <= mx <= hi:
        return []
    return [Violation(_w(item), f"mu={lo} <= values <= alpha'={hi}", f"Max={mx} Min={mn}")]


def check_lower_two_thirds(item, ctx):
    mx, _ = ctx.values(item.graph)
    a = _alpha(item.graph)
    if 3 * mx < 2 * a:
        return [Violation(_w(item), f"3*Max >= 2*alpha'={2 * a}", f"3*Max={3 * mx}")]
    return []


def check_upper_mu(item, ctx):
    mx, mn = ctx.values(item.graph)
    m = _mu(item.graph)
    out = []
    if mx - 1 > mn:
        out.append(Violation(_w(item), "Max - 1 <= Min", f"Max={mx} Min={mn}"))
    if 2 * mn > 3 * m:
        out.append(Violation(_w(item), f"2*Min <= 3*mu={3 * m}", f"2*Min={2 * mn}"))
    return out


def check_compat_equality(item, ctx):
    g = item.graph
    a = _alpha(g)
    witness = compatibility_witness(g, alpha=a)
    if witness.status != "found":
        return []
    mx, mn = ctx.values(g)
    if mx == mn == a:
        return []
    return [
        Violation(
            _w(item),
            f"compatible maximum matching forces Max=Min=alpha'={a}",
            f"Max={mx} Min={mn}",
        )
    ]


def check_split_ceiling(item, ctx):
    part = split_partition(item.graph)
    if part is None:
        return []
    _, t_set = part
    bound = (2 * len(t_set) + 2) // 3  # ceil(2|T|/3)
    mx, _ = ctx.values(item.graph)
    if mx > bound:
        return [Violation(_w(item), f"split graph: Max <= ceil(2|T|/3)={bound}", f"Max={mx}")]
    return []


def check_edge_extremal_k1(item, ctx):
    g = item.graph
    if _alpha(g) != 3:
        return []
    mx, _ = ctx.values(g)
    if mx != 2:
        return []
    cap = 3 + 3 * (g.n - 3)
    if g.edge_count > cap:
        return [
            Violation(
                _w(item),
                f"alpha'=3 and Max=2 imply at most {cap} edges",
                f"{g.edge_count} edges",
            )
        ]
    return []


def check_matching_lemmas(item, ctx):
    g = item.graph
    out = []
    a = _alpha(g)
    degs = [g.degree(v) for v in range(g.n)]
    delta = min(degs) if degs else 0
    floor_half = g.n // 2
    if a < min(floor_half, delta):
        out.append(
            Violation(
                _w(item),
                f"alpha' >= min(n//2, delta)={min(floor_half, delta)}",
                f"alpha'={a}",
            )
        )
    if g.n >= 2 and delta >= floor_half + 1:
        for u, v in g.edges():
            rest = len(_blossom_match(g, g.vertex_mask & ~(1 << u | 1 << v)))
            if 1 + rest < floor_half:
                out.append(
                    Violation(
                        _w(item),
                        f"min degree {delta} puts every edge in a matching of size {floor_half}",
                        f"edge {u}-{v} extends only to {1 + rest}",
                    )
                )
    for v in range(g.n):
        if g.degree(v) == 0:
            continue
        m = covering_max_matching(g, v, a)
        if len(m) != a or v not in covered_vertices(m):
            out.append(
                Violation(
                    _w(item),
                    f"some maximum matching covers vertex {v}",
                    f"got size {len(m)}, covers={v in covered_vertices(m)}",
                )
            )
    return out


# -- forest checks -------------------------------------------------------


def check_forest_three_quarters(item, ctx):
    g = item.graph
    if not is_forest(g):
        return []
    mx, _ = ctx.values(g)
    a = _alpha(g)
    if 4 * mx < 3 * a:
        return [Violation(_w(item), f"forest: 4*Max >= 3*alpha'={3 * a}", f"4*Max={4 * mx}")]
    return []


def check_forest_min_le_max(item, ctx):
    g = item.graph
    if not is_forest(g):
        return []
    mx, mn = ctx.values(g)
    if mn > mx:
        return [Violation(_w(item), "forest: Min <= Max", f"Max={mx} Min={mn}")]
    return []


def check_star_addition(item, ctx):
    g = item.graph
    if not is_forest(g):
        return []
    mx, mn = ctx.values(g)
    out = []
    for t in (1, 2, 3):
        hx, hn = ctx.values(disjoint_union(g, star(t)))
        if (hx, hn) != (mx + 1, mn + 1):
            out.append(
                Violation(
                    _w(item),
                    f"adding K_1_{t} raises both values by one: ({mx + 1},{mn + 1})",
                    f"({hx},{hn})",
                )
            )
    return out


def check_optimal_move_transfer(item, ctx):
    g = item.graph
    if not is_forest(g):
        return []
    out = []
    for player in (Player.MAX, Player.MIN):
        base = set(ctx.result(g, player).optimal_moves)
        for t in (1, 2, 3):
            big = set(ctx.result(disjoint_union(g, star(t)), player).optimal_moves)
            missing = sorted(base - big)
            if missing:
                out.append(
                    Violation(
                        _w(item),
                        f"{player} optimal first moves stay optimal after adding K_1_{t}",
                        f"moves {missing} no longer optimal",
                    )
                )
    return out


# -- family-specific checks ----------------------------------------------


def check_path_values(item, ctx):
    g = item.graph
    if not (is_linear_forest(g) and is_connected(g)):
        return []
    mx, _ = ctx.values(g)
    lo, hi = 3 * (g.n // 7), 3 * ((g.n + 6) // 7)
    if lo <= mx <= hi:
        return []
    return [Violation(_w(item), f"{lo} <= Max(P_{g.n}) <= {hi}", f"Max={mx}")]


def check_regular_lower(item, ctx):
    g = item.graph
    if g.n == 0 or not is_connected(g):
        return []
    degs = {g.degree(v) for v in range(g.n)}
    if len(degs) != 1:
        return []
    r = degs.pop()
    if r < 1:
        return []
    mx, _ = ctx.values(g)
    if (4 * r - 3) * mx < r * g.n - 2:
        return [
            Violation(
                _w(item),
                f"connected {r}-regular: (4r-3)*Max >= rn-2 = {r * g.n - 2}",
                f"(4r-3)*Max={(4 * r - 3) * mx}",
            )
        ]
    return []


_EXPECTED_PAIRS = {
    "clique_pendant": lambda r: (r, r - 1),
    "K_minusPM": lambda k: (2 * k, 2 * k + 1),
    "twin_cliques": lambda k: (2 * k - 1, 2 * k),
}


def check_realizable_pairs(item, ctx):
    if item.family in _EXPECTED_PAIRS:
        want = _EXPECTED_PAIRS[item.family](item.params[0])
    elif item.family == "complete" and item.params[0] % 2 == 0:
        want = (item.params[0] // 2, item.params[0] // 2)
    else:
        return []
    got = ctx.values(item.graph)
    if got != want:
        return [Violation(_w(item), f"(Max,Min)={want}", f"(Max,Min)={got}")]
    return []


def check_deletion_drop_sharp(item, ctx):
    # rK2 + C6 with vertex 0 an isolated-edge endpoint: the Max value
    # drops by exactly 2 at r=1 and the Min value at r=2.
    if item.family != "rK2_C6":
        return []
    r = item.params[0]
    if r not in (1, 2):
        return []
    g = item.graph
    mx, mn = ctx.values(g)
    sx, sn = ctx.values(g, g.vertex_mask & ~1)
    if r == 1 and mx - sx != 2:
        return [Violation(_w(item), f"Max drops by exactly 2 from {mx}", f"Max={sx}")]
    if r == 2 and mn - sn != 2:
        return [Violation(_w(item), f"Min drops by exactly 2 from {mn}", f"Min={sn}")]
    return []


def check_krr_product_pm(item, ctx):
    g = item.graph
    mx, mn = ctx.values(g)
    a = _alpha(g)
    if mx == mn == a == g.n // 2 and g.n % 2 == 0:
        return []
    return [
        Violation(
            _w(item),
            f"forced perfect matching: Max=Min=alpha'={g.n // 2}",
            f"Max={mx} Min={mn} alpha'={a}",
        )
    ]


def check_paw_product_no_pm(item, ctx):
    g = item.graph
    mx, mn = ctx.values(g)
    if mx < g.n // 2 and mn < g.n // 2:
        return []
    return [
        Violation(
            _w(item),
            f"no forced perfect matching: both values < {g.n // 2}",
            f"Max={mx} Min={mn}",
        )
    ]


def _baseline_max_suite(include_exact: bool):
    suite = [GreedyFirstStrategy()]
    suite.extend(RandomStrategy(seed=s) for s in range(20))
    suite.append(MaxMinDegStrategy())
    suite.append(MaxGreedyMatchingStrategy())
    if include_exact:
        suite.append(ExactStrategy())
    return suite


def check_gk_strategy_bound(item, ctx):
    if item.family == "cubic_tree":
        k = item.params[0]
        a = _alpha(item.graph)
        if a > 2**k - 1:
            return [Violation(_w(item), f"alpha'(T_{k}) <= {2**k - 1}", f"alpha'={a}")]
        return []
    if item.family != "G_k":
        return []
    k = item.params[0]
    bound = 7 * 2**k - 1
    out = []
    for strat in _baseline_max_suite(include_exact=(k == 0)):
        transcript = play(item.graph, Player.MAX, strat, MinGkStrategy())
        if transcript.final_size > bound:
            out.append(
                Violation(
                    _w(item),
                    f"min_gk holds any Max to <= {bound}",
                    f"{strat.name} reached {transcript.final_size}",
                )
            )
    return out


def check_gadget_H_values(item, ctx):
    g = item.graph
    if g.n != 16 or canonical_certificate(g) != canonical_certificate(gadget_H()):
        return []
    mx, mn = ctx.values(g)
    if (mx, mn) != (6, 6):
        return [Violation(_w(item), "(Max,Min)=(6,6)", f"(Max,Min)=({mx},{mn})")]
    return []


CHECKS = {
    "diff_le_one": check_diff_le_one,
    "monotone_delete": check_monotone_delete,
    "delete_drop_le2": check_delete_drop_le2,
    "trivial_bounds": check_trivial_bounds,
    "lower_two_thirds": check_lower_two_thirds,
    "upper_mu": check_upper_mu,
    "compat_equality": check_compat_equality,
    "split_ceiling": check_split_ceiling,
    "edge_extremal_k1": check_edge_extremal_k1,
    "matching_lemmas": check_matching_lemmas,
    "forest_three_quarters": check_forest_three_quarters,
    "forest_min_le_max": check_forest_min_le_max,
    "star_addition": check_star_addition,
    "optimal_move_transfer": check_optimal_move_transfer,
    "path_values": check_path_values,
    "regular_lower": check_regular_lower,
    "realizable_pairs": check_realizable_pairs,
    "deletion_drop_sharp": check_deletion_drop_sharp,
    "krr_product_pm": check_krr_product_pm,
    "paw_product_no_pm": check_paw_product_no_pm,
    "gk_strategy_bound": check_gk_strategy_bound,
    "gadget_H_values": check_gadget_H_values,
}


def _check_item(check_id: str, item: CorpusItem, ctx: CheckContext) -> list[Violation]:
    try:
        return CHECKS[check_id](item, ctx)
    except MemoBudgetError as exc:
        return [Violation(_w(item), "solve within memo budget", f"error: {exc}")]


def run_check(
    check_id: str,
    corpus: list[CorpusItem],
    mode: str = "subset",
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> Report:
    if check_id not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        raise GraphError(f"unknown check {check_id!r}; available: {known}")
    ctx = CheckContext(mode=mode, budget=budget)
    start = time.perf_counter()
    violations: list[Violation] = []
    if jobs > 1:
        # imported here, so one-process runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for vios in pool.map(
                _check_item,
                [check_id] * len(corpus),
                corpus,
                [ctx] * len(corpus),
                chunksize=max(1, len(corpus) // (4 * jobs) or 1),
            ):
                violations.extend(vios)
    else:
        for item in corpus:
            violations.extend(_check_item(check_id, item, ctx))
    violations.sort(key=lambda v: (v.witness, v.expected, v.actual))
    return Report(
        check=check_id,
        instances=len(corpus),
        violations=violations,
        seconds=time.perf_counter() - start,
    )


def write_records(report: Report, path: str) -> None:
    """One tab-separated record per violation plus a summary line."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in report.violations:
            fh.write(f"{report.check}\t{v.witness}\t{v.expected}\t{v.actual}\tfail\n")
        status = "pass" if report.passed else "fail"
        fh.write(
            f"{report.check}\t-\tinstances={report.instances}\t"
            f"violations={len(report.violations)}\t{status}\n"
        )
