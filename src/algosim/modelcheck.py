"""Exhaustive small-scope checks of the threshold-voting core.

Committees of size 4..12 are small enough to enumerate every Byzantine
behaviour directly, so the safety claims the protocol rests on are checked by
brute force rather than argued:

* vote safety: with at most floor(n/3) equivocating voters, no two distinct
  values can both clear the strict 2n/3 distinct-voter threshold, even when
  the equivocators show different vote sets to different observers;
* graded consistency: no two honest graders can end with grades {0, 2} or
  with grade 2 on different values;
* binary agreement: agreement and validity hold under every per-recipient
  Byzantine message pattern and every coin sequence; termination within the
  step budget holds for every non-equivocating instance, and two structural
  lemmas (checked here too) bound the equivocating case: some coin value
  always reunifies the honest bits (L1), and unified bits are decided within
  one iteration no matter what the adversary sends (L2).  Every
  binary-agreement check walks one game tree: `_moves` is its next-move
  generator and `_search` its bounded "every branch decides within k steps"
  search.

The Byzantine model: an equivocator may send any bit, or nothing, to each
honest recipient independently at every step.  Honest participants broadcast,
so their messages are common to all observers.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

from .consensus import bba_transition, gc_grade, supermajority_value

_Msg = namedtuple("_Msg", "voter value")


def max_equivocators(n: int) -> int:
    """Largest Byzantine count the no-fork pigeonhole tolerates."""
    return n // 3


def max_supermajority_byzantine(n: int) -> int:
    """Largest Byzantine count that keeps honest members above 2n/3."""
    return (n + 2) // 3 - 1


@dataclass
class ModelCheckReport:
    instances: int = 0
    agreement_violations: list = field(default_factory=list)
    validity_violations: list = field(default_factory=list)
    termination_violations: list = field(default_factory=list)
    coin_progress_violations: list = field(default_factory=list)
    unanimity_absorb_violations: list = field(default_factory=list)

    def ok(self) -> bool:
        return not (self.agreement_violations or self.validity_violations
                    or self.termination_violations
                    or self.coin_progress_violations
                    or self.unanimity_absorb_violations)


# -- vote safety (the no-fork pigeonhole) -------------------------------------

def check_vote_safety(sizes=range(4, 13)) -> list[tuple]:
    """Search for two observers finalizing different values.

    Two observers share the honest votes; each equivocator may vote A to one
    observer and B to the other (or abstain).  Runs the shipped
    supermajority rule on both observer multisets.  Returns counterexamples.
    """
    bad = []
    for n in sizes:
        f = max_equivocators(n)
        h = n - f
        for a in range(h + 1):
            for b in range(h + 1 - a):
                honest = [_Msg(f + i, "A" if i < a else "B" if i < a + b else "C")
                          for i in range(h)]
                # each observer's result per number of equivocators voting to it
                r1s, r2s = ([supermajority_value(
                    honest + [_Msg(i, x) for i in range(z)], n)
                    for z in range(f + 1)] for x in "AB")
                for za, r1 in enumerate(r1s):
                    for zb, r2 in enumerate(r2s):
                        if r1 is not None and r2 is not None and r1 != r2:
                            bad.append((n, f, a, b, za, zb, r1, r2))
    return bad


# -- graded consistency --------------------------------------------------------

def check_gc_consistency(sizes=(4, 5, 6, 7)) -> list[tuple]:
    """Search for honest graders ending {0,2} or 2-vs-2 on different values.

    Honest relayers can back at most one value (relaying requires a 2/3 vote
    supermajority, and two of those cannot coexist), so honest profiles are
    (hx relays for x, rest silent).  Each Byzantine relayer may send x, y,
    both or nothing to each grader independently.  The per-grader outcome set
    is computed with the shipped grading function; any combination of
    outcomes across graders is jointly reachable.
    """
    bad = []
    for n in sizes:
        f = max_equivocators(n)
        h = n - f
        for hx in range(h + 1):
            outcomes = set()
            for bx in range(f + 1):
                for by in range(f + 1):
                    relays = [_Msg(i, "x") for i in range(hx)]
                    relays += [_Msg(h + i, "x") for i in range(bx)]
                    relays += [_Msg(h + i, "y") for i in range(by)]
                    g = gc_grade(relays, n)
                    outcomes.add((g.grade, g.value))
            grade2 = {v for g, v in outcomes if g == 2}
            if len(grade2) > 1:
                bad.append((n, f, hx, "two grade-2 values", sorted(outcomes)))
            if grade2 and any(g == 0 for g, _ in outcomes):
                bad.append((n, f, hx, "grades 0 and 2 coexist", sorted(outcomes)))
    return bad


# -- binary agreement game tree --------------------------------------------------

# Honest population state: (undecided-0, undecided-1, decided-0, decided-1).
_State = tuple[int, int, int, int]


def _observer_outcomes(state: _State, n: int, f: int, phase: int,
                       coin: int | None) -> set[tuple[int, int | None]]:
    """Outcomes one undecided observer can be driven to at this step.

    The adversary picks how many Byzantine zeros/ones this observer receives;
    honest votes (decided members keep voting their decision) are fixed.
    """
    u0, u1, d0, d1 = state
    zeros_h, ones_h = u0 + d0, u1 + d1
    outs = set()
    for z in range(f + 1):
        for o in range(f + 1 - z):
            outs.add(bba_transition(zeros_h + z, ones_h + o, n, phase, coin))
    return outs


def _successors(state: _State, outs) -> list[_State]:
    """All next states: each undecided observer lands on any outcome in outs."""
    u0, u1, d0, d1 = state
    u = u0 + u1
    outs = sorted(outs, key=repr)
    results = []
    for split in _compositions(u, len(outs)):
        nu0 = nu1 = nd0 = nd1 = 0
        for count, (bit, decided) in zip(split, outs):
            if decided == 0:
                nd0 += count
            elif decided == 1:
                nd1 += count
            elif bit == 0:
                nu0 += count
            else:
                nu1 += count
        results.append((nu0, nu1, d0 + nd0, d1 + nd1))
    return results


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _moves(state: _State, n: int, f: int, phase: int):
    """The one next-move generator of the game tree.

    For each coin this step can see (0 and 1 at phase 2, None otherwise),
    yields that coin's observer outcomes under an adversary budget of f, and
    the (state, phase) nodes those outcomes lead to.
    """
    for coin in ((0, 1) if phase == 2 else (None,)):
        outs = _observer_outcomes(state, n, f, phase, coin)
        yield outs, [(nxt, (phase + 1) % 3) for nxt in _successors(state, outs)]


def _explore(n: int, f: int, report: ModelCheckReport) -> set[tuple[_State, int]]:
    """BFS to closure over all adversary patterns and both coin values.

    Returns the reachable (state, phase) set and records agreement violations
    and coin-progress (L1) failures on the way.
    """
    h = n - f
    frontier = {((u0, h - u0, 0, 0), 0) for u0 in range(h + 1)}
    seen: set[tuple[_State, int]] = set()
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        state, phase = node
        u0, u1, d0, d1 = state
        if d0 > 0 and d1 > 0:
            report.agreement_violations.append((n, f, state))
            continue
        if u0 + u1 == 0:
            continue
        unifying_coin = False
        for outs, nodes in _moves(state, n, f, phase):
            unifying_coin |= len({bit for bit, _ in outs}) <= 1
            frontier.update(nodes)
        if phase == 2 and not unifying_coin:
            report.coin_progress_violations.append((n, f, state))
    return seen


def _search(start: _State, phase: int, n: int, f: int, k: int,
            flagged=lambda state: False):
    """The one bounded search, from (start, phase) under an adversary
    budget of f: yields (state, True) for each branch state `flagged` picks
    out (that branch stops there) and (state, False) for each branch still
    undecided after k steps.  A node reached again after it was expanded is
    expanded, and reported, again."""
    frontier = {(start, phase, 0)}
    while frontier:
        state, phase, depth = frontier.pop()
        if flagged(state):
            yield state, True
            continue
        if state[0] + state[1] == 0:
            continue
        if depth >= k:
            yield state, False
            continue
        for _, nodes in _moves(state, n, f, phase):
            frontier.update((nxt, ph, depth + 1) for nxt, ph in nodes)


def model_check_bba(sizes=(4, 5, 6, 7), max_steps: int = 9) -> ModelCheckReport:
    """Exhaustively check agreement, validity and termination at small sizes.

    `_explore` checks agreement and L1.  `_search` checks validity (unanimous
    inputs decide that bit within one iteration), L2 (every reachable unified
    state decides within one iteration whatever the adversary sends) and
    termination (with the Byzantine voters crash-silent, an adversary budget
    of 0, every initial split decides within `max_steps` steps).
    """
    report = ModelCheckReport()
    for n in sizes:
        f = max_supermajority_byzantine(n)
        h = n - f
        report.instances += h + 1
        reachable = _explore(n, f, report)
        for bit in (0, 1):
            start = (h, 0, 0, 0) if bit == 0 else (0, h, 0, 0)
            for state, wrong in _search(start, 0, n, f, 3, lambda s: s[3 - bit]):
                report.validity_violations.append(
                    (n, f, bit, state) if wrong else (n, f, bit, state, "undecided"))
        for state, phase in reachable:
            u0, u1, d0, d1 = state
            if u0 + u1 == 0 or (u0 and u1) or (u0 and d1) or (u1 and d0):
                continue  # not unified; inconsistent mixes are agreement's problem
            for _ in _search(state, phase, n, f, 4):
                report.unanimity_absorb_violations.append((n, f, state, phase))
        for u0 in range(h + 1):
            for state, _ in _search((u0, h - u0, 0, 0), 0, n, 0, max_steps):
                report.termination_violations.append((n, f, u0, state))
    return report
