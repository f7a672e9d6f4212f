"""Exhaustive small-scope checks of the threshold-voting core.

Committees of 4 to 33 members (the test suite checks all of these; 33 or
fewer holds 99.93 % of the Binomial(100, 0.2) committees of honest.cfg) are
small enough to enumerate every Byzantine behaviour directly, so the
safety claims the protocol rests on are checked by brute force rather than
argued:

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
  binary-agreement check reads one breadth-first search of one game tree:
  `_moves` is its next-move generator and `_search` the search, which
  expands each node once per depth.  Each violation is listed once.

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
        votes = {x: [_Msg(f + i, x) for i in range(h)] for x in "ABC"}
        equivocal = {x: [_Msg(i, x) for i in range(f)] for x in "AB"}
        for a in range(h + 1):
            for b in range(h + 1 - a):
                honest = votes["A"][:a] + votes["B"][a:a + b] + votes["C"][a + b:]
                # each observer's result per number of equivocators voting to it
                r1s, r2s = ([supermajority_value(honest + equivocal[x][:z], n)
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
        honest = [_Msg(i, "x") for i in range(h)]
        xs, ys = ([_Msg(h + i, v) for i in range(f)] for v in "xy")
        for hx in range(h + 1):
            outcomes = set()
            for bx in range(f + 1):
                for by in range(f + 1):
                    g = gc_grade(honest[:hx] + xs[:bx] + ys[:by], n)
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


def _search(starts, n: int, f: int, k: int | None = None,
            stop=lambda state: False):
    """The one game-tree search: breadth first from the (state, phase) nodes
    `starts` under an adversary budget of f.

    A branch ends where `stop(state)` holds, where every honest member has
    decided, or at depth k (never when k is None).  Each node is expanded
    once per depth, or once overall when k is None.  Yields, in first-found
    order, (node, None) for each branch end and (node, outs) for each
    expanded node, outs being its observer outcomes per coin.
    """
    layer = dict.fromkeys(starts)
    seen = set()
    depth = 0
    while layer:
        if k is None:
            seen.update(layer)
        following = {}
        for node in layer:
            state, phase = node
            if stop(state) or state[0] + state[1] == 0 or depth == k:
                yield node, None
                continue
            outs = []
            for coin_outs, nodes in _moves(state, n, f, phase):
                outs.append(coin_outs)
                following.update((m, None) for m in nodes if m not in seen)
            yield node, outs
        layer = following
        depth += 1


def model_check_bba(sizes=(4, 5, 6, 7), max_steps: int = 9) -> ModelCheckReport:
    """Exhaustively check agreement, validity and termination at small sizes.

    The closure of `_search` from every initial split checks agreement and
    L1.  Its bounded runs check validity (unanimous inputs decide that bit
    within one iteration), L2 (every reachable unified state decides within
    one iteration) and termination (with the Byzantine voters crash-silent,
    an adversary budget of 0, every initial split decides within
    `max_steps` steps).  Entries are listed in first-found order.
    """
    report = ModelCheckReport()
    for n in sizes:
        f = max_supermajority_byzantine(n)
        h = n - f
        report.instances += h + 1
        splits = [((u0, h - u0, 0, 0), 0) for u0 in range(h + 1)]
        reachable = list(_search(splits, n, f, stop=lambda s: s[2] and s[3]))
        # dict.fromkeys: a state split at several phases is one entry
        report.agreement_violations += dict.fromkeys(
            (n, f, state) for (state, _), outs in reachable
            if outs is None and state[2] and state[3])
        report.coin_progress_violations += [
            (n, f, state) for (state, phase), outs in reachable
            if phase == 2 and outs
            and all(len({bit for bit, _ in o}) > 1 for o in outs)]
        for bit, start in ((0, splits[h]), (1, splits[0])):
            ends = [state for (state, _), outs in
                    _search([start], n, f, 3, lambda s: s[3 - bit])
                    if outs is None]
            # a wrong decision can end branches at several depths
            report.validity_violations += dict.fromkeys(
                (n, f, bit, s) if s[3 - bit] else (n, f, bit, s, "undecided")
                for s in ends if s[3 - bit] or s[0] + s[1])
        for node, _ in reachable:
            u0, u1, d0, d1 = node[0]
            if u0 + u1 == 0 or (u0 and u1) or (u0 and d1) or (u1 and d0):
                continue  # not unified; inconsistent mixes are agreement's problem
            if any(outs is None and state[0] + state[1]
                   for (state, _), outs in _search([node], n, f, 4)):
                report.unanimity_absorb_violations.append((n, f) + node)
        for u0, start in enumerate(splits):
            report.termination_violations += [
                (n, f, u0, state)
                for (state, _), outs in _search([start], n, 0, max_steps)
                if outs is None and state[0] + state[1]]
    return report
