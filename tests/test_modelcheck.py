import pytest

import algosim.modelcheck as mc
from algosim.consensus import bba_transition, distinct_voter_counts


# 4 to 33 members: 33 or fewer holds 99.93 % of the Binomial(100, 0.2)
# committees of fixtures/honest.cfg
SIZES = range(4, 34)


def test_vote_safety_has_no_counterexamples():
    assert mc.check_vote_safety(SIZES) == []


def test_gc_consistency_has_no_counterexamples():
    assert mc.check_gc_consistency(SIZES) == []


def test_bba_model_check_passes():
    report = mc.model_check_bba(SIZES)
    assert report.ok()
    assert report.instances > 0


def test_byzantine_budgets():
    assert [mc.max_equivocators(n) for n in (4, 5, 6, 7, 12)] == [1, 1, 2, 2, 4]
    assert [mc.max_supermajority_byzantine(n) for n in (4, 5, 6, 7)] == [1, 1, 1, 2]


def test_checker_catches_broken_majority_rule(monkeypatch):
    # Negative control: a simple >1/2 rule must violate agreement under
    # equivocation, and the checker has to find it.
    def broken(zeros, ones, n, phase, coin=None):
        if phase == 0:
            if 2 * zeros > n:
                return 0, 0
            return (1, None) if 2 * ones > n else (0, None)
        if phase == 1:
            if 2 * ones > n:
                return 1, 1
            return (0, None) if 2 * zeros > n else (1, None)
        if 2 * zeros > n:
            return 0, None
        if 2 * ones > n:
            return 1, None
        return coin, None

    monkeypatch.setattr(mc, "bba_transition", broken)
    report = mc.model_check_bba(sizes=(4, 5, 6, 7))
    assert report.agreement_violations


def test_checker_catches_a_rule_that_never_decides(monkeypatch):
    # Negative control for termination: a rule that keeps every bit and
    # never decides must exhaust the step budget.
    def never_decides(zeros, ones, n, phase, coin=None):
        return (0 if zeros >= ones else 1), None

    monkeypatch.setattr(mc, "bba_transition", never_decides)
    report = mc.model_check_bba(sizes=(4, 5, 6, 7))
    assert report.termination_violations


def test_checker_catches_biased_grading(monkeypatch):
    # Negative control for the graded-consistency checker: grading at >1/2
    # instead of >2/3 lets {0,2} splits through.
    from algosim.consensus import GradedValue

    def broken_grade(relays, committee_size):
        counts = {}
        for m in relays:
            counts.setdefault(m.value, set()).add(m.voter)
        if not counts:
            return GradedValue(None, 0)
        value, voters = max(counts.items(), key=lambda kv: len(kv[1]))
        count = len(voters)
        if 2 * count > committee_size:
            return GradedValue(value, 2)
        if 3 * count > committee_size:
            return GradedValue(value, 1)
        return GradedValue(None, 0)

    monkeypatch.setattr(mc, "gc_grade", broken_grade)
    assert mc.check_gc_consistency() != []


def test_checker_catches_two_values_graded_2(monkeypatch):
    # Negative control for the 2-vs-2 branch: grading 2 at one third lets
    # the Byzantine relayers alone (floor(n/3) of them) back a second value.
    # Above one third they never could, so that rule trips only {0, 2}.
    from algosim.consensus import GradedValue

    def third_grade(relays, committee_size):
        counts = distinct_voter_counts(relays)
        if not counts:
            return GradedValue(None, 0)
        value, count = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if 3 * count >= committee_size:
            return GradedValue(value, 2)
        return GradedValue(None, 0)

    monkeypatch.setattr(mc, "gc_grade", third_grade)
    bad = [b[:4] for b in mc.check_gc_consistency()]
    assert (6, 2, 0, "two grade-2 values") in bad


# -- mutated binary-agreement rules ---------------------------------------------
# `broken_majority` and `never_decides` are the rules of the two negative
# controls above.

def broken_majority(zeros, ones, n, phase, coin=None):
    if phase == 0:
        if 2 * zeros > n:
            return 0, 0
        return (1, None) if 2 * ones > n else (0, None)
    if phase == 1:
        if 2 * ones > n:
            return 1, 1
        return (0, None) if 2 * zeros > n else (1, None)
    if 2 * zeros > n:
        return 0, None
    if 2 * ones > n:
        return 1, None
    return coin, None


def never_decides(zeros, ones, n, phase, coin=None):
    return (0 if zeros >= ones else 1), None


def flipped(zeros, ones, n, phase, coin=None):
    """The shipped rule with its next bit and its decision inverted."""
    bit, decided = bba_transition(zeros, ones, n, phase, coin)
    return 1 - bit, None if decided is None else 1 - decided


def coin_zero(zeros, ones, n, phase, coin=None):
    """The shipped rule with the phase-2 coin always 0."""
    return bba_transition(zeros, ones, n, phase, None if coin is None else 0)


RULES = {"shipped": bba_transition, "broken": broken_majority,
         "never_decides": never_decides, "flip": flipped, "coin0": coin_zero}


def test_checker_catches_a_rule_that_decides_the_wrong_bit(monkeypatch):
    # Negative control for validity: unanimous inputs must decide that bit.
    monkeypatch.setattr(mc, "bba_transition", flipped)
    assert mc.model_check_bba().validity_violations


def test_checker_catches_a_coin_that_never_reunifies(monkeypatch):
    # Negative control for L1: with the coin stuck at 0, some split stays
    # split whatever the coin shows; nothing else is violated.
    monkeypatch.setattr(mc, "bba_transition", coin_zero)
    report = mc.model_check_bba()
    assert report.coin_progress_violations
    assert not (report.agreement_violations or report.validity_violations
                or report.termination_violations
                or report.unanimity_absorb_violations)


def test_checker_catches_unified_bits_that_never_decide(monkeypatch):
    # Negative control for L2: unified bits must decide within one iteration.
    monkeypatch.setattr(mc, "bba_transition", never_decides)
    assert mc.model_check_bba().unanimity_absorb_violations


def test_vote_safety_catches_a_non_strict_threshold(monkeypatch):
    # Negative control for the no-fork pigeonhole: at exactly two thirds,
    # two values can both qualify once n is a multiple of 3.
    def non_strict(messages, committee_size):
        counts = distinct_voter_counts(messages)
        qualifying = [v for v, c in counts.items()
                      if 3 * c >= 2 * committee_size]
        if not qualifying:
            return None
        return min(qualifying, key=lambda v: (-counts[v], v))

    monkeypatch.setattr(mc, "supermajority_value", non_strict)
    assert mc.check_vote_safety() == [
        (6, 2, 2, 2, 2, 2, "A", "B"),
        (9, 3, 3, 3, 3, 3, "A", "B"),
        (12, 4, 4, 4, 4, 4, "A", "B"),
    ]


# -- reference: the four successor loops the game-tree search replaced ----------

def reference_explore(n, f, report):
    h = n - f
    frontier = {((u0, h - u0, 0, 0), 0) for u0 in range(h + 1)}
    seen = set()
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
        next_phase = (phase + 1) % 3
        if phase == 2:
            unifying_coin = False
            for coin in (0, 1):
                outs = mc._observer_outcomes(state, n, f, phase, coin)
                if len({bit for bit, _ in outs}) <= 1:
                    unifying_coin = True
                for nxt in mc._successors(state, outs):
                    frontier.add((nxt, next_phase))
            if not unifying_coin:
                report.coin_progress_violations.append((n, f, state))
        else:
            outs = mc._observer_outcomes(state, n, f, phase, None)
            for nxt in mc._successors(state, outs):
                frontier.add((nxt, next_phase))
    return seen


def reference_check_validity(n, f, report):
    h = n - f
    for bit in (0, 1):
        start = (h, 0, 0, 0) if bit == 0 else (0, h, 0, 0)
        frontier = {(start, 0, 0)}
        while frontier:
            state, phase, depth = frontier.pop()
            u0, u1, d0, d1 = state
            wrong = d1 if bit == 0 else d0
            if wrong:
                report.validity_violations.append((n, f, bit, state))
                continue
            if u0 + u1 == 0:
                continue
            if depth >= 3:
                report.validity_violations.append(
                    (n, f, bit, state, "undecided"))
                continue
            coins = (0, 1) if phase == 2 else (None,)
            for coin in coins:
                outs = mc._observer_outcomes(state, n, f, phase, coin)
                for nxt in mc._successors(state, outs):
                    frontier.add((nxt, (phase + 1) % 3, depth + 1))


def reference_check_unanimity_absorbs(n, f, reachable, report):
    for state, phase in reachable:
        u0, u1, d0, d1 = state
        if u0 + u1 == 0 or (u0 > 0 and u1 > 0):
            continue
        if (u0 > 0 and d1 > 0) or (u1 > 0 and d0 > 0):
            continue
        frontier = {(state, phase, 0)}
        while frontier:
            s, ph, depth = frontier.pop()
            if s[0] + s[1] == 0:
                continue
            if depth >= 4:
                report.unanimity_absorb_violations.append((n, f, state, phase))
                continue
            coins = (0, 1) if ph == 2 else (None,)
            for coin in coins:
                outs = mc._observer_outcomes(s, n, f, ph, coin)
                for nxt in mc._successors(s, outs):
                    frontier.add((nxt, (ph + 1) % 3, depth + 1))


def reference_check_silent_termination(n, f, max_steps, report):
    h = n - f
    for u0 in range(h + 1):
        frontier = {((u0, h - u0, 0, 0), 0, 0)}
        while frontier:
            state, phase, depth = frontier.pop()
            if state[0] + state[1] == 0:
                continue
            if depth >= max_steps:
                report.termination_violations.append((n, f, u0, state))
                continue
            coins = (0, 1) if phase == 2 else (None,)
            for coin in coins:
                outs = mc._observer_outcomes(state, n, 0, phase, coin)
                for nxt in mc._successors(state, outs):
                    frontier.add((nxt, (phase + 1) % 3, depth + 1))


def reference_model_check_bba(sizes, max_steps):
    report = mc.ModelCheckReport()
    for n in sizes:
        f = mc.max_supermajority_byzantine(n)
        report.instances += n - f + 1
        reachable = reference_explore(n, f, report)
        reference_check_validity(n, f, report)
        reference_check_unanimity_absorbs(n, f, reachable, report)
        reference_check_silent_termination(n, f, max_steps, report)
    return report


VIOLATION_LISTS = ("agreement_violations", "validity_violations",
                   "termination_violations", "coin_progress_violations",
                   "unanimity_absorb_violations")


def assert_same_reports(sizes, budgets):
    for max_steps in budgets:
        new = mc.model_check_bba(sizes, max_steps)
        old = reference_model_check_bba(sizes, max_steps)
        assert new.instances == old.instances
        for name in VIOLATION_LISTS:
            entries = getattr(new, name)
            assert len(set(entries)) == len(entries), (name, max_steps)
            assert set(entries) == set(getattr(old, name)), (name, max_steps)


@pytest.mark.parametrize("rule", RULES)
def test_bba_search_matches_the_reference(monkeypatch, rule):
    # Same instances and the same distinct violations as the four loops it
    # replaced, each listed once, under the shipped rule and four mutated
    # ones; the loops list a violation once per branch that reaches it.
    monkeypatch.setattr(mc, "bba_transition", RULES[rule])
    assert_same_reports(range(4, 13), (0, 2, 5, 9))
