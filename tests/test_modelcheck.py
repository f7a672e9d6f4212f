import algosim.modelcheck as mc


def test_vote_safety_has_no_counterexamples():
    assert mc.check_vote_safety() == []


def test_gc_consistency_has_no_counterexamples():
    assert mc.check_gc_consistency() == []


def test_bba_model_check_passes():
    report = mc.model_check_bba()
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
