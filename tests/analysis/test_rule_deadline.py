"""unbounded-rpc, per-function cases: an accepted deadline must reach
the function's own network work.  Positives, negatives, suppression."""

from tests.analysis.conftest import lint

RULE = "unbounded-rpc"


def test_dropped_deadline_param_flagged():
    findings = lint("""
        def fetch(self, key, deadline=None):
            result, _ = self.network.invoke("c", "s", self.fn, key)
            return result
    """, RULE)
    assert [f.rule for f in findings] == [RULE]
    assert "fetch" in findings[0].message


def test_annotated_deadline_param_flagged():
    findings = lint("""
        def fetch(self, key, budget: Deadline):
            return call_with_retries(lambda: self.do(key), clock=self.clock)
    """, RULE)
    assert len(findings) == 1
    assert "budget" in findings[0].message


def test_clamped_deadline_is_clean():
    findings = lint("""
        def fetch(self, key, deadline=None):
            timeout = None if deadline is None else deadline.clamp(0.5)
            result, _ = self.network.invoke("c", "s", self.fn, key,
                                            timeout=timeout)
            return result
    """, RULE)
    assert findings == []


def test_forwarded_deadline_is_clean():
    findings = lint("""
        def fetch(self, key, deadline=None):
            return self.network.invoke("c", "s", self.inner, key,
                                       deadline=deadline)
    """, RULE)
    assert findings == []


def test_no_network_work_is_clean():
    # interface-conformance parameter with purely local work
    findings = lint("""
        def resolve(self, versions, deadline=None):
            return max(versions, key=lambda v: v.clock)
    """, RULE)
    assert findings == []


def test_deadline_read_in_nested_scope_is_clean():
    findings = lint("""
        def fetch(self, key, deadline=None):
            def attempt():
                deadline.check("fetch")
                return self.store.get(key)
            return call_with_retries(attempt, clock=self.clock)
    """, RULE)
    assert findings == []


def test_pragma_suppresses():
    findings = lint("""
        def fetch(self, key, deadline=None):  # repro-lint: disable=unbounded-rpc
            result, _ = self.network.invoke("c", "s", self.fn, key)
            return result
    """, RULE)
    assert findings == []


def test_unread_deadline_in_a_method_names_the_variable_and_the_call():
    findings = lint("""
        class Client:
            def fetch(self, key, deadline=None):
                result, _ = self.network.invoke("c", "s", self.fn, key)
                return result
    """, RULE)
    assert [f.line for f in findings] == [3]
    assert "'deadline'" in findings[0].message
    assert "line 4" in findings[0].message


def test_budget_closure_handed_to_call_with_retries_is_clean():
    findings = lint("""
        def fetch(self, key, budget: Deadline):
            def attempt():
                return self.network.invoke("c", "s", self.fn, key,
                                           timeout=budget.clamp(0.5))
            return call_with_retries(attempt, clock=self.clock)
    """, RULE)
    assert findings == []


def test_budget_forwarded_to_call_with_retries_is_clean():
    findings = lint("""
        def fetch(self, key, budget: Deadline):
            return call_with_retries(lambda: self.do(key),
                                     clock=self.clock, deadline=budget)
    """, RULE)
    assert findings == []


def test_retried_rpc_without_the_budget_flagged():
    findings = lint("""
        def fetch(self, key, budget: Deadline):
            budget.check("fetch")
            def attempt():
                return self.network.invoke("c", "s", self.fn, key)
            return call_with_retries(attempt, clock=self.clock)
    """, RULE)
    # the retried closure reaches an RPC but never sees the budget
    assert [f.line for f in findings] == [2]
    assert "line 6" in findings[0].message
