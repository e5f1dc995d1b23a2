"""atomicity-violation, direct-RPC cases: reads crossing a network
call must be re-read before driving a decision."""

from tests.analysis.conftest import lint

RULE = "atomicity-violation"


def test_check_then_act_across_invoke_flagged():
    findings = lint("""
        def advance(self):
            current = self.partition_scn
            self.net.invoke(self.relay_pull, current)
            if current < self.high_water:
                self.apply(current)
    """, RULE)
    assert [f.rule for f in findings] == [RULE]
    assert findings[0].line == 5   # the stale decision, not the read
    assert "line 4" in findings[0].message   # names the crossing call


def test_send_also_counts_as_crossing():
    findings = lint("""
        def push(self):
            leader = self.current_leader
            self.network.send(self.peer, "sync")
            if leader == self.node_id:
                self.flush()
    """, RULE)
    assert len(findings) == 1


def test_reread_after_call_is_clean():
    findings = lint("""
        def advance(self):
            current = self.partition_scn
            self.net.invoke(self.relay_pull, current)
            current = self.partition_scn
            if current < self.high_water:
                self.apply(current)
    """, RULE)
    assert findings == []


def test_decision_before_the_call_is_clean():
    findings = lint("""
        def maybe_ping(self):
            role = self.role
            if role == "leader":
                self.net.send(self.peer, "ping")
            return role
    """, RULE)
    assert findings == []


def test_rpc_result_binding_is_the_reread_not_the_bug():
    findings = lint("""
        def check(self):
            status = self.net.invoke(self.peer_status)
            if status:
                self.mark_alive()
    """, RULE)
    assert findings == []


def test_locals_not_derived_from_shared_state_are_ignored():
    findings = lint("""
        def retry(self, attempts):
            budget = attempts * 2
            self.net.invoke(self.peer_status)
            if budget > 0:
                self.again()
    """, RULE)
    assert findings == []


def test_stale_read_on_loop_back_edge_flagged():
    findings = lint("""
        def drain(self):
            pending = self.queue_depth
            while pending > 0:
                self.net.invoke(self.pop_one)
    """, RULE)
    # the while test re-runs after the RPC on the back edge, still on
    # the pre-call read: this loop can never observe the drained queue
    assert len(findings) == 1
    assert findings[0].line == 4


def test_local_recompute_counts_as_redefinition():
    findings = lint("""
        def drain(self):
            pending = self.queue_depth
            while pending > 0:
                self.net.invoke(self.pop_one)
                pending = pending - 1
    """, RULE)
    # any redefinition kills the stale path, even a local recompute
    assert findings == []


def test_pragma_suppresses():
    findings = lint("""
        def advance(self):
            current = self.partition_scn
            self.net.invoke(self.relay_pull, current)
            if current < self.high_water:  # repro-lint: disable=atomicity-violation
                self.apply(current)
    """, RULE)
    assert findings == []


def test_attribute_the_class_never_writes_flagged_in_a_method():
    findings = lint("""
        class Master:
            def advance(self):
                current = self.partition_scn
                self.net.invoke(self.relay_pull, current)
                if current < self.high_water:
                    self.apply(current)
    """, RULE)
    # a direct RPC runs the peer's handler, which may write state this
    # class never stores: every self attribute is suspect across it
    assert [f.line for f in findings] == [6]


def test_unwritten_attribute_across_an_inherited_yield_is_clean():
    findings = lint("""
        class Master:
            def _pull(self):
                self.net.invoke(self.relay_pull)

            def advance(self):
                current = self.partition_scn
                self._pull()
                if current < self.high_water:
                    self.apply(current)
    """, RULE)
    assert findings == []


def test_written_attribute_across_an_inherited_yield_flagged():
    findings = lint("""
        class Master:
            def _pull(self):
                self.net.invoke(self.relay_pull)

            def commit(self, scn):
                self.partition_scn = scn

            def advance(self):
                current = self.partition_scn
                self._pull()
                if current < self.high_water:
                    self.apply(current)
    """, RULE)
    assert [f.line for f in findings] == [12]
    assert "line 11" in findings[0].message
