"""``unbounded-rpc``: interprocedural deadline-threading enforcement."""

BAD = {
    "src/repro/pkg/mod.py": """
        class Client:
            def __init__(self, network):
                self.network = network

            def _push(self, key):
                return self.network.invoke(key)

            def flush(self, keys, deadline):
                deadline.check()
                for key in keys:
                    self._push(key)
    """,
}

GOOD = {
    "src/repro/pkg/mod.py": """
        class Client:
            def __init__(self, network):
                self.network = network

            def _push(self, key, deadline):
                timeout = deadline.clamp(1.0)
                return self.network.invoke(key, timeout=timeout)

            def flush(self, keys, deadline):
                deadline.check()
                for key in keys:
                    self._push(key, deadline)
    """,
}


def findings_of(files, tmp_path):
    from tests.analysis.conftest import lint_project
    return lint_project(files, "unbounded-rpc", tmp_path)


def test_dropped_call_edge_is_flagged(tmp_path):
    findings = findings_of(BAD, tmp_path)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == "unbounded-rpc"
    assert "flush" in finding.message
    assert finding.chain, "finding must carry the witness chain"
    assert finding.chain[0].callee.endswith("Client._push")
    assert finding.chain[-1].callee == "<invoke>"


def test_forwarded_deadline_is_clean(tmp_path):
    assert findings_of(GOOD, tmp_path) == []


def test_pragma_on_dropping_call_suppresses(tmp_path):
    files = {
        "src/repro/pkg/mod.py": BAD["src/repro/pkg/mod.py"].replace(
            "self._push(key)",
            "self._push(key)  # repro-lint: disable=unbounded-rpc"),
    }
    assert findings_of(files, tmp_path) == []


def test_pragma_on_chain_frame_suppresses(tmp_path):
    # suppressing at the *RPC* frame, not the anchor, also works: any
    # frame of the chain may own the exemption
    files = {
        "src/repro/pkg/mod.py": BAD["src/repro/pkg/mod.py"].replace(
            "return self.network.invoke(key)",
            "return self.network.invoke(key)"
            "  # repro-lint: disable=unbounded-rpc"),
    }
    assert findings_of(files, tmp_path) == []


def test_deadline_dropped_only_at_one_frame(tmp_path):
    # the helper forwards correctly; only the middle frame drops —
    # exactly one finding, naming the dropping call
    files = {
        "src/repro/pkg/mod.py": """
            class Client:
                def __init__(self, network):
                    self.network = network

                def _push(self, key, deadline):
                    timeout = deadline.clamp(1.0)
                    return self.network.invoke(key, timeout=timeout)

                def _middle(self, key, deadline):
                    return self._push(key, deadline)

                def flush(self, keys, deadline):
                    deadline.check()
                    for key in keys:
                        self._middle(key, None)
        """,
    }
    findings = findings_of(files, tmp_path)
    assert len(findings) == 1
    assert "flush" in findings[0].message
