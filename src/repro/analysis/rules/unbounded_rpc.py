"""``unbounded-rpc``: a held deadline must bound every RPC it reaches.

A :class:`~repro.common.resilience.Deadline` is an end-to-end budget
created at the request edge; its value comes from every hop clamping
its own timeout to what remains.  One hop that does network work
without the budget turns "this request has 50 ms left" into "this
request has the default timeout", and the end-to-end bound the edge
promised is fiction.  The hop may be the function's own
``invoke``/``send``, a ``call_with_retries(...)``, or a helper three
frames down, and the function may read its deadline conscientiously
elsewhere or never at all.

Powered by the effect summaries: a function that receives (or
constructs) a deadline is an entry point of a bounded call chain; the
summary layer marks every RPC-reaching call site in it that reads no
deadline-tainted name.  Each finding sits on the entry point's
``def`` line, names the held deadline and the dropping call, and
carries the full witness chain (dropping call → … → concrete RPC
site); a pragma on the ``def`` line or on any frame suppresses it.
Functions that accept a deadline for interface conformance and do no
network work are clean.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.core import Finding, ProjectRule, register


@register
class UnboundedRpcRule(ProjectRule):
    name = "unbounded-rpc"
    summary = ("a held Deadline does not reach an RPC the function "
               "makes or calls into (dropped at a call site)")
    rationale = ("End-to-end latency bounds only hold if every hop clamps "
                 "to the remaining budget; one call that does network "
                 "work without the deadline unbounds the whole request.")

    def check_project(self, project) -> Iterator[Finding]:
        summaries = project.summaries
        graph = project.graph
        for qualname in sorted(summaries):
            summary = summaries[qualname]
            if not summary.drops_deadline:
                continue
            fn = graph.functions.get(qualname)
            if fn is None:
                continue
            ctx = project.context_for(fn.rel_path)
            line = fn.node.lineno
            held = ", ".join(repr(name) for name in summary.holds_deadline)
            for chain in summary.drops_deadline:
                drop = chain[0]
                rpc = chain[-1]
                where = f"{rpc.path}:{rpc.line}" \
                    if len(chain) > 1 else "this call"
                yield Finding(
                    rule=self.name, path=fn.rel_path, line=line, col=0,
                    message=(f"{_short(qualname)}() holds deadline {held} "
                             f"but calls {_short(drop.callee)} on line "
                             f"{drop.line} without it; the chain reaches an "
                             f"unbounded RPC at {where} — forward the "
                             "deadline or clamp a timeout from it"),
                    snippet=ctx.line_text(line) if ctx else "",
                    end_line=line, chain=chain)


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname
