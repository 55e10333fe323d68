"""Forward abstract interpretation computing logical contexts.

The derivation system consumes a logical context Γ at every weakening site
(branch joins, loop heads, call post-points, function entries).  The paper
obtains these with an interprocedural numeric analysis over APRON; we run a
forward fixpoint over :class:`repro.logic.context.Context` (conjunctions of
linear inequalities) with:

* exact strongest postconditions for linear assignments,
* support bounds for sampling,
* mutual-entailment joins at branch merges,
* loop invariants by decreasing iteration from a candidate set (entry facts
  plus user-annotated ``inv(...)`` conditions, each checked for entry
  validity and body preservation),
* call transfer by havocking the callee's transitive modset and meeting with
  the callee's exit context (computed by an outer fixpoint over the call
  graph; function pre-conditions are *checked* at call sites and reported).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast import (
    Assign,
    Call,
    IfBranch,
    NondetBranch,
    ProbBranch,
    Program,
    Sample,
    Seq,
    Skip,
    Stmt,
    Tick,
    While,
)
from repro.lang.varinfo import ProgramInfo
from repro.logic.context import Context
from repro.logic.linear import cond_to_ineqs

_MAX_LOOP_ITERS = 8
_MAX_GLOBAL_ITERS = 3


@dataclass
class ContextMap:
    """Per-node logical contexts plus per-function summaries.

    The maps are keyed by the statement objects themselves (AST nodes hash
    by identity), so a map pickled together with its program, as the
    artifact cache stores it, still finds every node of the unpickled
    program.
    """

    pre: dict[Stmt, Context] = field(default_factory=dict)
    post: dict[Stmt, Context] = field(default_factory=dict)
    loop_head: dict[While, Context] = field(default_factory=dict)
    fun_pre: dict[str, Context] = field(default_factory=dict)
    fun_exit: dict[str, Context] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def pre_of(self, node: Stmt) -> Context:
        return self.pre.get(node, Context.top())

    def post_of(self, node: Stmt) -> Context:
        return self.post.get(node, Context.top())

    def head_of(self, node: While) -> Context:
        return self.loop_head.get(node, Context.top())


class _Analyzer:
    def __init__(self, program: Program, info: ProgramInfo):
        self.program = program
        self.info = info
        self.cmap = ContextMap()
        for name, fun in program.functions.items():
            self.cmap.fun_pre[name] = Context.of_conds(fun.pre, info.integer_vars)
            self.cmap.fun_exit[name] = Context.top(info.integer_vars)
        self._record = False

    # -- driver ------------------------------------------------------------------

    def run(self) -> ContextMap:
        for iteration in range(_MAX_GLOBAL_ITERS):
            changed = False
            for name in sorted(self.info.reachable):
                fun = self.program.fun(name)
                exit_ctx = self.transfer(fun.body, self.cmap.fun_pre[name])
                old = self.cmap.fun_exit[name]
                if repr(exit_ctx) != repr(old):
                    self.cmap.fun_exit[name] = exit_ctx
                    changed = True
            if not changed:
                break
        # Final recording pass with stable function summaries.
        self._record = True
        self.cmap.warnings.clear()
        for name in sorted(self.info.reachable):
            fun = self.program.fun(name)
            self.transfer(fun.body, self.cmap.fun_pre[name])
        return self.cmap

    # -- transfer ------------------------------------------------------------------

    def transfer(self, stmt: Stmt, ctx: Context) -> Context:
        if self._record:
            self.cmap.pre[stmt] = ctx
        out = self._transfer(stmt, ctx)
        if self._record:
            self.cmap.post[stmt] = out
        return out

    def _transfer(self, stmt: Stmt, ctx: Context) -> Context:
        if isinstance(stmt, (Skip, Tick)):
            return ctx
        if isinstance(stmt, Assign):
            return ctx.assign(stmt.var, stmt.expr)
        if isinstance(stmt, Sample):
            return ctx.sample(stmt.var, stmt.dist.support())
        if isinstance(stmt, Seq):
            for s in stmt.stmts:
                ctx = self.transfer(s, ctx)
            return ctx
        if isinstance(stmt, ProbBranch):
            left = self.transfer(stmt.then_branch, ctx)
            right = self.transfer(stmt.else_branch, ctx)
            if stmt.prob >= 1.0:
                return left
            if stmt.prob <= 0.0:
                return right
            return left.join(right)
        if isinstance(stmt, NondetBranch):
            left = self.transfer(stmt.left, ctx)
            right = self.transfer(stmt.right, ctx)
            return left.join(right)
        if isinstance(stmt, IfBranch):
            then_in = ctx.assume(stmt.cond)
            else_in = ctx.assume(stmt.cond.negate())
            left = self.transfer(stmt.then_branch, then_in)
            right = self.transfer(stmt.else_branch, else_in)
            return left.join(right)
        if isinstance(stmt, While):
            return self._transfer_while(stmt, ctx)
        if isinstance(stmt, Call):
            return self._transfer_call(stmt, ctx)
        raise TypeError(f"unknown statement {stmt!r}")

    def _transfer_while(self, stmt: While, ctx: Context) -> Context:
        candidates = list(ctx.ineqs)
        for cond in stmt.invariant:
            ineqs = cond_to_ineqs(cond, ctx.integer_vars)
            if ineqs is None:
                continue
            for g in ineqs:
                if ctx.entails(g):
                    if g not in candidates:
                        candidates.append(g)
                elif self._record:
                    self.cmap.warnings.append(
                        f"loop invariant {g!r} not entailed at loop entry; dropped"
                    )
        # Decreasing iteration: drop candidates the body does not preserve.
        record_state = self._record
        self._record = False
        try:
            for _ in range(_MAX_LOOP_ITERS):
                head = Context(tuple(candidates), False, ctx.integer_vars)
                body_in = head.assume(stmt.cond)
                body_out = self.transfer(stmt.body, body_in)
                stable = [g for g in candidates if body_out.entails(g)]
                if len(stable) == len(candidates):
                    break
                candidates = stable
        finally:
            self._record = record_state

        head = Context(tuple(candidates), False, ctx.integer_vars)
        if self._record:
            self.cmap.loop_head[stmt] = head
            self.transfer(stmt.body, head.assume(stmt.cond))
        return head.assume(stmt.cond.negate())

    def _transfer_call(self, stmt: Call, ctx: Context) -> Context:
        callee_pre = self.cmap.fun_pre[stmt.func]
        if self._record and not ctx.entails_all(callee_pre.ineqs):
            self.cmap.warnings.append(
                f"call to {stmt.func!r}: pre-condition {callee_pre!r} "
                f"not entailed by call-site context {ctx!r}"
            )
        havocked = ctx.havoc(self.info.modset(stmt.func))
        return havocked.meet(self.cmap.fun_exit[stmt.func])


def compute_contexts(program: Program, info: ProgramInfo) -> ContextMap:
    """Run the interprocedural context analysis over all reachable functions."""
    return _Analyzer(program, info).run()
