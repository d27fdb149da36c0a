"""Interprocedural lint rules: parallel safety (REP40x), cache
soundness (REP50x) and columnar-scoring discipline (REP607).

These rules consume the whole-program call graph
(:mod:`repro.devtools.callgraph`) and the bottom-up effect summaries
(:mod:`repro.devtools.summaries`); the driver runs them once per lint
batch, in the parent process, after the per-file rules.

REP401–REP405 guard the shared-memory parallel engine and the frozen
substrate: worker-reachable code must treat frozen context state as
read-only (REP401), never receive live RNG objects — even through helper
returns REP105's local view cannot see (REP402), only dispatch picklable
top-level callables (REP403), merge shard results in submission order,
not completion order (REP404), and never reopen a finalized on-disk CSR
store writable or force a frozen buffer's writeable flag back on
(REP405).

REP501–REP503 guard the on-disk result cache: every value that influences
a cached payload must be represented in the cache key (REP501), cache
files must be written through the atomic scratch-file + ``os.replace``
helper (REP502), and scoring-function instance state must be fixed at
``__init__`` time so ``function_tokens`` snapshots are faithful (REP503).

REP607 guards the columnar scoring pipeline: engine and service hot
paths must score batches through the shared vectorized stage
(:func:`repro.scoring.columnar.score_matrix`), never through a nested
per-(group, function) scalar ``__call__`` loop.

Like the flow rules, everything here is biased toward zero false
positives: a fact must be *provable* from the summaries before a rule
fires, and anything the intraprocedural REP105 already reports is not
re-reported by REP402.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools._base import (
    ProgramRule,
    Violation,
    _CONTAINER_MUTATORS,
)
from repro.devtools.callgraph import (
    FunctionInfo,
    Program,
    _iter_own_statements,
    _stmt_expressions,
)
from repro.devtools.dataflow import RNG, dotted_path, root_name
from repro.devtools.rules_flow import RngAcrossProcessBoundary, _looks_like_rng
from repro.devtools.summaries import CACHE_PATH, summarize

__all__ = [
    "WorkerMutatesFrozenState",
    "RngReachesProcessBoundary",
    "UnpicklableWorkerCallable",
    "CompletionOrderMerge",
    "WritableFrozenStore",
    "CacheKeyMissingInput",
    "NonAtomicCacheWrite",
    "ScoringStateTokenDrift",
    "ScalarScoringLoop",
    "INTERPROC_RULES",
]

#: Parameter names that are execution knobs, not cached-value inputs.
_CACHE_KEY_ALLOW = frozenset(
    {"self", "cls", "jobs", "executor", "cache", "store", "pool"}
)

#: Functions recognized as the sanctioned atomic cache-write helper.
_ATOMIC_WRITE_HELPERS = frozenset({"_store"})

#: numpy savers whose first argument is the destination file.
_NUMPY_SAVERS = frozenset({"save", "savez", "savez_compressed"})

#: pathlib write methods.
_PATH_WRITERS = frozenset({"write_text", "write_bytes"})


def _program_violation(
    rule: ProgramRule,
    info: FunctionInfo,
    lineno: int,
    col: int,
    message: str,
) -> Violation:
    return Violation(
        rule_id=rule.id,
        message=message,
        path=info.module.path,
        line=lineno,
        col=col,
    )


class WorkerMutatesFrozenState(ProgramRule):
    """Frozen context state is mutated somewhere a worker process runs.

    The shared-memory parallel engine exports one frozen CSR substrate and
    re-wraps it in every worker; a write into those buffers — anywhere in
    the call tree below a worker entry point — races against every other
    shard and silently corrupts results on platforms where the memory is
    genuinely shared.  The call graph finds every function reachable from
    a process dispatch (``pool.submit``/``map``, ``initializer=``,
    ``target=``) and the summaries flag in-place writes (subscript stores,
    ``fill``/``sort``/``put``, graph and container mutators) through any
    FROZEN-tagged value or a view derived from one.
    """

    id = "REP401"
    summary = "frozen context state mutated in worker-reachable code"
    example_bad = (
        "def _shard(id_lists):\n"
        "    context = _worker_context()\n"
        "    context.csr.indices[0] = -1  # shared frozen buffer\n"
        "pool.submit(_shard, id_lists)\n"
    )
    example_good = (
        "def _shard(id_lists):\n"
        "    context = _worker_context()\n"
        "    order = context.csr.indices.copy()  # private copy\n"
        "    order[0] = -1\n"
        "pool.submit(_shard, id_lists)\n"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        summaries = summarize(program)
        origin = program.reachable(program.worker_entries())
        for key in sorted(origin):
            info = program.functions[key]
            entry = program.functions[origin[key]]
            for site in summaries.summary(key).frozen_mutation_sites:
                yield _program_violation(
                    self,
                    info,
                    site.lineno,
                    site.col,
                    f"`{site.target}` is frozen context state but is "
                    f"mutated ({site.kind}) in `{info.qualname}`, which "
                    f"runs inside worker processes (reachable from "
                    f"worker entry `{entry.qualname}`); copy before "
                    "writing — frozen buffers are shared across shards",
                )


class RngReachesProcessBoundary(ProgramRule):
    """An RNG reaches an executor boundary through interprocedural flow.

    REP105 catches ``pool.submit(fn, rng)`` when the RNG is visible inside
    the dispatching function; this rule generalizes it through calls: a
    helper's *return value* carrying the RNG tag (per its summary) that is
    shipped to a worker is the same unreplayable-state hazard, one frame
    removed.  Payloads REP105 already reports are skipped, so each hazard
    is reported exactly once.
    """

    id = "REP402"
    summary = "RNG transitively shipped across an executor boundary"
    example_bad = (
        "def make_stream(seed):\n"
        "    return random.Random(seed)\n"
        "state = make_stream(seed)  # summary: returns RNG\n"
        "pool.submit(run_shard, state)\n"
    )
    example_good = (
        "seeds = spawn_child_seeds(seed, shards)\n"
        "pool.submit(run_shard, seeds[i])  # rebuild RNG in worker\n"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        summaries = summarize(program)
        for site in program.dispatch_sites:
            info = program.functions[site.caller]
            evaluator = summaries.evaluator(site.caller)
            fa = info.module.analysis.analysis_for(info.node)
            payloads: list[ast.expr] = []
            if site.kind == "executor":
                payloads.extend(site.call.args[1:])
                payloads.extend(kw.value for kw in site.call.keywords)
            else:
                payloads.extend(
                    kw.value
                    for kw in site.call.keywords
                    if kw.arg in ("initargs", "args")
                )
            for payload in payloads:
                pending = [payload]
                while pending:
                    candidate = pending.pop()
                    if isinstance(candidate, ast.Starred):
                        pending.append(candidate.value)
                        continue
                    if isinstance(candidate, (ast.Tuple, ast.List)):
                        pending.extend(candidate.elts)
                        continue
                    # Already REP105's finding: skip to avoid duplicates.
                    if RngAcrossProcessBoundary._rng_payload(
                        candidate, fa, site.stmt
                    ) is not None:
                        continue
                    if _looks_like_rng(candidate, fa, site.stmt):
                        continue
                    if RNG in evaluator.tags(candidate, site.stmt):
                        label = dotted_path(candidate) or "<rng>"
                        yield _program_violation(
                            self,
                            info,
                            site.call.lineno,
                            site.call.col_offset,
                            f"`{label}` carries RNG state (via function "
                            "summaries) and crosses a process boundary "
                            "here; ship integer child seeds "
                            "(sampling.seeds.spawn_child_seeds) and "
                            "rebuild the RNG inside the worker",
                        )
                        break


class UnpicklableWorkerCallable(ProgramRule):
    """A lambda or closure is dispatched as a worker task.

    ``spawn`` (the default on macOS/Windows, and the only portable
    contract) pickles the dispatched callable; lambdas and functions
    defined inside another function don't pickle, so the code works under
    ``fork`` on Linux and crashes everywhere else — the classic
    silently-unportable shard task.  Dispatch module-level functions only.
    """

    id = "REP403"
    summary = "unpicklable lambda/closure dispatched as a worker task"
    example_bad = (
        "def run(pool, shards):\n"
        "    task = lambda s: score(s)  # closure: fork-only\n"
        "    return [pool.submit(task, s) for s in shards]\n"
    )
    example_good = (
        "def _score_one(s):  # module level: picklable under spawn\n"
        "    return score(s)\n"
        "def run(pool, shards):\n"
        "    return [pool.submit(_score_one, s) for s in shards]\n"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        summaries = summarize(program)
        for site in program.dispatch_sites:
            info = program.functions[site.caller]
            evaluator = summaries.evaluator(site.caller)
            if site.kind == "executor":
                callables = site.call.args[:1]
            else:
                callables = [
                    kw.value
                    for kw in site.call.keywords
                    if kw.arg in ("initializer", "target")
                ]
            lambda_names = {
                stmt.targets[0].id
                for stmt in _iter_own_statements(list(info.node.body))
                if isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Lambda)
            }
            for expr in callables:
                reason: str | None = None
                if isinstance(expr, ast.Lambda):
                    reason = "a lambda"
                elif isinstance(expr, ast.Name) and expr.id in lambda_names:
                    reason = f"`{expr.id}`, bound to a lambda,"
                else:
                    for key in evaluator.call_targets(expr):
                        target = program.functions.get(key)
                        if target is not None and target.nested:
                            reason = (
                                f"`{target.qualname}`, a function defined "
                                "inside another function,"
                            )
                            break
                if reason is not None:
                    yield _program_violation(
                        self,
                        info,
                        site.call.lineno,
                        site.call.col_offset,
                        f"{reason} is dispatched as a worker task; "
                        "closures don't pickle under the spawn start "
                        "method — move the task to module level",
                    )


class CompletionOrderMerge(ProgramRule):
    """Shard results are accumulated in completion order.

    ``as_completed(...)`` and ``imap_unordered(...)`` yield results in
    whatever order workers finish — scheduling order, not submission
    order.  Appending a shard *result* (or ``+=``-reducing one: float
    addition is not associative) inside such a loop makes the merged
    value depend on machine load.  Index the results by submission
    position (``results[i] = ...``) or iterate the futures list in
    submission order instead.

    Order-insensitive accumulations are exempt, keeping the rule
    provable-only: bookkeeping that never touches a result (collecting
    the finished futures themselves under ``as_completed``, counting
    completions for progress) and accumulators that are re-sorted
    (``acc.sort()`` / ``sorted(acc)``) before use.
    """

    id = "REP404"
    summary = "non-deterministic completion-order merge of shard results"
    example_bad = (
        "for future in as_completed(futures):\n"
        "    rows.append(future.result())  # completion order\n"
    )
    example_good = (
        "for future in futures:  # submission order\n"
        "    rows.append(future.result())\n"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        for key in sorted(program.functions):
            info = program.functions[key]
            statements = list(_iter_own_statements(list(info.node.body)))
            for stmt in statements:
                if not isinstance(stmt, (ast.For, ast.AsyncFor)):
                    continue
                ordering = self._completion_ordered(stmt.iter)
                if ordering is None:
                    continue
                loop_names = self._target_names(stmt.target)
                for inner in _iter_own_statements(stmt.body):
                    found = self._accumulation(inner, loop_names, ordering)
                    if found is None:
                        continue
                    offender, accumulator = found
                    if accumulator is not None and self._resorted(
                        statements, accumulator
                    ):
                        continue
                    yield _program_violation(
                        self,
                        info,
                        offender.lineno,
                        offender.col_offset,
                        "shard results are accumulated in completion "
                        "order (the loop iterates "
                        f"`{dotted_path(stmt.iter.func) or 'as_completed'}"
                        "`); order depends on scheduling — index results "
                        "by submission position instead",
                    )
                    break

    @staticmethod
    def _completion_ordered(iterable: ast.expr) -> str | None:
        if not isinstance(iterable, ast.Call):
            return None
        func = iterable.func
        if isinstance(func, ast.Name) and func.id == "as_completed":
            return "as_completed"
        if isinstance(func, ast.Attribute) and func.attr in (
            "as_completed",
            "imap_unordered",
        ):
            return func.attr
        return None

    @staticmethod
    def _target_names(target: ast.expr) -> frozenset[str]:
        return frozenset(
            sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)
        )

    @classmethod
    def _merges_result(
        cls, expr: ast.expr, loop_names: frozenset[str], ordering: str
    ) -> bool:
        """The accumulated value provably carries a shard result.

        Under ``as_completed`` the loop variable is a *future*: only
        ``future.result()`` extractions count (collecting the futures
        themselves is order-insensitive bookkeeping).  Under
        ``imap_unordered`` the loop variable *is* the result.
        """
        if ordering == "as_completed":
            for sub in ast.walk(expr):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "result"
                    and root_name(sub.func.value) in loop_names
                ):
                    return True
            return False
        return any(
            isinstance(sub, ast.Name) and sub.id in loop_names
            for sub in ast.walk(expr)
        )

    @classmethod
    def _accumulation(
        cls, stmt: ast.stmt, loop_names: frozenset[str], ordering: str
    ) -> tuple[ast.AST, str | None] | None:
        """An order-sensitive accumulation: ``(offending node, name of
        the accumulator)`` — or ``None`` for bookkeeping."""
        if isinstance(stmt, ast.AugAssign):
            if cls._merges_result(stmt.value, loop_names, ordering):
                return stmt, root_name(stmt.target)
            return None
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute) and call.func.attr in (
                "append",
                "extend",
            ):
                payload = [*call.args, *(kw.value for kw in call.keywords)]
                if any(
                    cls._merges_result(arg, loop_names, ordering)
                    for arg in payload
                ):
                    return call, root_name(call.func.value)
        return None

    @staticmethod
    def _resorted(statements: list[ast.stmt], accumulator: str) -> bool:
        """The accumulator is re-sorted somewhere in the function, so
        completion order cannot leak into the final value."""
        for stmt in statements:
            for expr in _stmt_expressions(stmt):
                for sub in ast.walk(expr):
                    if not isinstance(sub, ast.Call):
                        continue
                    func = sub.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr == "sort"
                        and root_name(func.value) == accumulator
                    ):
                        return True
                    if (
                        isinstance(func, ast.Name)
                        and func.id == "sorted"
                        and sub.args
                        and root_name(sub.args[0]) == accumulator
                    ):
                        return True
        return False


class WritableFrozenStore(ProgramRule):
    """A frozen on-disk CSR buffer is opened writable or force-unfrozen.

    The out-of-core substrate's correctness rests on store files being
    immutable once finalized: fingerprints are computed from the bytes,
    cache keys from the fingerprints, and every attached process shares
    the same page-cache view (``docs/SCALING.md``).  A ``np.memmap``
    opened in a writable mode (``r+``/``w+``, or numpy's *default* when
    ``mode=`` is omitted) — or a ``np.load(..., mmap_mode="r+")`` — can
    silently rewrite a finalized store under every other reader, and
    flipping ``array.flags.writeable`` back to ``True`` re-arms exactly
    the aliasing that frozen-array validation exists to reject.  The
    sanctioned mutation path is :class:`repro.engine.delta.ContextDelta`
    — ``apply`` builds **new** arrays and never reopens store files —
    so its methods are the only allowlisted site.
    """

    id = "REP405"
    summary = "frozen store memmap opened writable or flags force-unfrozen"
    example_bad = (
        "data = np.memmap(store / 'union.indices.bin', dtype=np.int64)\n"
        "data[0] = -1  # default mode is 'r+': rewrites the store\n"
    )
    example_good = (
        "data = np.memmap(\n"
        "    store / 'union.indices.bin', dtype=np.int64, mode='r'\n"
        ")\n"
    )

    #: Classes whose methods may produce patched substrate arrays.
    _ALLOWED_CLASSES = frozenset({"ContextDelta"})

    #: Read-only / copy-on-write memmap modes (never write to the file).
    _SAFE_MODES = frozenset({"r", "c"})

    def check_program(self, program: Program) -> Iterator[Violation]:
        for key in sorted(program.functions):
            info = program.functions[key]
            if info.class_name in self._ALLOWED_CLASSES:
                continue
            for stmt in _iter_own_statements(list(info.node.body)):
                yield from self._unfreeze_assignment(info, stmt)
                for expr in _stmt_expressions(stmt):
                    for sub in ast.walk(expr):
                        if not isinstance(sub, ast.Call):
                            continue
                        found = self._writable_open(sub)
                        if found is None:
                            continue
                        yield _program_violation(
                            self,
                            info,
                            sub.lineno,
                            sub.col_offset,
                            f"{found} opens a file-backed array writable; "
                            "frozen CSR stores are immutable once "
                            "finalized — open with mode='r' (or 'c') and "
                            "route mutations through ContextDelta.apply",
                        )

    def _unfreeze_assignment(
        self, info: FunctionInfo, stmt: ast.stmt
    ) -> Iterator[Violation]:
        if not isinstance(stmt, ast.Assign):
            return
        if not (
            isinstance(stmt.value, ast.Constant) and stmt.value.value is True
        ):
            return
        for target in stmt.targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "writeable"
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "flags"
            ):
                yield _program_violation(
                    self,
                    info,
                    stmt.lineno,
                    stmt.col_offset,
                    f"`{dotted_path(target) or 'flags.writeable'}` is "
                    "forced back to True; frozen buffers stay read-only "
                    "— copy the array or go through ContextDelta.apply",
                )

    @classmethod
    def _writable_open(cls, call: ast.Call) -> str | None:
        """Name the writable file-backed-array open, or ``None``."""
        func = call.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        name = func.id if isinstance(func, ast.Name) else None
        target = attr or name
        if target == "memmap":
            mode = cls._keyword_value(call, "mode")
            if mode is _MISSING:
                return "np.memmap(...) without mode= (default 'r+')"
            if isinstance(mode, str) and mode not in cls._SAFE_MODES:
                return f"np.memmap(..., mode={mode!r})"
            return None
        if target == "load":
            mode = cls._keyword_value(call, "mmap_mode")
            if isinstance(mode, str) and mode not in cls._SAFE_MODES:
                return f"np.load(..., mmap_mode={mode!r})"
        return None

    @staticmethod
    def _keyword_value(call: ast.Call, keyword: str) -> object:
        for kw in call.keywords:
            if kw.arg == keyword:
                if isinstance(kw.value, ast.Constant):
                    return kw.value.value
                return None  # non-constant: not provable, stay silent
        return _MISSING


#: Sentinel distinguishing "keyword omitted" from "non-constant value".
_MISSING = object()


class CacheKeyMissingInput(ProgramRule):
    """A value influences a cached payload but not the cache key.

    The on-disk :class:`ResultCache` is content-addressed: a payload may
    only be served back when *every* input that shaped it is folded into
    the key digest.  This rule taints each function parameter, propagates
    name-level influence through assignments and container mutations, and
    compares the parameters reaching the ``store_*`` payload against
    those reaching the paired ``*_key(...)`` derivation.  A parameter in
    the payload but not the key means two different computations can
    collide on one cache entry — the cache serves wrong results.
    Execution knobs (``jobs``, ``executor``, ``cache``) are exempt:
    they change how, not what, is computed.
    """

    id = "REP501"
    summary = "cached payload influenced by a value absent from the key"
    example_bad = (
        "key = store.matched_sets_key(ctx, seed=seed, sizes=sizes)\n"
        "ids = SAMPLER_IDS[sampler](ctx, sizes, rng)\n"
        "store.store_id_sets(key, ids)  # `sampler` not in the key\n"
    )
    example_good = (
        "key = store.matched_sets_key(ctx, sampler=sampler,\n"
        "                             seed=seed, sizes=sizes)\n"
        "store.store_id_sets(key, ids)\n"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        for fn_key in sorted(program.functions):
            info = program.functions[fn_key]
            pairs = self._key_store_pairs(info)
            if not pairs:
                continue
            influence = self._influence_map(info)

            def reaching(exprs: list[ast.expr]) -> frozenset[str]:
                out: set[str] = set()
                for expr in exprs:
                    for sub in ast.walk(expr):
                        if isinstance(sub, ast.Name) and isinstance(
                            sub.ctx, ast.Load
                        ):
                            out |= influence.get(sub.id, frozenset())
                return frozenset(out)

            for key_call, store_call in pairs:
                key_inputs = reaching(
                    list(key_call.args)
                    + [kw.value for kw in key_call.keywords]
                )
                payload_inputs = reaching(
                    list(store_call.args[1:])
                    + [kw.value for kw in store_call.keywords]
                )
                missing = sorted(
                    payload_inputs - key_inputs - _CACHE_KEY_ALLOW
                )
                if missing:
                    names = ", ".join(f"`{name}`" for name in missing)
                    yield _program_violation(
                        self,
                        info,
                        store_call.lineno,
                        store_call.col_offset,
                        f"cached payload depends on {names} but the "
                        "cache key derivation does not; two runs with "
                        "different values would collide on one cache "
                        "entry — fold the value into the key tokens",
                    )

    @staticmethod
    def _key_store_pairs(
        info: FunctionInfo,
    ) -> list[tuple[ast.Call, ast.Call]]:
        key_calls: dict[str, ast.Call] = {}
        statements = list(_iter_own_statements(list(info.node.body)))
        for stmt in statements:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr.endswith("_key")
            ):
                key_calls[stmt.targets[0].id] = stmt.value
        if not key_calls:
            return []
        pairs: list[tuple[ast.Call, ast.Call]] = []
        for stmt in statements:
            for expr in _stmt_expressions(stmt):
                for sub in ast.walk(expr):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr.startswith("store_")
                        and sub.args
                        and isinstance(sub.args[0], ast.Name)
                        and sub.args[0].id in key_calls
                    ):
                        pairs.append((key_calls[sub.args[0].id], sub))
        return pairs

    @staticmethod
    def _influence_map(info: FunctionInfo) -> dict[str, frozenset[str]]:
        """Flow-insensitive name-level parameter influence (fixpoint).

        Control dependencies are deliberately excluded (a parameter that
        only *gates* a computation is not folded in), keeping the rule
        zero-false-positive at the cost of missing control-only leaks.
        """
        influence: dict[str, frozenset[str]] = {
            name: frozenset({name}) for name in info.param_names
        }
        statements = list(_iter_own_statements(list(info.node.body)))

        def value_inputs(expr: ast.expr) -> frozenset[str]:
            out: set[str] = set()
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, ast.Load
                ):
                    out |= influence.get(sub.id, frozenset())
            return frozenset(out)

        changed = True
        rounds = 0
        while changed and rounds < 8:
            changed = False
            rounds += 1

            def absorb(name: str, values: frozenset[str]) -> None:
                nonlocal changed
                merged = influence.get(name, frozenset()) | values
                if merged != influence.get(name):
                    influence[name] = merged
                    changed = True

            def absorb_target(
                target: ast.expr, values: frozenset[str]
            ) -> None:
                if isinstance(target, ast.Name):
                    absorb(target.id, values)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        absorb_target(element, values)
                elif isinstance(target, ast.Starred):
                    absorb_target(target.value, values)
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = root_name(
                        target.value
                        if isinstance(target, ast.Subscript)
                        else target
                    )
                    if root is not None:
                        absorb(root, values)

            for stmt in statements:
                if isinstance(stmt, ast.Assign):
                    values = value_inputs(stmt.value)
                    for target in stmt.targets:
                        absorb_target(target, values)
                elif (
                    isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
                    and stmt.value is not None
                ):
                    absorb_target(stmt.target, value_inputs(stmt.value))
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    absorb_target(stmt.target, value_inputs(stmt.iter))
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        if item.optional_vars is not None:
                            absorb_target(
                                item.optional_vars,
                                value_inputs(item.context_expr),
                            )
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.NamedExpr):
                        absorb_target(sub.target, value_inputs(sub.value))
                    elif (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _CONTAINER_MUTATORS
                    ):
                        root = root_name(sub.func.value)
                        if root is not None:
                            payload = frozenset().union(
                                *(
                                    value_inputs(arg)
                                    for arg in (
                                        *sub.args,
                                        *(
                                            kw.value
                                            for kw in sub.keywords
                                        ),
                                    )
                                ),
                                frozenset(),
                            )
                            absorb(root, payload)
        return influence


class NonAtomicCacheWrite(ProgramRule):
    """A cache file is written without the atomic-replace helper.

    Concurrent lints/runs share one cache directory; a direct
    ``open(path, "wb")`` or ``np.savez(path, ...)`` on a cache path leaves
    a torn half-written file visible to concurrent readers (and a corrupt
    entry after a crash).  All cache writes must go through the scratch
    file + ``os.replace`` helper (``ResultCache._store``), whose rename is
    atomic on POSIX.  Paths are recognized interprocedurally: anything
    derived from a cache's ``_path(...)`` mapping carries the
    ``cache_path`` tag through returns, ``with_name`` and assignments.
    """

    id = "REP502"
    summary = "cache file written without the atomic os.replace helper"
    example_bad = (
        "path = self._path(key)\n"
        "np.savez(path, **arrays)  # torn file visible to readers\n"
    )
    example_good = (
        "self._store(key, arrays)  # scratch file + os.replace\n"
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        summaries = summarize(program)
        for key in sorted(program.functions):
            info = program.functions[key]
            if info.name in _ATOMIC_WRITE_HELPERS:
                continue
            evaluator = summaries.evaluator(key)
            for stmt in evaluator.cfg.statement_order():
                for expr in _stmt_expressions(stmt):
                    for sub in ast.walk(expr):
                        if not isinstance(sub, ast.Call):
                            continue
                        sink = self._write_sink(sub, evaluator, stmt)
                        if sink is None:
                            continue
                        yield _program_violation(
                            self,
                            info,
                            sub.lineno,
                            sub.col_offset,
                            f"cache file written via {sink} outside the "
                            "atomic-write helper; use the scratch-file + "
                            "os.replace path (ResultCache._store) so "
                            "concurrent readers never see a torn entry",
                        )

    @staticmethod
    def _write_sink(call: ast.Call, evaluator, stmt: ast.stmt) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            if len(call.args) >= 2 and isinstance(
                call.args[1], ast.Constant
            ):
                mode = call.args[1].value
                if isinstance(mode, str) and any(
                    flag in mode for flag in ("w", "a", "x", "+")
                ):
                    if CACHE_PATH in evaluator.tags(call.args[0], stmt):
                        return f"open(..., {mode!r})"
            return None
        if isinstance(func, ast.Attribute):
            if func.attr in _NUMPY_SAVERS and call.args:
                if CACHE_PATH in evaluator.tags(call.args[0], stmt):
                    return f"np.{func.attr}"
            if func.attr in _PATH_WRITERS:
                if CACHE_PATH in evaluator.tags(func.value, stmt):
                    return f"Path.{func.attr}"
        return None


class ScoringStateTokenDrift(ProgramRule):
    """Scoring-function instance state drifts from its cache tokens.

    ``function_tokens`` snapshots a scoring function's scalar instance
    state to build cache keys.  That snapshot is only faithful if (a)
    every ``__init__`` parameter lands in instance state — a parameter
    that is validated but never stored changes behaviour invisibly to the
    tokens — and (b) no method mutates instance state after construction,
    which would make identical tokens describe different behaviour
    depending on call history.  Applies to classes that look like scoring
    functions: a class-level ``name`` string and a ``__call__`` method.
    """

    id = "REP503"
    summary = "scoring-function state drift between __init__ and tokens"
    example_bad = (
        "class Scorer:\n"
        "    name = 'scorer'\n"
        "    def __init__(self, alpha):\n"
        "        check(alpha)  # alpha influences __call__ via a global\n"
        "    def __call__(self, stats):\n"
        "        self._last = stats  # post-construction mutation\n"
    )
    example_good = (
        "class Scorer:\n"
        "    name = 'scorer'\n"
        "    def __init__(self, alpha):\n"
        "        self.alpha = alpha  # visible to function_tokens\n"
        "    def __call__(self, stats):\n"
        "        return f(stats, self.alpha)\n"
    )

    _CONSTRUCTION = frozenset(
        {"__init__", "__post_init__", "__new__", "__setstate__"}
    )

    def check_program(self, program: Program) -> Iterator[Violation]:
        for class_key in sorted(program.classes):
            cls = program.classes[class_key]
            if "__call__" not in cls.methods:
                continue
            if not self._has_name_token(cls.node):
                continue
            init_key = cls.methods.get("__init__")
            if init_key is not None:
                init = program.functions[init_key]
                stored = self._stored_value_names(init)
                for param in init.param_names[1:]:
                    if param.startswith("_") or param in stored:
                        continue
                    yield _program_violation(
                        self,
                        init,
                        init.node.lineno,
                        init.node.col_offset,
                        f"__init__ parameter `{param}` of scoring "
                        f"function `{cls.name}` never reaches instance "
                        "state; function_tokens snapshots __init__-time "
                        "state, so this configuration is invisible to "
                        "cache keys — store it on self",
                    )
            for method_name, method_key in sorted(cls.methods.items()):
                if method_name in self._CONSTRUCTION:
                    continue
                method = program.functions[method_key]
                if method.class_key != cls.key:
                    continue
                for stmt, target in self._self_stores(method):
                    yield _program_violation(
                        self,
                        method,
                        stmt.lineno,
                        stmt.col_offset,
                        f"scoring function `{cls.name}` mutates instance "
                        f"state (`{target}`) outside __init__; cached "
                        "entries keyed on construction-time tokens would "
                        "describe stale behaviour — make state immutable "
                        "after construction",
                    )

    @staticmethod
    def _has_name_token(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "name"
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                return True
        return False

    @staticmethod
    def _stored_value_names(init: FunctionInfo) -> frozenset[str]:
        """Names loaded inside values assigned to ``self.*`` in __init__."""
        loaded: set[str] = set()
        for stmt in _iter_own_statements(list(init.node.body)):
            value: ast.expr | None = None
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                value, targets = stmt.value, [stmt.target]
            if value is None:
                continue
            if not any(
                isinstance(target, ast.Attribute)
                and root_name(target) == "self"
                for target in targets
            ):
                continue
            for sub in ast.walk(value):
                if isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, ast.Load
                ):
                    loaded.add(sub.id)
        return frozenset(loaded)

    @staticmethod
    def _self_stores(method: FunctionInfo):
        for stmt in _iter_own_statements(list(method.node.body)):
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield stmt, f"self.{target.attr}"


class ScalarScoringLoop(ProgramRule):
    """A hot path scores groups one at a time through scalar ``__call__``.

    Every registry scoring function carries a vectorized ``score_batch``
    kernel, and :func:`repro.scoring.columnar.score_matrix` /
    :func:`repro.scoring.columnar.score_stats_columns` are the shared
    columnar stages behind the serial path, the parallel workers and the
    service micro-batcher.  A nested
    ``function(stats) for function in functions / for stats in
    batch_group_stats_columns(...).rows()`` loop inside
    :mod:`repro.engine` or :mod:`repro.service` reintroduces the
    per-(group, function) interpreter dispatch the columnar pipeline
    exists to remove — it is both the historical copy-paste twin (the
    executor worker and the micro-batcher once each carried one) and a
    3×+ slowdown at 10⁴ groups (``benchmarks/bench_columnar_scoring.py``).  The sanctioned
    scalar fallback lives in :mod:`repro.scoring.columnar`
    (``scalar_score_column``), outside this rule's scope.
    """

    id = "REP607"
    summary = "per-group scalar scoring loop on an engine/service hot path"
    example_bad = (
        "stats_list = batch_group_stats_columns(context, member_lists).rows()\n"
        "rows = [\n"
        "    [float(function(stats)) for function in functions]\n"
        "    for stats in stats_list\n"
        "]\n"
    )
    example_good = (
        "sizes, matrix = score_stats_columns(\n"
        "    context, member_lists, functions\n"
        ")  # one vectorized kernel per function, not one call per group\n"
    )

    #: Module prefixes whose scoring loops must be columnar.
    _SCOPES = ("repro.engine", "repro.service")

    def check_program(self, program: Program) -> Iterator[Violation]:
        for key in sorted(program.functions):
            info = program.functions[key]
            if not info.modname.startswith(self._SCOPES):
                continue
            stats_lists = self._stats_list_names(info)
            stats_vars, func_vars = self._loop_variables(info, stats_lists)
            if not stats_vars or not func_vars:
                continue
            for stmt in _iter_own_statements(list(info.node.body)):
                for expr in _stmt_expressions(stmt):
                    offender = self._scalar_call(expr, stats_vars, func_vars)
                    if offender is None:
                        continue
                    yield _program_violation(
                        self,
                        info,
                        offender.lineno,
                        offender.col_offset,
                        f"`{info.qualname}` scores groups through the "
                        "scalar per-group `__call__` loop on an "
                        "engine/service hot path; route through the "
                        "shared columnar stage "
                        "(repro.scoring.columnar.score_matrix / "
                        "score_stats_columns) so every function runs "
                        "one vectorized kernel over the batch",
                    )
                    break

    @classmethod
    def _is_stats_producer(cls, expr: ast.expr) -> bool:
        """``expr`` is a call producing per-group stats (or wraps one)."""
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            leaf = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if leaf == "batch_group_stats" or (
                isinstance(func, ast.Attribute) and func.attr == "rows"
            ):
                return True
        return False

    @classmethod
    def _stats_list_names(cls, info: FunctionInfo) -> frozenset[str]:
        """Names bound to per-group stats results (see ``_is_stats_producer``)."""
        names: set[str] = set()
        for stmt in _iter_own_statements(list(info.node.body)):
            if not isinstance(stmt, ast.Assign):
                continue
            if not cls._is_stats_producer(stmt.value):
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return frozenset(names)

    @classmethod
    def _loop_variables(
        cls, info: FunctionInfo, stats_lists: frozenset[str]
    ) -> tuple[frozenset[str], frozenset[str]]:
        """Loop targets iterating stats lists / scoring-function lists."""

        def iterates_stats(iterable: ast.expr) -> bool:
            if cls._is_stats_producer(iterable):
                return True
            return any(
                isinstance(sub, ast.Name) and sub.id in stats_lists
                for sub in ast.walk(iterable)
            )

        def iterates_functions(iterable: ast.expr) -> bool:
            for sub in ast.walk(iterable):
                if isinstance(sub, ast.Name) and sub.id == "functions":
                    return True
                if isinstance(sub, ast.Attribute) and sub.attr == "functions":
                    return True
            return False

        stats_vars: set[str] = set()
        func_vars: set[str] = set()

        def absorb(target: ast.expr, iterable: ast.expr) -> None:
            names = {
                sub.id
                for sub in ast.walk(target)
                if isinstance(sub, ast.Name)
            }
            if iterates_stats(iterable):
                stats_vars.update(names)
            if iterates_functions(iterable):
                func_vars.update(names)

        for stmt in _iter_own_statements(list(info.node.body)):
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                absorb(stmt.target, stmt.iter)
            for expr in _stmt_expressions(stmt):
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.comprehension):
                        absorb(sub.target, sub.iter)
        return frozenset(stats_vars), frozenset(func_vars)

    @staticmethod
    def _scalar_call(
        expr: ast.expr,
        stats_vars: frozenset[str],
        func_vars: frozenset[str],
    ) -> ast.Call | None:
        """A ``function(stats)`` call over both loop variables, if any."""
        for sub in ast.walk(expr):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in func_vars
                and any(
                    isinstance(node, ast.Name) and node.id in stats_vars
                    for arg in sub.args
                    for node in ast.walk(arg)
                )
            ):
                return sub
        return None


INTERPROC_RULES: tuple[type[ProgramRule], ...] = (
    WorkerMutatesFrozenState,
    RngReachesProcessBoundary,
    UnpicklableWorkerCallable,
    CompletionOrderMerge,
    WritableFrozenStore,
    CacheKeyMissingInput,
    NonAtomicCacheWrite,
    ScoringStateTokenDrift,
    ScalarScoringLoop,
)
