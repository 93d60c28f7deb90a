"""AST-level rules: lock discipline, except boundaries, kernel contracts.

Each rule is a function ``rule(source: SourceFile) -> list[Finding]``
over one parsed file.  The rules encode *this repo's* conventions —
they know that serve-layer classes guard shared state with
``self._lock``, that ``formats/base.py`` kernels return their ``out=``
buffer, and that multiply entry points thread ``executor=`` through
to the block executor — so they catch the class of bug a generic
linter structurally cannot.
"""

from __future__ import annotations

import ast
import re

from repro.analyze.findings import Finding, RULE_WAIVER_TAGS

#: Protocol methods whose overrides must keep the executor plumbing
#: (RA06).  These are the public multiply entry points of
#: :class:`repro.formats.base.MatrixFormat`.
PROTOCOL_MULTIPLY_METHODS = frozenset(
    {
        "right_multiply",
        "left_multiply",
        "transpose_multiply",
        "right_multiply_matrix",
        "left_multiply_matrix",
    }
)

#: Module-level multiply entry points (RA06): the serve-layer batch
#: helpers and any future free-function kernels that follow the naming
#: convention.
_MODULE_MULTIPLY_RE = re.compile(
    r"^(?:batch_|looped_)?(?:right|left|transpose)_multiply(?:_matrix|_panel)?$"
)

#: Files whose broad excepts are documented worker/server boundaries
#: (RA04): a job must not kill its worker thread, and the HTTP handler
#: must answer 500 instead of dropping the connection.
BROAD_EXCEPT_BOUNDARIES = ("serve/jobs.py", "serve/server.py")


def _is_self_attr(node: ast.expr, attr: str | None = None) -> bool:
    """``self.<attr>`` (any attribute when ``attr`` is None)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


def _assign_targets(node: ast.stmt) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        targets: list[ast.expr] = []
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            else:
                targets.append(target)
        return targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _walk_same_function(node: ast.AST):
    """Yield descendants of ``node`` without entering nested functions.

    Nested ``def``/``lambda`` bodies run later — often on another
    thread (executor tasks) or inside a kernel loop — so statements
    inside them do not belong to the enclosing method's control flow.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return set(names)


def _has_kwargs(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return node.args.kwarg is not None


def _loads_in(node: ast.AST, name: str) -> bool:
    """``name`` is read (Load context) anywhere under ``node``."""
    return any(
        isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
        for n in ast.walk(node)
    )


def _forwards_kwargs(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """The function splats ``**kwargs`` into some call."""
    kwarg = node.args.kwarg
    if kwarg is None:
        return False
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            for kw in n.keywords:
                if (
                    kw.arg is None
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id == kwarg.arg
                ):
                    return True
    return False


# ---------------------------------------------------------------------------
# RA03 — lock discipline
# ---------------------------------------------------------------------------


def check_lock_discipline(source) -> list[Finding]:
    """RA03: writes to guarded attributes must hold ``self._lock``.

    Any class whose ``__init__`` creates ``self._lock`` opts its
    underscore-prefixed instance attributes into the discipline: after
    construction they may only be assigned inside a
    ``with self._lock:`` block.  Methods whose names end in
    ``_locked`` are the repo's documented caller-holds-the-lock
    helpers and are exempt; anything else needs an explicit
    ``# ra: unlocked — <reason>`` waiver.  This is the static half of
    the serve layer's race protection — the dynamic half being the
    stress tests — and it applies wherever the pattern appears
    (``serve/``, ``solve/``, and the lazy shard container).
    """
    tag = RULE_WAIVER_TAGS["RA03"]
    findings: list[Finding] = []
    for cls in ast.walk(source.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if not _class_creates_lock(cls):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in ("__init__", "__new__"):
                continue
            if method.name.endswith("_locked"):
                continue
            findings.extend(
                _unlocked_writes(source, cls, method, tag)
            )
    return findings


def _class_creates_lock(cls: ast.ClassDef) -> bool:
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.name == "__init__":
            for node in _walk_same_function(method):
                for target in _assign_targets(node) if isinstance(node, ast.stmt) else []:
                    if _is_self_attr(target, "_lock"):
                        return True
    return False


def _unlocked_writes(source, cls: ast.ClassDef, method, tag: str) -> list[Finding]:
    findings: list[Finding] = []
    locked_spans: list[tuple[int, int]] = []
    for node in _walk_same_function(method):
        if isinstance(node, ast.With):
            for item in node.items:
                expr = item.context_expr
                # ``with self._lock:`` — also accept an Attribute chain
                # like ``with self._lock:`` wrapped in a call result is
                # *not* accepted: the guard must be the lock itself.
                if _is_self_attr(expr, "_lock"):
                    locked_spans.append((node.lineno, node.end_lineno or node.lineno))

    def under_lock(lineno: int) -> bool:
        return any(start <= lineno <= end for start, end in locked_spans)

    for node in _walk_same_function(method):
        if not isinstance(node, ast.stmt):
            continue
        for target in _assign_targets(node):
            if not _is_self_attr(target):
                continue
            attr = target.attr  # type: ignore[attr-defined]
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            if under_lock(node.lineno):
                continue
            if source.waivers.covers(node.lineno, tag):
                continue
            findings.append(
                Finding(
                    rule="RA03",
                    path=source.rel,
                    line=node.lineno,
                    scope=f"{cls.name}.{method.name}",
                    detail=attr,
                    message=(
                        f"write to self.{attr} outside `with self._lock` "
                        f"in {cls.name}.{method.name} (class guards state "
                        "with self._lock; waive with `# ra: unlocked — "
                        "<reason>` if the caller holds it)"
                    ),
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RA04 — broad-except boundaries
# ---------------------------------------------------------------------------


def check_broad_except(source) -> list[Finding]:
    """RA04: ``except Exception`` only at documented boundaries.

    The repo's error taxonomy (:mod:`repro.errors`) exists so every
    layer catches *typed* errors; a broad ``except Exception`` is
    allowed in exactly two places — the job worker
    (``serve/jobs.py``, a job must not kill its worker thread) and the
    HTTP server (``serve/server.py``, a handler must answer 500) — or
    when the handler re-raises, the registry's import-guard pattern.
    Anywhere else needs ``# ra: broad-except — <reason>``.
    """
    tag = RULE_WAIVER_TAGS["RA04"]
    rel_posix = source.rel.replace("\\", "/")
    if any(rel_posix.endswith(boundary) for boundary in BROAD_EXCEPT_BOUNDARIES):
        return []
    findings: list[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad_handler(node):
            continue
        if _reraises(node):
            continue
        if source.waivers.covers(node.lineno, tag):
            continue
        scope = _enclosing_scope(source.tree, node)
        caught = "bare except" if node.type is None else "except Exception"
        findings.append(
            Finding(
                rule="RA04",
                path=source.rel,
                line=node.lineno,
                scope=scope,
                detail=caught,
                message=(
                    f"{caught} outside the documented worker/server "
                    "boundaries; catch a typed repro error, re-raise, or "
                    "waive with `# ra: broad-except — <reason>`"
                ),
            )
        )
    return findings


def _is_broad_handler(node: ast.ExceptHandler) -> bool:
    if node.type is None:
        return True
    names = []
    if isinstance(node.type, ast.Name):
        names = [node.type.id]
    elif isinstance(node.type, ast.Tuple):
        names = [e.id for e in node.type.elts if isinstance(e, ast.Name)]
    return any(name in ("Exception", "BaseException") for name in names)


def _reraises(node: ast.ExceptHandler) -> bool:
    """The handler body re-raises the caught exception (bare ``raise``)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Raise) and child.exc is None:
            return True
        if (
            isinstance(child, ast.Raise)
            and isinstance(child.exc, ast.Name)
            and node.name is not None
            and child.exc.id == node.name
        ):
            return True
    return False


def _enclosing_scope(tree: ast.AST, target: ast.AST) -> str:
    """Dotted ``Class.method`` path of the scope containing ``target``."""
    path: list[str] = []

    def visit(node: ast.AST, names: tuple[str, ...]) -> bool:
        if node is target:
            path.extend(names)
            return True
        for child in ast.iter_child_nodes(node):
            child_names = names
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                child_names = names + (child.name,)
            if visit(child, child_names):
                return True
        return False

    visit(tree, ())
    return ".".join(path)


# ---------------------------------------------------------------------------
# RA05 — kernel out= contract
# ---------------------------------------------------------------------------


def check_out_contract(source) -> list[Finding]:
    """RA05: functions taking ``out=`` must return it.

    The panel kernels' contract — shared with numpy's own ``out=``
    convention — is that the caller's buffer comes back as the return
    value, so call sites compose (``y = m.right_multiply_matrix(X,
    out=buf)``).  A kernel that fills ``out`` but returns a freshly
    allocated array silently doubles memory and breaks aliasing
    assumptions.  The check is intentionally syntactic: a function with
    an ``out`` parameter and at least one value-bearing ``return`` must
    have some return path mentioning ``out`` (directly, via an alias
    assigned from ``out``, or forwarded as ``out=out`` to a delegate).
    Pure procedures that fill ``out`` in place and return nothing are
    out of scope.
    """
    tag = RULE_WAIVER_TAGS["RA05"]
    findings: list[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if "out" not in _function_params(node):
            continue
        returns = [
            stmt
            for stmt in _walk_same_function(node)
            if isinstance(stmt, ast.Return) and stmt.value is not None
        ]
        if not returns:
            continue  # in-place procedure: fills out, returns nothing
        aliases = _out_aliases(node)
        if any(_mentions_any(ret.value, aliases) for ret in returns):
            continue
        if source.waivers.covers(node.lineno, tag):
            continue
        findings.append(
            Finding(
                rule="RA05",
                path=source.rel,
                line=node.lineno,
                scope=node.name,
                detail="out",
                message=(
                    f"{node.name}() takes out= but no return path returns "
                    "it; return the caller's buffer (or forward out= to "
                    "the delegate) so call sites compose"
                ),
            )
        )
    return findings


def _out_aliases(node) -> set[str]:
    """Names that (transitively) hold ``out`` within the function."""
    aliases = {"out"}
    # Two ordered passes catch chains like ``res = out; final = res``
    # without a full fixpoint loop.
    for _ in range(2):
        for stmt in _walk_same_function(node):
            if isinstance(stmt, ast.Assign) and _mentions_any(stmt.value, aliases):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if _mentions_any(stmt.value, aliases) and isinstance(
                    stmt.target, ast.Name
                ):
                    aliases.add(stmt.target.id)
    return aliases


def _mentions_any(expr: ast.AST | None, names: set[str]) -> bool:
    if expr is None:
        return False
    return any(
        isinstance(n, ast.Name) and n.id in names for n in ast.walk(expr)
    )


# ---------------------------------------------------------------------------
# RA06 — executor plumbing
# ---------------------------------------------------------------------------


def check_executor_plumbing(source) -> list[Finding]:
    """RA06: multiply entry points accept and forward ``executor``.

    The block executor only helps if every public multiply path can
    reach it: an override of a :class:`MatrixFormat` multiply method
    (or a module-level ``*_multiply*`` helper) that drops ``executor=``
    silently serializes the whole serving path.  Accepting ``**kwargs``
    and splatting it into a delegate call counts as forwarding it.
    Deliberately serial baselines carry ``# ra: executor — <reason>``
    on the ``def`` line.
    """
    tag = RULE_WAIVER_TAGS["RA06"]
    findings: list[Finding] = []
    format_classes = _matrix_format_classes(source.tree)

    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name not in format_classes:
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name not in PROTOCOL_MULTIPLY_METHODS:
                continue
            findings.extend(
                _check_plumbing(source, method, f"{node.name}.{method.name}", tag)
            )

    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _MODULE_MULTIPLY_RE.match(node.name):
                findings.extend(_check_plumbing(source, node, node.name, tag))
    return findings


def _matrix_format_classes(tree: ast.Module) -> set[str]:
    """Class names resolving (within this file) to ``MatrixFormat``.

    Resolution is file-local by design: cross-file inheritance from a
    class that is not *named* ``MatrixFormat`` at its import site is
    invisible, which errs toward silence rather than false positives.
    """
    bases: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = set()
            for base in node.bases:
                if isinstance(base, ast.Name):
                    names.add(base.id)
                elif isinstance(base, ast.Attribute):
                    names.add(base.attr)
            bases[node.name] = names

    def is_format(name: str, seen: frozenset[str] | None = None) -> bool:
        if name == "MatrixFormat":
            return True
        seen = seen or frozenset()
        if name in seen or name not in bases:
            return False
        return any(is_format(b, seen | {name}) for b in bases[name])

    return {name for name in bases if is_format(name)}


def _check_plumbing(source, node, scope: str, tag: str) -> list[Finding]:
    params = _function_params(node)
    if _forwards_kwargs(node) or (
        "executor" in params and _loads_in_body(node, "executor")
    ):
        return []
    if "executor" in params or _has_kwargs(node):
        problem = "accepted but never forwarded"
    else:
        problem = "missing parameter"
    if source.waivers.covers(node.lineno, tag):
        return []
    return [
        Finding(
            rule="RA06",
            path=source.rel,
            line=node.lineno,
            scope=scope,
            detail="executor",
            message=(
                f"{scope} is a multiply entry point but breaks the "
                f"executor plumbing ({problem}: executor); accept and "
                "forward executor= (or **kwargs), or waive with "
                "`# ra: executor — <reason>`"
            ),
        )
    ]


def _loads_in_body(node, name: str) -> bool:
    for stmt in node.body:
        if _loads_in(stmt, name):
            return True
    return False


# ---------------------------------------------------------------------------
# RA07 — retry / integrity discipline
# ---------------------------------------------------------------------------


def check_retry_discipline(source) -> list[Finding]:
    """RA07: retry loops re-raise typed errors; IntegrityError never vanishes.

    Two complementary checks around the resilience layer's contract
    (:mod:`repro.resilience.policy`):

    1. A handler that *names* ``IntegrityError`` must contain a
       ``raise`` — corruption is persistent, so swallowing it turns a
       quarantinable fault into silent wrong answers.  Mapping it to
       another typed error (``raise ... from exc``) is fine; dropping
       it is not.
    2. Inside a retry-shaped loop — ``while ...`` or
       ``for ... in range(...)`` — a handler catching a typed
       ``*Error`` whose body only ``pass``es/``continue``s is a
       hand-rolled retry that swallows the terminal failure.  Use
       :class:`repro.resilience.policy.RetryPolicy` (which re-raises
       at exhaustion) or re-raise on the last attempt.

    Data loops (``for path in paths: ... continue``) are out of scope:
    skipping one *item* is iteration, not retrying one *operation*.
    Waiver: ``# ra: retry — <reason>`` on the ``except`` line.
    """
    tag = RULE_WAIVER_TAGS["RA07"]
    findings: list[Finding] = []
    retry_spans = _retry_loop_spans(source.tree)

    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = _handler_type_names(node)
        scope = _enclosing_scope(source.tree, node)
        if "IntegrityError" in caught and not _contains_raise(node):
            if not source.waivers.covers(node.lineno, tag):
                findings.append(
                    Finding(
                        rule="RA07",
                        path=source.rel,
                        line=node.lineno,
                        scope=scope,
                        detail="IntegrityError",
                        message=(
                            "handler catches IntegrityError but never "
                            "raises; corruption must stay typed and "
                            "visible (re-raise, or map it with `raise "
                            "... from exc`), or waive with `# ra: retry "
                            "— <reason>`"
                        ),
                    )
                )
            continue
        typed = [name for name in caught if name.endswith("Error")]
        if not typed:
            continue
        if not any(s <= node.lineno <= e for s, e in retry_spans):
            continue
        if not _is_swallow_body(node):
            continue
        if source.waivers.covers(node.lineno, tag):
            continue
        findings.append(
            Finding(
                rule="RA07",
                path=source.rel,
                line=node.lineno,
                scope=scope,
                detail=",".join(sorted(typed)),
                message=(
                    f"retry loop swallows {', '.join(sorted(typed))} "
                    "with an empty handler; use "
                    "repro.resilience.policy.RetryPolicy (re-raises at "
                    "exhaustion) or re-raise the typed error, or waive "
                    "with `# ra: retry — <reason>`"
                ),
            )
        )
    return findings


def _retry_loop_spans(tree: ast.AST) -> list[tuple[int, int]]:
    """Line spans of retry-shaped loops: ``while`` and ``for-range``."""
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.While):
            spans.append((node.lineno, node.end_lineno or node.lineno))
        elif isinstance(node, ast.For):
            it = node.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id == "range"
            ):
                spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


def _handler_type_names(node: ast.ExceptHandler) -> list[str]:
    """Exception class names the handler catches (tail of dotted paths)."""
    exprs: list[ast.expr] = []
    if node.type is None:
        return []
    if isinstance(node.type, ast.Tuple):
        exprs = list(node.type.elts)
    else:
        exprs = [node.type]
    names = []
    for expr in exprs:
        if isinstance(expr, ast.Name):
            names.append(expr.id)
        elif isinstance(expr, ast.Attribute):
            names.append(expr.attr)
    return names


def _contains_raise(node: ast.ExceptHandler) -> bool:
    return any(isinstance(child, ast.Raise) for child in ast.walk(node))


def _is_swallow_body(node: ast.ExceptHandler) -> bool:
    """The handler body does nothing but pass/continue (comments aside)."""
    for stmt in node.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring-style comment
        return False
    return True




#: The one module allowed to touch SQLite (RA08): every catalog query,
#: pragma, and schema statement lives behind its API.
CATALOG_MODULE = "store/catalog.py"

#: Schema-changing SQL: statements that must appear only inside the
#: catalog's ``MIGRATIONS`` table so ``PRAGMA user_version`` tracking
#: stays truthful.
_SCHEMA_DDL_RE = re.compile(
    r"\b(create|alter|drop)\s+(table|index|trigger|view)\b", re.IGNORECASE
)


def check_catalog_sql(source) -> list[Finding]:
    """RA08: all catalog SQL goes through ``store/catalog.py``.

    Two halves of one contract:

    1. Outside :data:`CATALOG_MODULE`, importing ``sqlite3`` (or any of
       its members) is a finding — a second connection path would skip
       the WAL/busy-timeout pragmas and the migration check, so every
       consumer must go through the :class:`repro.store.Catalog` API.
    2. Inside it, schema-changing statements (``CREATE TABLE`` and
       friends, matched case-insensitively in string constants) must
       lie within the top-level ``MIGRATIONS`` assignment: ad-hoc DDL
       executed outside a migration entry would change the schema
       without bumping ``PRAGMA user_version``, breaking every other
       process's version check.

    Waiver: ``# ra: sql — <reason>`` on the import or string line.
    """
    tag = RULE_WAIVER_TAGS["RA08"]
    findings: list[Finding] = []
    rel = source.rel.replace("\\", "/")
    if not rel.endswith(CATALOG_MODULE):
        for node in ast.walk(source.tree):
            detail = None
            if isinstance(node, ast.Import):
                if any(
                    alias.name == "sqlite3"
                    or alias.name.startswith("sqlite3.")
                    for alias in node.names
                ):
                    detail = "import sqlite3"
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "sqlite3":
                    detail = "from sqlite3 import ..."
            if detail is None or source.waivers.covers(node.lineno, tag):
                continue
            findings.append(
                Finding(
                    rule="RA08",
                    path=source.rel,
                    line=node.lineno,
                    scope=_enclosing_scope(source.tree, node),
                    detail=detail,
                    message=(
                        f"{detail} outside {CATALOG_MODULE}; all catalog "
                        "SQL goes through repro.store.Catalog (WAL, "
                        "busy_timeout, migrations), or waive with "
                        "`# ra: sql — <reason>`"
                    ),
                )
            )
        return findings

    migration_spans = []
    for node in source.tree.body:
        names: list[str] = []
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names = [node.target.id]
        if "MIGRATIONS" in names:
            migration_spans.append((node.lineno, node.end_lineno or node.lineno))
    for node in ast.walk(source.tree):
        if not (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _SCHEMA_DDL_RE.search(node.value)
        ):
            continue
        end = node.end_lineno or node.lineno
        if any(s <= node.lineno and end <= e for s, e in migration_spans):
            continue
        if source.waivers.covers(node.lineno, tag):
            continue
        match = _SCHEMA_DDL_RE.search(node.value)
        findings.append(
            Finding(
                rule="RA08",
                path=source.rel,
                line=node.lineno,
                scope=_enclosing_scope(source.tree, node),
                detail=match.group(0) if match else "DDL",
                message=(
                    "schema-changing SQL outside the MIGRATIONS table; "
                    "add a (version, script) migration entry so PRAGMA "
                    "user_version tracks the change, or waive with "
                    "`# ra: sql — <reason>`"
                ),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# RA09 — counter discipline
# ---------------------------------------------------------------------------


#: Path fragments inside which RA09 applies: the instrumented layers
#: whose counters must be :mod:`repro.obs` instruments.
COUNTER_DISCIPLINE_DIRS = ("serve/", "shard/", "resilience/")


def check_counter_discipline(source) -> list[Finding]:
    """RA09: serve/shard/resilience counters go through ``repro.obs``.

    A bare ``self.<name> += <number>`` on a *public* attribute in the
    instrumented layers is an ad-hoc counter: invisible to ``GET
    /metrics``, racy unless the class happens to lock around it, and a
    second bookkeeping scheme next to the
    :class:`repro.obs.metrics.MetricsRegistry` every other counter
    feeds.  Count on a counter family of the component's registry, and
    have ``stats()`` read that family back for ``/stats``.
    Underscore-prefixed attributes are exempt — private state such as
    a breaker's consecutive-failure streak is not a count anyone
    reports — as is :mod:`repro.obs` itself, whose instruments are the
    primitives.  Waive deliberate exceptions with
    ``# ra: obs — <reason>``.
    """
    tag = RULE_WAIVER_TAGS["RA09"]
    rel_posix = source.rel.replace("\\", "/")
    if "obs/" in rel_posix:
        return []
    if not any(frag in rel_posix for frag in COUNTER_DISCIPLINE_DIRS):
        return []
    findings: list[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.AugAssign):
            continue
        if not isinstance(node.op, ast.Add):
            continue
        if not _is_self_attr(node.target):
            continue
        attr = node.target.attr  # type: ignore[union-attr]
        if attr.startswith("_"):
            continue
        if not (
            isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, (int, float))
            and not isinstance(node.value.value, bool)
        ):
            continue
        if source.waivers.covers(node.lineno, tag):
            continue
        findings.append(
            Finding(
                rule="RA09",
                path=source.rel,
                line=node.lineno,
                scope=_enclosing_scope(source.tree, node),
                detail=attr,
                message=(
                    f"counter-style increment of self.{attr} outside "
                    "repro.obs; count it on a MetricsRegistry counter "
                    "family and read that back in stats(), so /stats and "
                    "/metrics share it, or waive with `# ra: obs — <reason>`"
                ),
            )
        )
    return findings


#: Rule id → (callable, one-line summary).  The engine dispatches from
#: this table; docs and ``--select`` validation derive from it too.
AST_RULES = {
    "RA03": check_lock_discipline,
    "RA04": check_broad_except,
    "RA05": check_out_contract,
    "RA06": check_executor_plumbing,
    "RA07": check_retry_discipline,
    "RA08": check_catalog_sql,
    "RA09": check_counter_discipline,
}
