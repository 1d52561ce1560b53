"""PROTO — /v1 protocol conformance between server, clients and docs.

The service's HTTP surface is defined twice: once as the route
dispatch in ``repro/service/server.py`` (an if/elif chain over the
split path) and once as the paths ``ServiceClient`` actually
requests.  Nothing in Python keeps the two in sync —
renaming a route breaks every client at runtime, silently.  These
rules extract both sides at lint time:

* **server routes** — from any class with ``do_GET``/``do_POST``/
  ``do_DELETE`` methods: every branch comparing the split path against
  a tuple of constants (``route == ("v1", "healthz")``), a prefix
  (``len(route) == 3 and route[:2] == ("v1", "jobs")``), or a fixed
  index (``route[3] == "heartbeat"``) becomes a pattern such as
  ``GET /v1/jobs/*``;
* **client requests** — every call whose first argument is a constant
  HTTP verb and whose second is a ``/v1/...`` path literal or
  f-string; formatted segments become wildcards, and a literal
  ``body={...}`` dict contributes its keys.

Checks:

* **PROTO001** — a client requests a method+path no server branch
  matches (a fixed client segment matches a server wildcard; a
  dynamic client segment requires a server wildcard).
* **PROTO002** — agreement drift on a *known* route: the client sends
  payload keys the handler never reads (the handler's ``raw.get(...)``
  / ``raw[...]`` key set, skipped when the handler forwards the raw
  payload wholesale), or a served route appears nowhere in
  ``docs/API.md`` (``<seg>``/``{seg}``/``*`` in the docs match
  wildcard segments).

Both rules stay silent when their reference half is absent from the
linted file set (no handler class → no PROTO001; no repo ``docs/`` →
no documentation check), so linting a subtree cannot manufacture
drift.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.rules.base import ProjectRule, SourceFile

_HTTP_VERBS = {"GET", "POST", "PUT", "DELETE", "PATCH"}

#: Wildcard segment marker in extracted patterns.
WILD = "*"

_DOC_ROUTE_RE = re.compile(r"\b(GET|POST|PUT|DELETE|PATCH)\s+(/v1[^\s`|,)\]]*)")


@dataclass(frozen=True)
class Route:
    """One extracted route pattern."""

    method: str
    segments: Tuple[str, ...]

    def render(self) -> str:
        return f"{self.method} /" + "/".join(self.segments)


@dataclass
class _ServerBranch:
    route: Route
    line: int
    file: SourceFile
    #: Payload keys the handler reads, or None when the body is
    #: forwarded wholesale (opaque) or the route takes no body.
    read_keys: Optional[FrozenSet[str]] = None
    opaque: bool = False


@dataclass
class _ClientCall:
    route: Route
    line: int
    file: SourceFile
    body_keys: Optional[FrozenSet[str]] = None


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _const_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    if not isinstance(node, ast.Tuple):
        return None
    values = []
    for elt in node.elts:
        value = _const_str(elt)
        if value is None:
            return None
        values.append(value)
    return tuple(values)


def _path_segments(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Split a path literal or f-string into pattern segments."""
    text = _const_str(node)
    if text is None and isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append("\x00")
            else:
                return None
        text = "".join(parts)
    if text is None or not text.startswith("/"):
        return None
    segments = tuple(
        WILD if "\x00" in segment else segment
        for segment in text.strip("/").split("/")
        if segment != ""
    )
    return segments or None


# ---------------------------------------------------------------------
# Server-side extraction


class _HandlerClass:
    """One ``do_*``-bearing class and its method bodies."""

    def __init__(self, node: ast.ClassDef) -> None:
        self.node = node
        self.methods: Dict[str, ast.FunctionDef] = {
            item.name: item
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }

    def reachable_from(self, start: str) -> List[ast.FunctionDef]:
        """Class-local closure over ``self.m`` references from
        ``start`` — both direct calls and methods passed as callbacks
        (``self._guarded(self._handle_get)``)."""
        seen: Set[str] = set()
        order: List[ast.FunctionDef] = []
        frontier = [start]
        while frontier:
            name = frontier.pop()
            if name in seen or name not in self.methods:
                continue
            seen.add(name)
            func = self.methods[name]
            order.append(func)
            for sub in ast.walk(func):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    frontier.append(sub.attr)
        return order


def _branch_pattern(test: ast.expr) -> Optional[Tuple[Tuple[str, ...], int]]:
    """Extract a route pattern from one if/elif test, if it is one."""
    comparisons = (
        list(test.values) if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) else [test]
    )
    length: Optional[int] = None
    fixed: Dict[int, str] = {}
    anchored = False
    for comparison in comparisons:
        if not (
            isinstance(comparison, ast.Compare)
            and len(comparison.ops) == 1
            and isinstance(comparison.ops[0], ast.Eq)
        ):
            continue
        left, right = comparison.left, comparison.comparators[0]
        # route == ("v1", "healthz")
        if isinstance(left, ast.Name):
            values = _const_tuple(right)
            if values is not None:
                if values and values[0] == "v1":
                    return values, comparison.lineno
                return None
        # len(route) == N
        if (
            isinstance(left, ast.Call)
            and isinstance(left.func, ast.Name)
            and left.func.id == "len"
            and isinstance(right, ast.Constant)
            and isinstance(right.value, int)
        ):
            length = right.value
            continue
        # route[:2] == ("v1", "jobs")   /   route[3] == "heartbeat"
        if isinstance(left, ast.Subscript):
            index = left.slice
            if isinstance(index, ast.Slice):
                prefix = _const_tuple(right)
                if (
                    prefix is not None
                    and index.lower is None
                    and isinstance(index.upper, ast.Constant)
                    and index.upper.value == len(prefix)
                ):
                    for position, value in enumerate(prefix):
                        fixed[position] = value
                    if prefix and prefix[0] == "v1":
                        anchored = True
            elif isinstance(index, ast.Constant) and isinstance(index.value, int):
                value = _const_str(right)
                if value is not None:
                    fixed[index.value] = value
    if length is None or not anchored:
        return None
    segments = tuple(fixed.get(i, WILD) for i in range(length))
    return segments, test.lineno


def _raw_var_names(func: ast.FunctionDef) -> Set[str]:
    """Variables bound from ``self._read_json()`` (plus the idiomatic
    name ``raw``)."""
    names = {"raw"}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = node.value.func
            if isinstance(callee, ast.Attribute) and callee.attr == "_read_json":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _branch_body_keys(
    body: Sequence[ast.stmt], raw_names: Set[str]
) -> Tuple[Optional[FrozenSet[str]], bool]:
    """``(read keys, opaque)`` for one route branch."""
    keys: Set[str] = set()
    opaque = False
    saw_raw = False
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                # raw.get("k", default)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in raw_names
                    and node.args
                ):
                    key = _const_str(node.args[0])
                    if key is not None:
                        saw_raw = True
                        keys.add(key)
                # f(raw): the payload crosses an opaque boundary —
                # except type/shape checks, which read no keys.
                callee = node.func
                is_shape_check = isinstance(callee, ast.Name) and callee.id in (
                    "isinstance",
                    "len",
                    "bool",
                    "type",
                    "repr",
                )
                if not is_shape_check:
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        if isinstance(arg, ast.Name) and arg.id in raw_names:
                            opaque = True
                            saw_raw = True
            elif isinstance(node, ast.Subscript):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in raw_names
                ):
                    key = _const_str(node.slice)
                    if key is not None:
                        saw_raw = True
                        keys.add(key)
    if not saw_raw:
        return None, False
    return frozenset(keys), opaque


def _extract_server_routes(files: Sequence[SourceFile]) -> List[_ServerBranch]:
    branches: List[_ServerBranch] = []
    for source_file in files:
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            handler = _HandlerClass(node)
            do_methods = [
                name for name in handler.methods if name.startswith("do_")
            ]
            if not do_methods:
                continue
            for do_name in sorted(do_methods):
                method = do_name[3:].upper()
                if method not in _HTTP_VERBS:
                    continue
                for func in handler.reachable_from(do_name):
                    raw_names = _raw_var_names(func)
                    for sub in ast.walk(func):
                        if not isinstance(sub, ast.If):
                            continue
                        pattern = _branch_pattern(sub.test)
                        if pattern is None:
                            continue
                        segments, line = pattern
                        read_keys, opaque = _branch_body_keys(
                            sub.body, raw_names
                        )
                        branches.append(
                            _ServerBranch(
                                route=Route(method, segments),
                                line=line,
                                file=source_file,
                                read_keys=read_keys,
                                opaque=opaque,
                            )
                        )
    return branches


# ---------------------------------------------------------------------
# Client-side extraction


def _extract_client_calls(files: Sequence[SourceFile]) -> List[_ClientCall]:
    calls: List[_ClientCall] = []
    for source_file in files:
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.Call) or len(node.args) < 2:
                continue
            verb = _const_str(node.args[0])
            if verb not in _HTTP_VERBS:
                continue
            segments = _path_segments(node.args[1])
            if segments is None or segments[0] != "v1":
                continue
            body_keys: Optional[FrozenSet[str]] = None
            body_expr: Optional[ast.expr] = None
            if len(node.args) >= 3:
                body_expr = node.args[2]
            for keyword in node.keywords:
                if keyword.arg == "body":
                    body_expr = keyword.value
            if isinstance(body_expr, ast.Dict):
                keys = [_const_str(key) for key in body_expr.keys]
                if all(key is not None for key in keys):
                    body_keys = frozenset(keys)  # type: ignore[arg-type]
            calls.append(
                _ClientCall(
                    route=Route(verb, segments),
                    line=node.lineno,
                    file=source_file,
                    body_keys=body_keys,
                )
            )
    return calls


def _matches(client: Route, server: Route) -> bool:
    if client.method != server.method:
        return False
    if len(client.segments) != len(server.segments):
        return False
    for client_segment, server_segment in zip(client.segments, server.segments):
        if server_segment == WILD:
            continue
        if client_segment == WILD:
            return False  # dynamic client segment vs fixed server one
        if client_segment != server_segment:
            return False
    return True


# ---------------------------------------------------------------------
# Documentation side


def _repo_root(files: Sequence[SourceFile]) -> Optional[Path]:
    """The directory holding ``src/`` — located from any linted file
    living under a ``src/repro`` tree; None when linting a detached
    subset (documentation checks then skip)."""
    for source_file in files:
        parts = source_file.path.resolve().parts
        for index in range(len(parts) - 1, 0, -1):
            if parts[index] == "src" and index + 1 < len(parts) and parts[
                index + 1
            ] == "repro":
                return Path(*parts[:index])
    return None


def _documented_routes(root: Path) -> Optional[Set[Route]]:
    api_doc = root / "docs" / "API.md"
    try:
        text = api_doc.read_text(encoding="utf-8")
    except OSError:
        return None
    routes: Set[Route] = set()
    for method, path in _DOC_ROUTE_RE.findall(text):
        segments = tuple(
            WILD
            if segment.startswith("<")
            or segment.startswith("{")
            or segment.startswith(":")
            or segment == WILD
            else segment
            for segment in path.strip("/").split("/")
            if segment
        )
        routes.add(Route(method, segments))
    return routes


# ---------------------------------------------------------------------
# The rules


class ClientCallsUnknownRoute(ProjectRule):
    """PROTO001: a client requests a route no server branch serves."""

    code = "PROTO001"
    title = "client calls a /v1 route the server does not serve"

    def check_project(
        self, files: Sequence[SourceFile]
    ) -> Iterator[Tuple[SourceFile, int, str]]:
        branches = _extract_server_routes(files)
        if not branches:
            return  # no handler in the linted set: nothing to judge
        server_routes = [branch.route for branch in branches]
        for call in _extract_client_calls(files):
            if any(_matches(call.route, route) for route in server_routes):
                continue
            served = ", ".join(
                sorted(
                    {
                        route.render()
                        for route in server_routes
                        if route.method == call.route.method
                    }
                )
            )
            yield (
                call.file,
                call.line,
                f"client requests '{call.route.render()}' but no server "
                f"branch serves it (served {call.route.method} routes: "
                f"{served or 'none'})",
            )


class RouteContractDrift(ProjectRule):
    """PROTO002: payload-key or documentation drift on a known route."""

    code = "PROTO002"
    title = "/v1 route contract drift (payload keys or docs/API.md)"

    def check_project(
        self, files: Sequence[SourceFile]
    ) -> Iterator[Tuple[SourceFile, int, str]]:
        branches = _extract_server_routes(files)
        if not branches:
            return
        # Half 1: client payload keys the handler never reads.
        for call in _extract_client_calls(files):
            if call.body_keys is None:
                continue
            matched = [
                branch
                for branch in branches
                if _matches(call.route, branch.route)
            ]
            if not matched:
                continue  # PROTO001's finding, not ours
            branch = matched[0]
            if branch.opaque or branch.read_keys is None:
                continue
            unread = sorted(call.body_keys - branch.read_keys)
            if unread:
                yield (
                    call.file,
                    call.line,
                    f"client sends payload key(s) {', '.join(unread)} to "
                    f"'{call.route.render()}' but the handler at "
                    f"{branch.file.relpath}:{branch.line} never reads "
                    f"them (reads: "
                    f"{', '.join(sorted(branch.read_keys)) or 'nothing'})",
                )
        # Half 2: every served route documented in docs/API.md.
        root = _repo_root(files)
        if root is None:
            return
        documented = _documented_routes(root)
        if documented is None:
            return  # no docs/API.md next to this tree
        for branch in branches:
            if any(_matches(branch.route, doc) for doc in documented):
                continue
            yield (
                branch.file,
                branch.line,
                f"served route '{branch.route.render()}' is not documented "
                "in docs/API.md (add it to the endpoint table)",
            )
