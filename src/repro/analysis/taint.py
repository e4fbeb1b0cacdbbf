"""Confidential-taint pass: key material and guest data must not cross
the simulated trust boundary.

The paper's premise is that a confidential VM keeps guest data inside
a trust boundary; this pass makes that property machine-checked.  It
is a forward interprocedural taint analysis over the call graph built
by :mod:`repro.analysis.dataflow`:

- **sources** introduce taint: RSA key generation in
  ``repro.attest.crypto`` (field-sensitive — ``pair.public`` is clean
  while ``pair.d`` stays tainted), guest filesystem/pipe payload
  reads in ``repro.guestos``, and platform measurement capture in the
  ``repro.tee`` backends;
- **sinks** are everything that crosses the simulated boundary:
  relay/socket sends, REST response bodies, telemetry emission,
  journal/result-store serialization, ``warnings``/``print`` logging,
  exception messages, and ``__repr__``/``__str__`` return values;
- **sanitizers** cut flows: digesting (``hashlib``), key
  fingerprints, signing/verification, and seal/encrypt operations.

Per function the engine runs a flow-sensitive abstract interpretation
over an environment of :class:`TaintValue` lattice elements (a label
set plus a per-field map, so dataclass construction and attribute
access stay field-sensitive).  Interprocedural flow uses **function
summaries** — "returns its Nth argument's taint", "passes its Nth
argument to a journal sink via these calls" — computed to a fixpoint
in reverse topological call-graph order, so a tainted value threaded
through pipeline-style helpers is still caught at the original call
site with the full source → sink path.

Findings are ``taint/<sink-kind>`` (``taint/exception``,
``taint/journal``, ...), suppressible with
``# confbench: allow[taint]`` or the specific id, and their
fingerprints are line-number independent like every other pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.core import (
    Finding,
    ImportTable,
    Project,
    Rule,
    Severity,
)
from repro.analysis.dataflow import (
    CallGraph,
    FunctionUnit,
)

#: Cap on taint-lattice recursion (field maps of field maps ...).
_MAX_DEPTH = 2
#: Cap on summary fixpoint rounds (monotone joins converge well before).
_MAX_ROUNDS = 10
_MAX_FIELDS = 12   # field-map breadth cap; wider collapses to flat labels
_MAX_PATH = 6      # summary sink-path length cap (bounds cyclic growth)


# ---------------------------------------------------------------------------
# labels and lattice values


@dataclass(frozen=True)
class TaintLabel:
    """One unit of taint: what kind of secret, introduced where."""

    kind: str      # "key-material", "guest-data", "measurement", ...
    source: str    # human origin, e.g. "repro.attest.crypto.derived_keypair()"


@dataclass(frozen=True)
class ParamLabel:
    """Placeholder taint of a function's Nth parameter (summary mode)."""

    index: int


_EMPTY: frozenset = frozenset()


class TaintValue:
    """A lattice element: labels on the value + known per-field taint."""

    __slots__ = ("labels", "fields")

    def __init__(self, labels: frozenset = _EMPTY,
                 fields: dict[str, "TaintValue"] | None = None) -> None:
        self.labels = labels
        self.fields = fields or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaintValue(labels={set(self.labels)}, fields={self.fields})"

    def deep_labels(self, depth: int = _MAX_DEPTH) -> frozenset:
        """Labels of the value and (recursively) all known fields —
        what escapes when the whole object is serialized/formatted."""
        if not self.fields or depth <= 0:
            return self.labels
        out = set(self.labels)
        for value in self.fields.values():
            out |= value.deep_labels(depth - 1)
        return frozenset(out)

    @staticmethod
    def make(labels: frozenset,
             fields: dict[str, "TaintValue"] | None = None) -> "TaintValue":
        """Normalizing constructor: drops field entries that carry no
        information (clean fields only mask a labeled container) and
        collapses over-wide field maps to their flat labels, so values
        stay small under repeated joins/substitutions."""
        if not fields:
            return TaintValue(labels) if labels else CLEAN
        if labels:
            # explicitly-clean fields mask a labeled container
            # (pair.public stays clean while pair itself is secret)
            kept = dict(fields)
        else:
            kept = {name: value for name, value in fields.items()
                    if value.labels or value.fields}
        if not kept:
            return TaintValue(labels) if labels else CLEAN
        if len(kept) > _MAX_FIELDS:
            flat = set(labels)
            for value in kept.values():
                flat |= value.deep_labels()
            return TaintValue(frozenset(flat))
        return TaintValue(labels, kept)

    def attr(self, name: str) -> "TaintValue":
        """Field-sensitive attribute access: a known field overrides
        the container's own taint; unknown fields inherit it."""
        known = self.fields.get(name)
        if known is not None:
            return known
        return TaintValue(self.labels)

    def with_field(self, name: str, value: "TaintValue") -> "TaintValue":
        fields = dict(self.fields)
        fields[name] = value
        return TaintValue.make(self.labels, fields)

    def join(self, other: "TaintValue",
             depth: int = _MAX_DEPTH) -> "TaintValue":
        if other is self or other.is_clean:
            return self
        if self.is_clean:
            return other
        if depth <= 0:
            return TaintValue(self.deep_labels() | other.deep_labels())
        fields = dict(self.fields)
        for name, value in other.fields.items():
            mine = fields.get(name)
            fields[name] = value if mine is None \
                else mine.join(value, depth - 1)
        return TaintValue.make(self.labels | other.labels, fields)

    @property
    def is_clean(self) -> bool:
        return not self.labels and not self.fields


CLEAN = TaintValue()


# ---------------------------------------------------------------------------
# specification: sources, sinks, sanitizers

# Matchers are ``"<form>:<pattern>"``:
#   qual:NAME    — the call resolves (via imports) to exactly NAME
#   prefix:NAME. — the resolved name starts with NAME.
#   attr:NAME    — any ``<expr>.NAME(...)`` method call
#   suffix:A.B   — the attribute chain of the call ends in ``A.B``


@dataclass(frozen=True)
class SourceSpec:
    """A call that introduces taint."""

    match: str
    kind: str
    #: per-field taint of the returned object; a ``None`` kind marks
    #: the field explicitly clean (``("public", None)``)
    fields: tuple[tuple[str, str | None], ...] = ()
    #: whether the bare value itself carries the label (False for
    #: containers whose secrecy lives in one field)
    container: bool = True


@dataclass(frozen=True)
class SinkSpec:
    """A call that crosses the trust boundary."""

    match: str
    kind: str           # finding sub-rule: taint/<kind>
    description: str    # human text for messages


@dataclass(frozen=True)
class TaintSpec:
    """The boundary model: sources, sinks, sanitizers, trusted code."""

    sources: tuple[SourceSpec, ...]
    sinks: tuple[SinkSpec, ...]
    sanitizers: tuple[str, ...]              # matchers; result is clean
    #: (class name, attribute) pairs that are taint sources when read
    #: off ``self`` inside that class (e.g. ("RsaKeyPair", "d"))
    class_fields: tuple[tuple[str, str, str], ...] = ()
    #: modules that ARE the crypto/TCB — never analyzed, never reported
    trusted_modules: frozenset = frozenset()


#: The private half of an ``RsaKeyPair``: the exponent and its CRT
#: form.  Either prime factors the modulus, and dp or dq yields one.
_KEYPAIR_SECRET_FIELDS = tuple(
    (name, "key-material") for name in ("d", "p", "q", "dp", "dq", "qinv"))


DEFAULT_TAINT_SPEC = TaintSpec(
    sources=(
        SourceSpec(match="qual:repro.attest.crypto.generate_keypair",
                   kind="key-material", container=False,
                   fields=(*_KEYPAIR_SECRET_FIELDS, ("public", None))),
        SourceSpec(match="qual:repro.attest.crypto.derived_keypair",
                   kind="key-material", container=False,
                   fields=(*_KEYPAIR_SECRET_FIELDS, ("public", None))),
        SourceSpec(match="attr:read_file", kind="guest-data"),
        SourceSpec(match="attr:read_all", kind="guest-data"),
        SourceSpec(match="attr:measurement_for", kind="measurement"),
    ),
    sinks=(
        SinkSpec(match="attr:sendall", kind="relay",
                 description="relay/socket send"),
        SinkSpec(match="attr:send_bytes", kind="relay",
                 description="relay/socket send"),
        SinkSpec(match="suffix:wfile.write", kind="response",
                 description="REST response body"),
        SinkSpec(match="attr:_send", kind="response",
                 description="REST response body"),
        SinkSpec(match="suffix:_handle.write", kind="journal",
                 description="journal serialization"),
        SinkSpec(match="attr:put", kind="journal",
                 description="journal/result-store record"),
        SinkSpec(match="attr:count", kind="telemetry",
                 description="metrics emission"),
        SinkSpec(match="attr:gauge", kind="telemetry",
                 description="metrics emission"),
        SinkSpec(match="attr:observe", kind="telemetry",
                 description="metrics emission"),
        SinkSpec(match="attr:emit", kind="telemetry",
                 description="telemetry emission"),
        SinkSpec(match="qual:warnings.warn", kind="log",
                 description="warning text"),
        SinkSpec(match="qual:print", kind="log",
                 description="stdout"),
        SinkSpec(match="prefix:logging.", kind="log",
                 description="log record"),
    ),
    sanitizers=(
        "prefix:hashlib.",
        "attr:fingerprint",
        "attr:hexdigest",
        "attr:digest",
        "attr:sign",
        "qual:repro.attest.crypto.derived_signature",
        "attr:verify",
        "attr:seal",
        "attr:encrypt",
        "qual:len",
        "qual:bool",
        "qual:isinstance",
        "qual:type",
        "qual:hash",
    ),
    class_fields=(
        *(("RsaKeyPair", name, kind)
          for name, kind in _KEYPAIR_SECRET_FIELDS),
        ("QuotingEnclave", "_pck_key", "key-material"),
        ("QuotingEnclave", "_attestation_key", "key-material"),
        ("AmdKeyInfrastructure", "_vcek_key", "key-material"),
        ("IntelPcs", "_tcb_signing_key", "key-material"),
        ("CertificateAuthority", "keypair", "key-material"),
    ),
    trusted_modules=frozenset({"repro.attest.crypto"}),
)


def _call_matchers(node: ast.Call,
                   table: ImportTable) -> tuple[str | None, str | None, str]:
    """(resolved qualname, method attr, dotted attribute-chain text)."""
    func = node.func
    qual = table.resolve(func)
    attr = func.attr if isinstance(func, ast.Attribute) else None
    parts: list[str] = []
    probe = func
    while isinstance(probe, ast.Attribute):
        parts.insert(0, probe.attr)
        probe = probe.value
    if isinstance(probe, ast.Name):
        parts.insert(0, probe.id)
    return qual, attr, ".".join(parts)


def _matches(matcher: str, qual: str | None, attr: str | None,
             chain: str) -> bool:
    form, _, pattern = matcher.partition(":")
    if form == "qual":
        return qual == pattern
    if form == "prefix":
        return qual is not None and qual.startswith(pattern)
    if form == "attr":
        return attr == pattern
    if form == "suffix":
        return chain == pattern or chain.endswith("." + pattern)
    raise ValueError(f"unknown taint matcher form: {matcher!r}")


# ---------------------------------------------------------------------------
# function summaries


@dataclass(frozen=True)
class SinkHit:
    """A sink reached by a parameter, recorded in a summary."""

    kind: str                 # sub-rule, e.g. "journal"
    description: str          # sink's human text
    path: tuple[str, ...]     # call chain from the summarized function


@dataclass
class FunctionSummary:
    """What a call to this function does with its arguments."""

    returns: TaintValue = field(default_factory=lambda: CLEAN)
    param_sinks: dict[int, tuple[SinkHit, ...]] = field(default_factory=dict)

    def fingerprint(self) -> tuple:
        """Hashable state for fixpoint change detection."""
        def tv_state(tv: TaintValue, depth: int = _MAX_DEPTH) -> tuple:
            fields = () if depth <= 0 else tuple(sorted(
                (name, tv_state(value, depth - 1))
                for name, value in tv.fields.items()))
            return (tuple(sorted(map(repr, tv.labels))), fields)
        return (tv_state(self.returns),
                tuple(sorted((i, hits)
                             for i, hits in self.param_sinks.items())))


# ---------------------------------------------------------------------------
# the engine


class TaintEngine:
    """Runs the interprocedural analysis over one project."""

    def __init__(self, project: Project, spec: TaintSpec) -> None:
        self.project = project
        self.spec = spec
        self.index = project.index
        self.callgraph = CallGraph.build(project)
        self.summaries: dict[str, FunctionSummary] = {}

    def run(self) -> list[Finding]:
        order = [name for name in self.callgraph.topological()
                 if not self._trusted(self.index.functions[name].module.name)]
        # Worklist fixpoint: analyze once in callee-before-caller order,
        # then re-analyze only the callers of functions whose summaries
        # changed.  Joins are monotone; the round cap bounds cycles.
        rounds = {name: 0 for name in order}
        pending = list(order)
        in_pending = set(order)
        while pending:
            qualname = pending.pop(0)
            in_pending.discard(qualname)
            if rounds[qualname] >= _MAX_ROUNDS:
                continue
            rounds[qualname] += 1
            unit = self.index.functions[qualname]
            summary, _ = _FunctionAnalysis(self, unit).run()
            previous = self.summaries.get(qualname)
            if previous is not None and \
                    previous.fingerprint() == summary.fingerprint():
                continue
            self.summaries[qualname] = summary
            for caller in self.callgraph.callers(qualname):
                if caller in rounds and caller not in in_pending:
                    pending.append(caller)
                    in_pending.add(caller)
        findings: dict[tuple, Finding] = {}
        for qualname in order:
            unit = self.index.functions[qualname]
            _, unit_findings = _FunctionAnalysis(self, unit).run()
            for finding in unit_findings:
                key = (finding.path, finding.line, finding.col,
                       finding.rule, finding.message)
                findings.setdefault(key, finding)
        return [findings[key] for key in sorted(findings)]

    def _trusted(self, module_name: str) -> bool:
        return module_name in self.spec.trusted_modules


class _FunctionAnalysis:
    """One flow-sensitive pass over one function body."""

    def __init__(self, engine: TaintEngine, unit: FunctionUnit) -> None:
        self.engine = engine
        self.spec = engine.spec
        self.unit = unit
        self.table = engine.index.import_tables[unit.module.name]
        self.env: dict[str, TaintValue] = {}
        self.returns = CLEAN
        self.param_sinks: dict[int, list[SinkHit]] = {}
        self.findings: list[Finding] = []
        self._params = unit.param_names

    def run(self) -> tuple[FunctionSummary, list[Finding]]:
        for position, name in enumerate(self._params):
            self.env[name] = TaintValue(frozenset({ParamLabel(position)}))
        self._block(self.unit.node.body)
        if self.unit.node.name in ("__repr__", "__str__"):
            self._check_sink_value(
                self.returns, "repr",
                f"{self.unit.node.name} return value", self.unit.node,
                path=())
        summary = FunctionSummary(
            returns=self.returns,
            param_sinks={i: tuple(hits)
                         for i, hits in sorted(self.param_sinks.items())})
        return summary, self.findings

    # -- statements ---------------------------------------------------

    def _block(self, statements: list[ast.stmt]) -> None:
        for statement in statements:
            self._statement(statement)

    def _statement(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            value = self._eval(node.value)
            for target in node.targets:
                self._bind(target, value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind(node.target, self._eval(node.value))
        elif isinstance(node, ast.AugAssign):
            value = self._eval(node.value)
            if isinstance(node.target, ast.Name):
                current = self.env.get(node.target.id, CLEAN)
                self._bind(node.target, current.join(value))
            else:
                self._bind(node.target, value)
        elif isinstance(node, ast.Expr):
            self._eval(node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.returns = self.returns.join(self._eval(node.value))
        elif isinstance(node, ast.Raise):
            self._raise(node)
        elif isinstance(node, ast.If):
            self._eval(node.test)
            self._branch([node.body, node.orelse])
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iterated = self._eval(node.iter)
            self._bind(node.target, TaintValue(iterated.deep_labels()))
            # two passes: loop-carried taint stabilizes for the common
            # accumulate-in-loop patterns
            self._branch([node.body + node.body + node.orelse, []])
        elif isinstance(node, ast.While):
            self._eval(node.test)
            self._branch([node.body + node.body + node.orelse, []])
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value)
            self._block(node.body)
        elif isinstance(node, ast.Try):
            branches = [node.body]
            for handler in node.handlers:
                branches.append(list(handler.body))
            branches.append(list(node.orelse))
            self._branch(branches)
            self._block(node.finalbody)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass   # nested scopes are separate units
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(node, (ast.Assert,)):
            self._eval(node.test)
        # Import/Global/Nonlocal/Pass/Break/Continue: no taint flow

    def _branch(self, bodies: list[list[ast.stmt]]) -> None:
        """Analyze alternative bodies on env copies and join."""
        base = dict(self.env)
        merged: dict[str, TaintValue] = dict(base)
        for body in bodies:
            self.env = dict(base)
            self._block(body)
            for name, value in self.env.items():
                current = merged.get(name)
                merged[name] = value if current is None \
                    or current is value else current.join(value)
        self.env = merged

    def _bind(self, target: ast.expr, value: TaintValue) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                container = self.env.get(base.id, CLEAN)
                self.env[base.id] = container.with_field(target.attr, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            element = TaintValue(value.deep_labels())
            for item in target.elts:
                inner = item.value if isinstance(item, ast.Starred) else item
                self._bind(inner, element)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                container = self.env.get(base.id, CLEAN)
                self.env[base.id] = container.join(
                    TaintValue(value.deep_labels()))
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value)

    def _raise(self, node: ast.Raise) -> None:
        if node.exc is None:
            return
        exc = node.exc
        if isinstance(exc, ast.Call):
            for arg in exc.args:
                self._check_sink_value(
                    self._eval(arg), "exception", "exception message",
                    arg, path=())
            for keyword in exc.keywords:
                self._check_sink_value(
                    self._eval(keyword.value), "exception",
                    "exception message", keyword.value, path=())
        else:
            self._check_sink_value(self._eval(exc), "exception",
                                   "exception message", exc, path=())

    # -- expressions --------------------------------------------------

    def _eval(self, node: ast.expr) -> TaintValue:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, CLEAN)
        if isinstance(node, ast.Constant):
            return CLEAN
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.JoinedStr):
            labels: set = set()
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    labels |= self._eval(part.value).deep_labels()
            return TaintValue(frozenset(labels))
        if isinstance(node, ast.FormattedValue):
            return TaintValue(self._eval(node.value).deep_labels())
        if isinstance(node, ast.BinOp):
            return self._eval(node.left).join(self._eval(node.right))
        if isinstance(node, ast.BoolOp):
            out = CLEAN
            for value in node.values:
                out = out.join(self._eval(value))
            return out
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return CLEAN   # a bool; equality oracles are out of scope
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body).join(self._eval(node.orelse))
        if isinstance(node, ast.Dict):
            fields: dict[str, TaintValue] = {}
            labels: set = set()
            for key, value in zip(node.keys, node.values):
                value_tv = self._eval(value)
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    fields[key.value] = value_tv
                else:
                    if key is not None:
                        labels |= self._eval(key).deep_labels()
                    labels |= value_tv.deep_labels()
            return TaintValue.make(frozenset(labels), fields)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            labels = set()
            for item in node.elts:
                inner = item.value if isinstance(item, ast.Starred) else item
                labels |= self._eval(inner).deep_labels()
            return TaintValue(frozenset(labels))
        if isinstance(node, ast.Subscript):
            self._eval(node.slice)
            return TaintValue(self._eval(node.value).deep_labels())
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = value
            return value
        if isinstance(node, ast.Lambda):
            return CLEAN
        # comprehensions and anything else: join every child expression
        out = CLEAN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out = out.join(TaintValue(self._eval(child).deep_labels()))
            elif isinstance(child, ast.comprehension):
                out = out.join(
                    TaintValue(self._eval(child.iter).deep_labels()))
        return out

    def _eval_attribute(self, node: ast.Attribute) -> TaintValue:
        base = self._eval(node.value)
        value = base.attr(node.attr)
        owner = self.unit.owner_class
        if (isinstance(node.value, ast.Name) and node.value.id == "self"
                and owner is not None and node.attr not in base.fields):
            owner_name = owner.rsplit(".", 1)[-1]
            for class_name, attr, kind in self.spec.class_fields:
                if class_name == owner_name and attr == node.attr:
                    label = TaintLabel(
                        kind=kind, source=f"{owner_name}.{attr}")
                    # keypair-shaped: the public half stays clean
                    return TaintValue.make(
                        value.labels | frozenset({label}),
                        {"public": CLEAN})
        return value

    # -- calls --------------------------------------------------------

    def _eval_call(self, node: ast.Call) -> TaintValue:
        qual, attr, chain = _call_matchers(node, self.table)
        positional = [self._eval(arg) for arg in node.args]
        keywords = {kw.arg: self._eval(kw.value) for kw in node.keywords}
        arg_values = positional + list(keywords.values())

        for sanitizer in self.spec.sanitizers:
            if _matches(sanitizer, qual, attr, chain):
                return CLEAN

        for source in self.spec.sources:
            if _matches(source.match, qual, attr, chain):
                return self._source_value(source, qual, attr)

        for sink in self.spec.sinks:
            if _matches(sink.match, qual, attr, chain):
                sink_name = qual or chain or attr or "call"
                checked = list(arg_values)
                func = node.func
                # a tainted receiver is data too (``run.emit(registry)``)
                # — but not bare ``self``, whose methods' own arguments
                # are what carry taint into the sink
                if isinstance(func, ast.Attribute) and not (
                        isinstance(func.value, ast.Name)
                        and func.value.id == "self"):
                    checked.append(self._eval(func.value))
                for value in checked:
                    self._check_sink_value(
                        value, sink.kind,
                        f"{sink.description} ({sink_name})", node, path=())
                return CLEAN

        target = self._resolve_target(node, qual)
        if target is not None:
            return self._apply_target(node, target, positional, keywords)

        # Unknown call: taint flows args (and a tainted receiver)
        # through to the result — str/repr/json.dumps/format and
        # arbitrary methods on secret-bearing objects stay tainted.
        labels: set = set()
        for value in arg_values:
            labels |= value.deep_labels()
        if isinstance(node.func, ast.Attribute):
            labels |= self._eval(node.func.value).deep_labels()
        return TaintValue(frozenset(labels))

    def _source_value(self, source: SourceSpec, qual: str | None,
                      attr: str | None) -> TaintValue:
        origin = f"{qual or attr}()"
        label = TaintLabel(kind=source.kind, source=origin)
        fields = {}
        for name, kind in source.fields:
            if kind is None:
                fields[name] = CLEAN
            else:
                fields[name] = TaintValue(frozenset(
                    {TaintLabel(kind=kind, source=origin)}))
        labels = frozenset({label}) if source.container else _EMPTY
        return TaintValue(labels, fields)

    def _resolve_target(self, node: ast.Call,
                        qual: str | None) -> str | None:
        """A project function/class qualname for this call, if known."""
        index = self.engine.index
        func = node.func
        candidates: list[str] = []
        if qual is not None:
            candidates.append(qual)
        if isinstance(func, ast.Name) and func.id not in self.unit.locals:
            candidates.append(f"{self.unit.module.name}.{func.id}")
        if isinstance(func, ast.Attribute):
            base = func.value
            if (isinstance(base, ast.Name) and base.id == "self"
                    and self.unit.owner_class is not None):
                candidates.append(f"{self.unit.owner_class}.{func.attr}")
            if isinstance(base, ast.Name) and base.id not in self.unit.locals:
                candidates.append(
                    f"{self.unit.module.name}.{base.id}.{func.attr}")
        for candidate in candidates:
            canonical = index.canonical(candidate)
            if canonical in index.functions or canonical in index.classes:
                return canonical
        return None

    def _apply_target(self, node: ast.Call, target: str,
                      positional: list[TaintValue],
                      keywords: dict[str | None, TaintValue]) -> TaintValue:
        index = self.engine.index
        if target in index.classes:
            # Constructor: keyword args become fields (field-sensitive
            # dataclass construction); positional taint lands on the
            # container.
            labels: set = set()
            for value in positional:
                labels |= value.deep_labels()
            fields = {name: value for name, value in keywords.items()
                      if name is not None}
            for name, value in keywords.items():
                if name is None:
                    labels |= value.deep_labels()
            return TaintValue.make(frozenset(labels), fields)

        unit = index.functions[target]
        summary = self.engine.summaries.get(target)
        if summary is None:
            summary = FunctionSummary()

        argmap = self._argument_map(node, unit, positional, keywords)

        # param -> sink flows recorded in the callee's summary fire at
        # this call site when the argument is really tainted, or extend
        # this function's own summary when it is a parameter.
        for position, hits in summary.param_sinks.items():
            value = argmap.get(position)
            if value is None:
                continue
            deep = value.deep_labels()
            for hit in hits:
                if len(hit.path) >= _MAX_PATH:
                    continue   # deep cyclic chain; already reported shorter
                extended = SinkHit(kind=hit.kind,
                                   description=hit.description,
                                   path=(target, *hit.path))
                self._check_sink_labels(deep, extended, node)

        return self._substitute(summary.returns, argmap)

    def _argument_map(self, node: ast.Call, unit: FunctionUnit,
                      positional: list[TaintValue],
                      keywords: dict[str | None, TaintValue],
                      ) -> dict[int, TaintValue]:
        """Caller argument taints keyed by callee parameter position."""
        params = unit.param_names
        argmap: dict[int, TaintValue] = {}
        offset = 0
        func = node.func
        if unit.owner_class is not None and isinstance(func, ast.Attribute):
            base = func.value
            class_short = unit.owner_class.rsplit(".", 1)[-1]
            unbound = (isinstance(base, ast.Name)
                       and base.id == class_short
                       and base.id not in self.unit.locals)
            if not unbound:
                # bound method call: parameter 0 is the receiver
                offset = 1
                argmap[0] = self._eval(base)
        for position, value in enumerate(positional):
            argmap[position + offset] = value
        for name, value in keywords.items():
            if name is None:
                continue
            if name in params:
                argmap[params.index(name)] = value
        return argmap

    def _substitute(self, tv: TaintValue, argmap: dict[int, TaintValue],
                    depth: int = _MAX_DEPTH) -> TaintValue:
        labels: set = set()
        for label in tv.labels:
            if isinstance(label, ParamLabel):
                value = argmap.get(label.index)
                if value is not None:
                    labels |= value.deep_labels()
            else:
                labels.add(label)
        fields = {}
        if depth > 0:
            fields = {name: self._substitute(value, argmap, depth - 1)
                      for name, value in tv.fields.items()}
        return TaintValue.make(frozenset(labels), fields)

    # -- sink reporting -----------------------------------------------

    def _check_sink_value(self, value: TaintValue, kind: str,
                          description: str, node: ast.AST,
                          path: tuple[str, ...]) -> None:
        hit = SinkHit(kind=kind, description=description, path=path)
        self._check_sink_labels(value.deep_labels(), hit, node)

    def _check_sink_labels(self, labels: frozenset, hit: SinkHit,
                           node: ast.AST) -> None:
        real = sorted((label for label in labels
                       if isinstance(label, TaintLabel)),
                      key=lambda label: (label.kind, label.source))
        params = [label for label in labels if isinstance(label, ParamLabel)]
        for label in real:
            self.findings.append(self._finding(label, hit, node))
        for label in params:
            self.param_sinks.setdefault(label.index, [])
            if hit not in self.param_sinks[label.index]:
                self.param_sinks[label.index].append(hit)

    def _finding(self, label: TaintLabel, hit: SinkHit,
                 node: ast.AST) -> Finding:
        flow = " -> ".join((label.source, *hit.path, hit.description))
        article = "an" if hit.kind[:1] in "aeiou" else "a"
        return Finding(
            rule=f"taint/{hit.kind}",
            severity=Severity.ERROR,
            path=str(self.unit.module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=(f"{label.kind} reaches {article} {hit.kind} sink: "
                     f"{flow}; "
                     "digest, seal, or redact it before it crosses the "
                     "trust boundary"),
            symbol=self.unit.relname,
            module=self.unit.module.name,
        )


class ConfidentialTaintRule(Rule):
    """Forward taint: key material/guest data must not cross the boundary."""

    id = "taint"
    severity = Severity.ERROR

    def check_project(self, project: Project) -> Iterator[Finding]:
        yield from TaintEngine(project, DEFAULT_TAINT_SPEC).run()
