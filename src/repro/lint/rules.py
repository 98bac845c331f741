"""Rule catalog and AST checker for ``repro lint``.

Each rule encodes an invariant the reproduction's correctness rests on.
The determinism rules (DET*) guard the axiom behind the content-addressed
result cache and the perf regression gate: *same config + same code =>
same metrics, bit for bit*.  KEY001 guards the hashing side of that axiom
(configs that feed cache keys and ledger fingerprints must be frozen and
hashable by value).  OBS001 keeps the tracer schema typed, and EXC001
keeps simulator bugs from being swallowed by blanket handlers.

Rules are scoped by dotted module prefix: a rule only fires in modules
whose dotted name matches one of its ``scopes`` (empty scopes = every
module).  Module names are derived from the file path by
:func:`repro.lint.engine.module_name`.

The checker is a single :class:`ast.NodeVisitor` pass per file.  Import
aliases are tracked (``import numpy as np``, ``from time import
perf_counter``) so that rules match the *canonical* dotted name of a
reference, not its spelling at the use site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Finding", "Rule", "RULES", "RULES_BY_ID", "check_module"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    ``anchors`` lists *additional* lines where an allow tag suppresses
    this finding (beyond the finding's own line and the line above it).
    Findings on decorated defs/classes anchor to their decorator list,
    so a tag above the decorators still counts.  Anchors are suppression
    metadata, not location — they stay out of ``to_dict``.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    anchors: Tuple[int, ...] = ()

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def tag_lines(self) -> Tuple[int, ...]:
        """Every line where an allow tag suppresses this finding."""
        lines = {self.line, self.line - 1}
        for anchor in self.anchors:
            lines.add(anchor)
            lines.add(anchor - 1)
        return tuple(sorted(lines))

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule.

    ``scopes`` is a tuple of dotted module prefixes the rule applies to;
    the empty tuple means the rule applies everywhere.
    """

    id: str
    title: str
    rationale: str
    scopes: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if not self.scopes:
            return True
        return any(
            module == scope or module.startswith(scope + ".") for scope in self.scopes
        )


#: Modules that hold simulated state or compute simulated time.  Host
#: wall-clock readings here would leak nondeterminism into cached results.
_SIM_SCOPES = ("repro.core", "repro.sta", "repro.mem", "repro.branch", "repro.sim")

#: Pure-simulation layers that must not read process environment: their
#: outputs are cached under config/params fingerprints which do not (and
#: must not need to) capture env vars.  ``repro.sim.executor`` is
#: deliberately excluded — cache/jobs/perf-dir knobs live there by design
#: and affect only *where* results go, never their values.
_PURE_SIM_SCOPES = (
    "repro.core",
    "repro.sta",
    "repro.mem",
    "repro.branch",
    "repro.isa",
    "repro.workloads",
    "repro.sim.driver",
)

#: Layers whose iteration order feeds simulation state or serialized
#: output (reports, traces, exports, analysis tables).
_ORDER_SCOPES = _SIM_SCOPES + (
    "repro.isa",
    "repro.workloads",
    "repro.obs",
    "repro.analysis",
)

RULES: Tuple[Rule, ...] = (
    Rule(
        "DET001",
        "no wall-clock in simulation paths",
        "Host time (time.time/perf_counter/datetime.now) read inside a "
        "simulation layer can leak into cached metrics; simulated time is "
        "the scheduler's cycle count.  Host profiling that provably never "
        "feeds sim state carries an allow tag.",
        _SIM_SCOPES,
    ),
    Rule(
        "DET002",
        "no global RNG state",
        "Module-level random/np.random calls share hidden global state "
        "across call sites and processes; draw from repro.common.rng "
        "streams or an explicitly seeded Generator/Random instance.",
    ),
    Rule(
        "DET003",
        "no unordered iteration feeding state or output",
        "Iterating a bare set (or .keys() handed straight to output) makes "
        "order an accident of hashing; sort, or iterate the insertion-"
        "ordered container directly.",
        _ORDER_SCOPES,
    ),
    Rule(
        "DET004",
        "no environment reads in pure-sim layers",
        "os.environ/os.getenv in core/sta/mem/branch/workloads or the sim "
        "driver makes results depend on state the cache key never sees; "
        "env knobs belong at the executor/CLI boundary.",
        _PURE_SIM_SCOPES,
    ),
    Rule(
        "DET005",
        "no salted builtin hash()",
        "Python salts str/bytes hash() per process (PYTHONHASHSEED); use "
        "repro.common.rng.stable_hash32 or hashlib for anything that feeds "
        "keys, sampling, or placement.",
    ),
    Rule(
        "KEY001",
        "frozen-dataclass hygiene for hashed configs",
        "Config dataclasses are hashed into cache keys and ledger "
        "fingerprints: they must be frozen=True, default-immutable, "
        "mutated only in __post_init__, and must not grow runtime "
        "observability fields (tracer/profiler/sanitizer/attrib).",
        ("repro.common.config",),
    ),
    Rule(
        "OBS001",
        "tracer emits use EventKind constants",
        "emit(...) with a literal kind bypasses the typed event schema in "
        "obs/events.py; exporters and filters only understand registered "
        "kinds.",
    ),
    Rule(
        "OBS002",
        "attribution calls use PROV_* constants",
        "set_wrong_context(...)/on_prefetch_fill(...) with a literal "
        "provenance bypasses the shared enum in obs/attrib.py; reports "
        "and the explain CLI only understand registered provenances.",
    ),
    Rule(
        "EXC001",
        "no blanket exception handlers",
        "bare except / except Exception hides simulator bugs as silent "
        "fallbacks; catch typed errors, or justify the boundary with "
        "# lint: allow(EXC001 reason).",
    ),
    # -- flow rules: fired by repro.lint.flow (repro lint --flow), not by
    # the single-file AST pass below.  They live in this catalog so the
    # CLI, SARIF export, allow tags and the baseline treat them like any
    # other rule.
    Rule(
        "ENG001",
        "fast-engine transcriptions mirror their oracle's effect order",
        "Each `# parity: <oracle.qualname>`-tagged function in the fast "
        "engine is a hand-fused transcription of an oracle policy method; "
        "its flattened counter-touch sequence must be order-identical to "
        "the oracle's, or the bit-identity the diff gate samples is "
        "silently broken for unsampled configs.",
        ("repro.sim.fast",),
    ),
    Rule(
        "ENG002",
        "fast-engine counter sites declare their oracle counterpart",
        "A function in the fast engine that touches counters without a "
        "`# parity:` tag (and without being fused under a tagged site) "
        "is a transcription the parity check cannot see; tag it, or "
        "justify with allow(ENG002 reason) why it has no oracle twin.",
        ("repro.sim.fast",),
    ),
)

RULES_BY_ID: Dict[str, Rule] = {r.id: r for r in RULES}


# --- canonical names matched by the determinism rules ---------------------

#: AttributionCollector methods taking a provenance tag (OBS002), with
#: the positional index of that argument at the call site.
_PROV_ARG_METHODS: Dict[str, int] = {
    "set_wrong_context": 0,
    "on_prefetch_fill": 3,
}

_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module-level functions on the stdlib ``random`` module that read or
#: mutate the hidden global Mersenne Twister.
_RANDOM_GLOBAL = frozenset(
    {
        "seed",
        "random",
        "randint",
        "randrange",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "betavariate",
        "gammavariate",
        "lognormvariate",
        "paretovariate",
        "weibullvariate",
        "triangular",
        "vonmisesvariate",
        "getrandbits",
        "randbytes",
    }
)

#: Names under ``numpy.random`` that are fine to reference: constructing
#: an explicit bit generator / Generator is the *compliant* pattern.
_NP_RANDOM_OK = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "default_rng",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

_MUTABLE_DEFAULT_CALLS = frozenset({"list", "dict", "set", "bytearray"})

#: Runtime observability objects that must never become fields of a
#: hashed config dataclass (they would change the cache key per run).
_FOREIGN_CONFIG_FIELDS = frozenset(
    {"tracer", "profiler", "sanitizer", "attrib"}
)


class _Checker(ast.NodeVisitor):
    """Single-pass AST visitor applying every active rule to one module."""

    def __init__(self, module: str, path: str, active: Sequence[Rule]) -> None:
        self.module = module
        self.path = path
        self.active = {r.id for r in active}
        self.findings: List[Finding] = []
        #: local name -> canonical dotted name, built from this file's imports
        self.aliases: Dict[str, str] = {}
        self._func_stack: List[str] = []
        self._config_module = "KEY001" in self.active

    # -- helpers -----------------------------------------------------------

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.active:
            # Findings on decorated defs/classes anchor to the decorator
            # list so an allow tag above the decorators still suppresses
            # (node.lineno is the `def`/`class` line, *below* decorators).
            anchors = tuple(
                d.lineno for d in getattr(node, "decorator_list", [])
            )
            self.findings.append(
                Finding(rule, self.path, node.lineno, node.col_offset,
                        message, anchors=anchors)
            )

    def _canon(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to its canonical dotted name.

        Returns ``None`` for anything not rooted in an import of this
        file (locals, attributes of sim objects, ...), so rules never
        fire on e.g. a method that happens to be called ``choice``.
        """
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._canon(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    # -- imports build the alias map --------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            canonical = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = canonical
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                self.aliases[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # -- DET001 / DET004: references to wall-clock and environment --------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            canonical = self.aliases.get(node.id)
            if canonical in _WALLCLOCK:
                self._report(
                    "DET001",
                    node,
                    f"wall-clock reference `{canonical}` in a simulation path; "
                    "simulated time is the scheduler cycle count "
                    "(host profiling needs an allow tag)",
                )
            elif canonical in ("os.environ", "os.getenv"):
                self._report(
                    "DET004",
                    node,
                    f"environment read `{canonical}` in a pure-sim layer; "
                    "env knobs belong at the executor/CLI boundary",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        canonical = self._canon(node)
        if canonical in _WALLCLOCK:
            self._report(
                "DET001",
                node,
                f"wall-clock reference `{canonical}` in a simulation path; "
                "simulated time is the scheduler cycle count "
                "(host profiling needs an allow tag)",
            )
            return  # do not also flag the inner `time` Name
        if canonical in ("os.environ", "os.getenv"):
            self._report(
                "DET004",
                node,
                f"environment read `{canonical}` in a pure-sim layer; "
                "env knobs belong at the executor/CLI boundary",
            )
            return
        self.generic_visit(node)

    # -- calls: DET002 / DET005 / OBS001 / KEY001 post-init mutation ------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        canonical = self._canon(func)

        if canonical is not None:
            if canonical.startswith("random."):
                tail = canonical.split(".", 1)[1]
                if tail in _RANDOM_GLOBAL:
                    self._report(
                        "DET002",
                        node,
                        f"`{canonical}(...)` uses the hidden global RNG; draw "
                        "from repro.common.rng streams or a seeded "
                        "random.Random(seed) instance",
                    )
            elif canonical.startswith("numpy.random."):
                tail = canonical.rsplit(".", 1)[1]
                if tail not in _NP_RANDOM_OK:
                    self._report(
                        "DET002",
                        node,
                        f"`{canonical}(...)` uses numpy's global RNG state; "
                        "use numpy.random.default_rng(seed) / "
                        "repro.common.rng streams",
                    )

        if (
            isinstance(func, ast.Name)
            and func.id == "hash"
            and func.id not in self.aliases
        ):
            self._report(
                "DET005",
                node,
                "builtin hash() is salted per process (PYTHONHASHSEED); use "
                "repro.common.rng.stable_hash32 or hashlib",
            )

        if isinstance(func, ast.Attribute) and func.attr == "emit":
            kind_arg: Optional[ast.expr] = node.args[0] if node.args else None
            if kind_arg is None:
                for kw in node.keywords:
                    if kw.arg == "kind":
                        kind_arg = kw.value
                        break
            if isinstance(kind_arg, ast.Constant):
                self._report(
                    "OBS001",
                    node,
                    "emit(...) with a literal kind bypasses the typed event "
                    "schema; use an EventKind constant from repro.obs.events",
                )

        if isinstance(func, ast.Attribute) and func.attr in _PROV_ARG_METHODS:
            pos = _PROV_ARG_METHODS[func.attr]
            prov_arg: Optional[ast.expr] = (
                node.args[pos] if len(node.args) > pos else None
            )
            if prov_arg is None:
                for kw in node.keywords:
                    if kw.arg == "prov":
                        prov_arg = kw.value
                        break
            if isinstance(prov_arg, ast.Constant):
                self._report(
                    "OBS002",
                    node,
                    f"{func.attr}(...) with a literal provenance bypasses "
                    "the shared enum; use a PROV_* constant from "
                    "repro.obs.attrib",
                )

        if (
            self._config_module
            and isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
            and "__post_init__" not in self._func_stack
        ):
            self._report(
                "KEY001",
                node,
                "object.__setattr__ outside __post_init__ mutates a frozen "
                "config after it may have been hashed into a cache key",
            )

        self.generic_visit(node)

    # -- DET003: unordered iteration --------------------------------------

    def _unordered_desc(self, node: ast.expr) -> Optional[str]:
        """Describe ``node`` if iterating it has hash-dependent order."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("set", "frozenset")
                and func.id not in self.aliases
            ):
                return f"{func.id}(...)"
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "keys"
                and not node.args
                and not node.keywords
                and self._canon(func) is None
            ):
                return ".keys()"
        return None

    def _check_iter(self, node: ast.expr) -> None:
        desc = self._unordered_desc(node)
        if desc is not None:
            self._report(
                "DET003",
                node,
                f"iteration over {desc} has hash-dependent order; sort it or "
                "iterate the insertion-ordered container",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- EXC001: blanket handlers ------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        blanket: Optional[str] = None
        if node.type is None:
            blanket = "bare `except:`"
        else:
            exprs = (
                list(node.type.elts)
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for expr in exprs:
                name = None
                if isinstance(expr, ast.Name):
                    name = expr.id
                elif isinstance(expr, ast.Attribute):
                    name = expr.attr
                if name in ("Exception", "BaseException"):
                    blanket = f"`except {name}`"
                    break
        if blanket is not None:
            self._report(
                "EXC001",
                node,
                f"{blanket} hides simulator bugs as silent fallbacks; catch "
                "typed errors or justify with `# lint: allow(EXC001 reason)`",
            )
        self.generic_visit(node)

    # -- KEY001: dataclass hygiene -----------------------------------------

    @staticmethod
    def _dataclass_decorator(dec: ast.expr) -> Tuple[bool, bool]:
        """Return ``(is_dataclass, frozen)`` for one decorator node."""

        def _is_dc(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id == "dataclass"
            if isinstance(expr, ast.Attribute):
                return expr.attr == "dataclass"
            return False

        if _is_dc(dec):
            return True, False
        if isinstance(dec, ast.Call) and _is_dc(dec.func):
            for kw in dec.keywords:
                if kw.arg == "frozen":
                    value = kw.value
                    return True, isinstance(value, ast.Constant) and value.value is True
            return True, False
        return False, False

    @staticmethod
    def _mutable_default(value: Optional[ast.expr]) -> Optional[str]:
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id in _MUTABLE_DEFAULT_CALLS:
                return value.func.id
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._config_module:
            self.generic_visit(node)
            return

        is_dataclass = frozen = False
        for dec in node.decorator_list:
            dc, fr = self._dataclass_decorator(dec)
            if dc:
                is_dataclass, frozen = True, fr
                break

        if is_dataclass:
            if not frozen:
                self._report(
                    "KEY001",
                    node,
                    f"config dataclass {node.name} must be frozen=True; it is "
                    "hashed into cache keys and ledger fingerprints",
                )
            for stmt in node.body:
                target_name: Optional[str] = None
                default: Optional[ast.expr] = None
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    target_name, default = stmt.target.id, stmt.value
                elif (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                ):
                    target_name, default = stmt.targets[0].id, stmt.value
                if target_name is None:
                    continue
                if target_name in _FOREIGN_CONFIG_FIELDS:
                    self._report(
                        "KEY001",
                        stmt,
                        f"field `{target_name}` is a runtime observability "
                        "object; keep it out of hashed config dataclasses "
                        "(pass it as a run_simulation/run_program kwarg)",
                    )
                kind = self._mutable_default(default)
                if kind is not None:
                    self._report(
                        "KEY001",
                        stmt,
                        f"field `{target_name}` has a mutable {kind} default; "
                        "use field(default_factory=...) with an immutable "
                        "value, or a tuple",
                    )
        self.generic_visit(node)

    # -- function stack (for the __post_init__ exception) ------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()


def check_module(
    tree: ast.AST,
    module: str,
    path: str,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run every rule active for ``module`` over a parsed tree.

    ``rules`` optionally restricts the pass to a subset of rule ids
    (already validated by the engine).  Findings come back in source
    order; allow-tag and baseline filtering happen in the engine.
    """
    selected = RULES if rules is None else tuple(RULES_BY_ID[r] for r in rules)
    active = [r for r in selected if r.applies_to(module)]
    if not active:
        return []
    checker = _Checker(module, path, active)
    checker.visit(tree)
    checker.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return checker.findings
