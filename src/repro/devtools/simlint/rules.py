"""Built-in simlint rules: the codebase's invariants, statically checked.

Every rule here guards something the test suite only catches *dynamically*
(bit-identical fingerprint diffs, hours later) or not at all.  Rules are
deliberately narrow: each one encodes a concrete invariant of this
reproduction — where randomness may come from, what the hot paths may
allocate, how schemes reach the registry — not generic style.  See
``--explain CODE`` or ``docs/ARCHITECTURE.md`` ("Static analysis layer")
for the rationale behind each.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.devtools.simlint.engine import FileContext, Rule, Violation
from repro.devtools.simlint.registry import register_rule

__all__ = [
    "WallClockRule",
    "SetIterationRule",
    "FloatTimeEqualityRule",
    "ConcreteImportRule",
    "RegisterSchemeConfigRule",
    "ConfigMutationRule",
    "HotPathRule",
    "PrintRule",
    "ProfilerImportRule",
    "TelemetryGuardRule",
]

#: The deterministic simulation core: everything here must be a pure
#: function of the scenario spec + seed.
_SIM_CORE = ("repro.sim", "repro.cache", "repro.schemes", "repro.workloads")

#: Modules that handle simulated-time floats (µs).
_TIME_SCOPE = _SIM_CORE + ("repro.core", "repro.devices", "repro.io")


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The last identifier of a ``Name`` / dotted ``Attribute`` chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register_rule
class WallClockRule(Rule):
    code = "SL001"
    title = "no wall-clock or ambient RNG in the simulation core"
    explanation = (
        "Modules under repro.sim / repro.cache / repro.schemes /\n"
        "repro.workloads must not import random, uuid, secrets, time, or\n"
        "datetime.  The simulation is a pure function of (scenario spec,\n"
        "seed): randomness flows through the per-tenant\n"
        "numpy.random.Generator streams handed out by repro.sim.rng, and\n"
        "the only clock is Simulator.now.  A single time.time() or\n"
        "random.random() in this core silently breaks the bit-identical\n"
        "fingerprints the golden suite diffs against."
    )

    _FORBIDDEN = {"random", "uuid", "secrets", "time", "datetime"}

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module_in(_SIM_CORE) or ctx.module == "repro.sim.rng":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            for name in names:
                if name in self._FORBIDDEN:
                    yield self.violation(
                        ctx,
                        node,
                        f"{name!r} imported in the simulation core; use "
                        "repro.sim.rng streams and Simulator.now instead",
                    )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_set_annotation(node: ast.expr) -> bool:
    base = node.value if isinstance(node, ast.Subscript) else node
    name = _terminal_name(base)
    return name in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")


@register_rule
class SetIterationRule(Rule):
    code = "SL002"
    title = "no iteration over bare sets in the simulation core"
    explanation = (
        "Iterating a set yields hash order, which varies across Python\n"
        "builds and with PYTHONHASHSEED for str/object elements.  Where\n"
        "the loop body schedules events or accumulates stats, that order\n"
        "leaks into results and breaks determinism (the reason\n"
        "CacheController._flushing is membership-tested, never iterated).\n"
        "Iterate sorted(the_set) — or keep a list alongside the set when\n"
        "insertion order is the meaningful one."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module_in(_TIME_SCOPE):
            return
        set_names: set[tuple[str, str]] = set()
        for node in ast.walk(ctx.tree):
            value: Optional[ast.expr] = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign):
                if _is_set_annotation(node.annotation):
                    targets = [node.target]
                    set_names.update(self._keys(targets))
                    continue
                value, targets = node.value, [node.target]
            if value is not None and _is_set_expr(value):
                set_names.update(self._keys(targets))
        for node in ast.walk(ctx.tree):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if _is_set_expr(it) or self._key(it) in set_names:
                    yield self.violation(
                        ctx,
                        it,
                        "iteration over a bare set yields nondeterministic "
                        "order; iterate sorted(...) instead",
                    )

    @staticmethod
    def _key(node: ast.expr) -> Optional[tuple[str, str]]:
        if isinstance(node, ast.Name):
            return ("name", node.id)
        if isinstance(node, ast.Attribute):
            return ("attr", node.attr)
        return None

    @classmethod
    def _keys(cls, targets: Iterable[ast.expr]) -> Iterator[tuple[str, str]]:
        for target in targets:
            key = cls._key(target)
            if key is not None:
                yield key


@register_rule
class FloatTimeEqualityRule(Rule):
    code = "SL003"
    title = "no float == / != on simulated-time values"
    explanation = (
        "Simulated timestamps are float µs accumulated through repeated\n"
        "addition; two logically simultaneous events can differ in the\n"
        "last ulp, so exact equality on them is a latent determinism bug.\n"
        "Compare with <, <=, or an explicit tolerance — and where exact\n"
        "equality is genuinely intended, say so with a justified pragma."
    )

    _EXACT = {"time", "now"}
    _SUFFIXES = ("_time", "_us")

    def _time_like(self, node: ast.expr) -> bool:
        name = _terminal_name(node)
        if name is None:
            return False
        return name in self._EXACT or name.endswith(self._SUFFIXES)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module_in(_TIME_SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                # A string constant on either side rules out a float.
                if any(
                    isinstance(o, ast.Constant) and isinstance(o.value, str)
                    for o in (left, right)
                ):
                    continue
                if self._time_like(left) or self._time_like(right):
                    yield self.violation(
                        ctx,
                        node,
                        "exact float equality on a simulated-time value; "
                        "use ordering or an explicit tolerance",
                    )
                    break


@register_rule
class ConcreteImportRule(Rule):
    code = "SL004"
    title = "concrete scheme/workload classes resolve through registries"
    explanation = (
        "Scheme and workload implementations are reached by *name*\n"
        "through repro.schemes.registry and the workload table — that is\n"
        "what keeps the axis pluggable (PR 5).  Importing WbBaseline,\n"
        "SibController, LbicaController, the capacity schemes, or\n"
        "MultiTenantWorkload directly re-hardcodes the very if/elif\n"
        "chains the registries removed.  Dispatch on scheme.name (every\n"
        "Scheme declares one) or go through build_scheme(); only each\n"
        "class's own package surface re-exports it."
    )

    #: concrete class -> (defining module, extra modules allowed to import it)
    _CONCRETE: dict[str, tuple[str, tuple[str, ...]]] = {
        "WbBaseline": ("repro.baselines.wb", ("repro.baselines",)),
        "SibController": ("repro.baselines.sib", ("repro.baselines",)),
        "LbicaController": ("repro.core.lbica", ("repro.core",)),
        "StaticPartitionScheme": ("repro.schemes.partition", ("repro.schemes",)),
        "DynamicShareScheme": ("repro.schemes.dynshare", ("repro.schemes",)),
        "MultiTenantWorkload": (
            "repro.workloads.multi_tenant",
            # spec.py builds workloads from scenario specs and system.py
            # hosts the WORKLOADS table — the two registry surfaces.
            ("repro.workloads", "repro.workloads.spec", "repro.experiments.system"),
        ),
    }

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module.startswith("repro.") or ctx.module.startswith(
            "repro.devtools"
        ):
            return
        if ctx.module == "repro.schemes.registry":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                entry = self._CONCRETE.get(alias.name)
                if entry is None:
                    continue
                defining, extra = entry
                if ctx.module == defining or ctx.module in extra:
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"concrete class {alias.name!r} imported outside its "
                    f"registry surface; resolve through the registry or "
                    f"dispatch on .name",
                )


@register_rule
class RegisterSchemeConfigRule(Rule):
    code = "SL005"
    title = "every register_scheme call site declares config_cls"
    explanation = (
        "build_scheme() wires a scheme's config from\n"
        "SystemConfig.<config_field> based on the class's config_cls\n"
        "declaration; a registration without one is ambiguous — did the\n"
        "author forget the config plumbing, or is the scheme genuinely\n"
        "config-less?  Make it explicit: declare config_cls = None for\n"
        "config-less schemes, or the dataclass the scheme consumes."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        classes: dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if _terminal_name(target) == "register_scheme":
                        yield from self._check_class(ctx, node, node)
            elif (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) == "register_scheme"
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                cls = classes.get(node.args[0].id)
                if cls is not None:
                    yield from self._check_class(ctx, cls, node)

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef, site: ast.AST
    ) -> Iterator[Violation]:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "config_cls"
                for t in stmt.targets
            ):
                return
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "config_cls"
            ):
                return
        yield self.violation(
            ctx,
            site,
            f"scheme {cls.name!r} registered without declaring config_cls "
            "(use config_cls = None for config-less schemes)",
        )


@register_rule
class ConfigMutationRule(Rule):
    code = "SL006"
    title = "no SystemConfig attribute mutation after construction"
    explanation = (
        "A SystemConfig digest is part of every RunKey: the store and\n"
        "campaign layer assume the config an artifact was stamped with is\n"
        "the config the run actually used.  Mutating config attributes\n"
        "after system construction silently invalidates that digest (and\n"
        "any cached store hit).  Build a new config with\n"
        "dataclasses.replace() instead (repro.config itself is exempt)."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module.startswith("repro.") or ctx.module == "repro.config":
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets: list[ast.expr] = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                base = target.value
                if (isinstance(base, ast.Name) and base.id == "config") or (
                    isinstance(base, ast.Attribute) and base.attr == "config"
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"mutation of config attribute {target.attr!r} after "
                        "construction; use dataclasses.replace() to derive "
                        "a new config",
                    )


@register_rule
class HotPathRule(Rule):
    code = "SL007"
    title = "hot-path functions stay allocation-lean"
    explanation = (
        "The per-request and per-event chain (Simulator.run/schedule,\n"
        "Workload._arrive/_deliver/on_request_complete,\n"
        "HotColdPattern.sample, RawDraws.random/integers/exponential,\n"
        "CacheController.submit/_do_read/_do_write/_sync_done,\n"
        "CacheStore.lookup, StorageDevice.submit/_dispatch/_start/\n"
        "_complete, SsdModel/HddModel.service_time, _WindowAccum.record,\n"
        "ExperimentSystem._on_complete, and the per-IO constructors\n"
        "Request/DeviceOp/CacheBlock.__init__) runs millions of times per\n"
        "scenario, so every allocation in it is multiplied; _start and\n"
        "each service_time run once per device op.  Inside these\n"
        "functions: no lambdas and no nested defs — schedule a bound\n"
        "method with positional arguments instead of a closure.  And no\n"
        "member lookup through the package's enums (OpTag.READ,\n"
        "WritePolicy.WB, WorkloadGroup.MIXED_RW): on Python 3.11 each one\n"
        "goes through the enum metaclass's __getattr__, several times the\n"
        "cost of a global read, so bind the member to a module-level\n"
        "alias (as cache/controller.py does for the four queue tags).\n"
        "The three constructors build one object per request, device op\n"
        "or cached block, so they allocate nothing else: no set(), dict()\n"
        "or list() call and no list, dict or set display or comprehension.\n"
        "Share an immutable empty value until one is needed (DeviceOp's\n"
        "merged starts as a shared empty tuple), and keep data only a\n"
        "trace reads out of them: the obs layer notes it from the\n"
        "devices' transition observers."
    )

    _HOT: frozenset[tuple[str, str]] = frozenset(
        {
            ("repro.sim.engine", "Simulator.run"),
            ("repro.sim.engine", "Simulator.schedule"),
            ("repro.sim.fastdraw", "RawDraws.random"),
            ("repro.sim.fastdraw", "RawDraws.integers"),
            ("repro.sim.fastdraw", "RawDraws.exponential"),
            ("repro.workloads.base", "Workload._arrive"),
            ("repro.workloads.base", "Workload._deliver"),
            ("repro.workloads.base", "Workload.on_request_complete"),
            ("repro.workloads.access_patterns", "HotColdPattern.sample"),
            ("repro.cache.controller", "CacheController.submit"),
            ("repro.cache.controller", "CacheController._do_read"),
            ("repro.cache.controller", "CacheController._do_write"),
            ("repro.cache.controller", "CacheController._sync_done"),
            ("repro.cache.store", "CacheStore.lookup"),
            ("repro.devices.base", "StorageDevice.submit"),
            ("repro.devices.base", "StorageDevice._dispatch"),
            ("repro.devices.base", "StorageDevice._start"),
            ("repro.devices.base", "StorageDevice._complete"),
            ("repro.devices.ssd", "SsdModel.service_time"),
            ("repro.devices.hdd", "HddModel.service_time"),
            ("repro.trace.iostat", "_WindowAccum.record"),
            ("repro.experiments.system", "ExperimentSystem._on_complete"),
            ("repro.io.request", "Request.__init__"),
            ("repro.io.request", "DeviceOp.__init__"),
            ("repro.cache.block", "CacheBlock.__init__"),
        }
    )

    #: Container constructors flagged in a hot ``__init__`` (the per-IO
    #: objects' constructors).
    _CONTAINER_CALLS = frozenset({"set", "dict", "list"})

    #: Container displays and comprehensions flagged there.
    _CONTAINER_NODES = (
        ast.List,
        ast.Dict,
        ast.Set,
        ast.ListComp,
        ast.DictComp,
        ast.SetComp,
    )

    #: The package's enum classes, whose member lookups are flagged.
    _ENUMS = frozenset({"OpTag", "WritePolicy", "WorkloadGroup"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        hot_names = {
            qual for mod, qual in self._HOT if mod == ctx.module
        }
        if not hot_names:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if f"{node.name}.{item.name}" in hot_names:
                    yield from self._check_body(ctx, item)

    def _check_body(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        constructor = fn.name == "__init__"
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if constructor:
                    yield from self._check_allocation(ctx, node)
                if isinstance(node, ast.Lambda):
                    yield self.violation(
                        ctx, node, "lambda allocated in a hot-path function"
                    )
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield self.violation(
                        ctx,
                        node,
                        "nested function defined in a hot-path function",
                    )
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in self._ENUMS
                ):
                    yield self.violation(
                        ctx,
                        node,
                        f"enum member lookup {node.value.id}.{node.attr} in a "
                        "hot-path function; use a module-level alias",
                    )

    def _check_allocation(self, ctx: FileContext, node: ast.AST) -> Iterator[Violation]:
        if isinstance(node, self._CONTAINER_NODES):
            kind = type(node).__name__.lower().replace("comp", " comprehension")
            yield self.violation(ctx, node, f"{kind} built in a per-IO constructor")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._CONTAINER_CALLS
        ):
            yield self.violation(
                ctx, node, f"{node.func.id}() called in a per-IO constructor"
            )


@register_rule
class PrintRule(Rule):
    code = "SL008"
    title = "no stdout prints outside CLI modules"
    explanation = (
        "Library modules under repro.* are imported by the campaign\n"
        "runner, the benchmark suite, and tests that parse captured\n"
        "stdout (the CLI contract tests diff it).  A stray print() in a\n"
        "library module corrupts --json output and progress displays.\n"
        "Print only from CLI modules (*.cli, repro.__main__), from\n"
        "__main__ guard blocks, or with an explicit file= destination;\n"
        "gate verbose progress output behind a pragma-justified flag."
    )

    _ALLOWED_MODULES = ("repro.__main__", "repro.scenario.smoke")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.module.startswith("repro."):
            return
        if ctx.module in self._ALLOWED_MODULES or ctx.module.endswith(".cli"):
            return
        yield from self._walk(ctx, ctx.tree.body)

    def _walk(self, ctx: FileContext, body: list[ast.stmt]) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, ast.If) and self._is_main_guard(stmt.test):
                yield from self._walk(ctx, stmt.orelse)
                continue
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    and not any(kw.arg == "file" for kw in node.keywords)
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "print() to stdout in a library module; print only "
                        "from CLI modules or pass an explicit file=",
                    )

    @staticmethod
    def _is_main_guard(test: ast.expr) -> bool:
        return (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__"
        )


@register_rule
class ProfilerImportRule(Rule):
    code = "SL009"
    title = "cProfile/pstats import only in the profiling harness"
    explanation = (
        "benchmarks/profile.py is the one sanctioned import site for\n"
        "cProfile and pstats.  A profiler import anywhere else means\n"
        "instrumentation is creeping into library or benchmark code: the\n"
        "hot paths must stay hook-free (cProfile's tracing slows this\n"
        "simulator's run loop ~4x, so any always-on profiling silently\n"
        "poisons perfbench numbers), and ad-hoc profiling scripts rot\n"
        "where the harness stays tested.  Profile through\n"
        "benchmarks/profile.py instead."
    )

    _FORBIDDEN = {"cProfile", "pstats"}
    _SANCTIONED = "benchmarks.profile"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.module == self._SANCTIONED:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            for name in names:
                if name in self._FORBIDDEN:
                    yield self.violation(
                        ctx,
                        node,
                        f"{name!r} imported outside the profiling harness; "
                        "profile through benchmarks/profile.py",
                    )


@register_rule
class TelemetryGuardRule(Rule):
    code = "SL010"
    title = "telemetry emits in hot-path modules need an enabled-guard"
    explanation = (
        "The obs layer's contract is zero overhead when disabled: its\n"
        "hooks ride existing observer lists and interval ticks, never the\n"
        "per-event dispatch chain.  If a telemetry emit (a method call on\n"
        "a telemetry/hub/spans/metrics receiver) does land in one of\n"
        "SL007's hot-path modules, it must sit inside an if-guard, or in\n"
        "the true branch of a conditional expression, whose test names\n"
        "the telemetry object or an enabled flag — an unguarded\n"
        "emit charges every run, telemetry on or off, and silently taxes\n"
        "the 130k+ events/s budget the BENCH suite gates."
    )

    #: Receiver identifiers that mark a call as a telemetry emit.
    _RECEIVERS = frozenset({"telemetry", "hub", "spans", "metrics_hub", "obs"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        hot_modules = {mod for mod, _ in HotPathRule._HOT}
        if ctx.module not in hot_modules:
            return
        yield from self._scan(ctx, ctx.tree.body, guarded=False)

    def _scan(
        self, ctx: FileContext, body: list[ast.stmt], guarded: bool
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, ast.If):
                inner = guarded or self._is_guard(stmt.test)
                yield from self._check_stmt_exprs(ctx, stmt.test, guarded)
                yield from self._scan(ctx, stmt.body, inner)
                yield from self._scan(ctx, stmt.orelse, guarded)
                continue
            if isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    yield from self._scan(ctx, block, guarded)
                for handler in stmt.handlers:
                    yield from self._scan(ctx, handler.body, guarded)
                continue
            if isinstance(
                stmt,
                (
                    ast.For,
                    ast.AsyncFor,
                    ast.While,
                    ast.With,
                    ast.AsyncWith,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                ),
            ):
                yield from self._scan(ctx, stmt.body, guarded)
                orelse = getattr(stmt, "orelse", None)
                if orelse:
                    yield from self._scan(ctx, orelse, guarded)
                continue
            if not guarded:
                yield from self._check_stmt_exprs(ctx, stmt, guarded=False)

    def _check_stmt_exprs(
        self, ctx: FileContext, node: ast.AST, guarded: bool
    ) -> Iterator[Violation]:
        if guarded:
            return
        for sub in self._unguarded_nodes(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and self._is_telemetry_receiver(sub.func.value)
            ):
                yield self.violation(
                    ctx,
                    sub,
                    f"unguarded telemetry emit "
                    f"'.{sub.func.attr}(...)' in a hot-path module; wrap it "
                    "in an enabled-guard (e.g. `if telemetry is not None:`)",
                )

    def _unguarded_nodes(self, node: ast.AST) -> Iterator[ast.AST]:
        """``node`` and its descendants, less guarded conditional branches.

        The true branch of ``a if guard else b`` runs only when the guard
        holds, exactly like the body of ``if guard:``.
        """
        yield node
        if isinstance(node, ast.IfExp) and self._is_guard(node.test):
            children: Iterable[ast.AST] = (node.test, node.orelse)
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            yield from self._unguarded_nodes(child)

    def _is_telemetry_receiver(self, node: ast.expr) -> bool:
        """Whether any identifier in the receiver chain is telemetry-ish."""
        current: Optional[ast.expr] = node
        while current is not None:
            if isinstance(current, ast.Name):
                return current.id in self._RECEIVERS
            if isinstance(current, ast.Attribute):
                if current.attr in self._RECEIVERS:
                    return True
                current = current.value
                continue
            return False
        return False

    def _is_guard(self, test: ast.expr) -> bool:
        """Whether an ``if`` test mentions a telemetry object or enabled flag."""
        for node in ast.walk(test):
            name = _terminal_name(node) if isinstance(node, ast.expr) else None
            if name is None:
                continue
            if name in self._RECEIVERS or "enabled" in name:
                return True
        return False
