"""The reprolint rule catalogue (D1-D7).

Each rule encodes one invariant the reproduction's claims rest on; the
module docstrings of the checked packages state the invariants in prose,
this file makes them machine-checked.  ``docs/analysis.md`` documents
every rule with examples of violating and conforming code.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.reprolint.engine import Finding, ModuleInfo, Project, Rule, register

__all__ = [
    "NoWallClockRandomness",
    "RngStreamDiscipline",
    "SortedSetIteration",
    "HandlerExhaustiveness",
    "ExchangeAtomicity",
    "ConfigCoverage",
    "TracedEventEmission",
]


def _qualname(node: ast.AST) -> str | None:
    """Dotted source text of a Name/Attribute chain ("self.rng.random")."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


#: Generator draw methods — calling one of these consumes RNG state.
DRAW_METHODS = frozenset(
    {
        "random",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "exponential",
        "normal",
        "uniform",
        "standard_normal",
        "poisson",
        "binomial",
        "bytes",
    }
)


# -- D1 -------------------------------------------------------------------


@register
class NoWallClockRandomness(Rule):
    """D1: no unseeded randomness or wall-clock reads under ``src/repro``.

    Bit-for-bit determinism (same seed -> same exchange sequence, the
    property the ``latency_scale=0`` bridge test pins) requires every
    draw to flow from an injected, seeded ``numpy.random.Generator`` and
    every timestamp from the simulation clock.
    """

    id = "D1"
    name = "no-wallclock-randomness"
    description = "stdlib random / wall clock / unseeded numpy RNG forbidden"

    #: packages sanctioned to read wall clocks: the live deployment plane
    #: (repro.live) runs protocol timers on real time *by design* — that
    #: is the whole point of the plane — and the profiling plane
    #: (repro.obs.prof) exists to attribute wall seconds and never feeds
    #: them back into protocol state.  The allowlist scopes ONLY the
    #: wall-clock half of D1; unseeded randomness stays forbidden in
    #: every package, including these (a live run must still be
    #: seed-reproducible in everything but timing).
    WALLCLOCK_ALLOW: tuple[str, ...] = ("repro.live", "repro.obs.prof")

    _WALLCLOCK = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "date.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    _NP_LEGACY = frozenset(
        {
            "seed",
            "rand",
            "randn",
            "randint",
            "random",
            "random_sample",
            "ranf",
            "sample",
            "choice",
            "shuffle",
            "permutation",
            "uniform",
            "normal",
            "exponential",
            "standard_normal",
            "get_state",
            "set_state",
        }
    )

    #: modules whose imports participate in alias resolution: aliasing
    #: one of these (``import time as _time``) must not dodge the rule.
    _CLOCK_MODULES = ("time", "datetime")

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        # First pass: collect import aliases so `import time as _time` /
        # `from time import monotonic as mono` resolve to the canonical
        # dotted names the deny-set is keyed by (the alias dodge).
        module_aliases: dict[str, str] = {}
        name_aliases: dict[str, str] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if (
                        alias.asname
                        and alias.asname != alias.name
                        and alias.name.partition(".")[0] in self._CLOCK_MODULES
                    ):
                        module_aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module in self._CLOCK_MODULES:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    name_aliases[bound] = f"{node.module}.{alias.name}"
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield mod.finding(
                            self.id, node,
                            "stdlib `random` imported; inject a seeded "
                            "numpy Generator instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield mod.finding(
                        self.id, node,
                        "import from stdlib `random`; inject a seeded "
                        "numpy Generator instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(mod, node, module_aliases, name_aliases)

    def _wallclock_allowed(self, module: str) -> bool:
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in self.WALLCLOCK_ALLOW
        )

    @staticmethod
    def _resolve_alias(
        qn: str, module_aliases: dict[str, str], name_aliases: dict[str, str]
    ) -> str:
        head, _, rest = qn.partition(".")
        if rest:
            # `import time as _time` -> _time.monotonic, and
            # `from datetime import datetime as dt` -> dt.now
            target = module_aliases.get(head) or name_aliases.get(head)
            return f"{target}.{rest}" if target is not None else qn
        # `from time import monotonic as mono` -> mono()
        return name_aliases.get(qn, qn)

    def _check_call(
        self,
        mod: ModuleInfo,
        node: ast.Call,
        module_aliases: dict[str, str],
        name_aliases: dict[str, str],
    ) -> Iterator[Finding]:
        qn = _qualname(node.func)
        if qn is None:
            return
        qn = self._resolve_alias(qn, module_aliases, name_aliases)
        if qn in self._WALLCLOCK:
            if not self._wallclock_allowed(mod.module):
                yield mod.finding(
                    self.id, node,
                    f"wall-clock call `{qn}()`; use the simulation clock (sim.now)",
                )
            return
        if (qn == "Random" or qn.endswith(".Random")) and not node.args:
            yield mod.finding(
                self.id, node,
                "argless `Random()` seeds from the OS; inject a seeded Generator",
            )
            return
        if qn.endswith("default_rng") and not node.args and not node.keywords:
            yield mod.finding(
                self.id, node,
                "unseeded `default_rng()` draws OS entropy; pass an explicit seed "
                "or inject a Generator",
            )
            return
        head, _, tail = qn.rpartition(".")
        if tail in self._NP_LEGACY and (
            head in ("np.random", "numpy.random") or head.endswith(".np.random")
        ):
            yield mod.finding(
                self.id, node,
                f"legacy global-state numpy RNG `{qn}()`; draw from an injected "
                "seeded Generator",
            )


# -- D2 -------------------------------------------------------------------


@register
class RngStreamDiscipline(Rule):
    """D2: each component draws only from its own named RNG stream.

    The registry's per-name substreams are what make A/B protocol
    comparisons meaningful ("same world, different protocol"): the fault
    decorator draws only from ``net:faults`` and the protocol engines
    only from ``prop:engine``, so enabling faults never perturbs the
    protocol's draw sequence.  A single cross-stream read silently
    couples the two.
    """

    id = "D2"
    name = "rng-stream-discipline"
    description = "components must draw only from their own named RNG stream"

    #: module -> stream-name literals it may request from the registry.
    STREAM_ALLOW: dict[str, frozenset[str]] = {
        "repro.core.protocol": frozenset({"prop:engine"}),
        "repro.net.engine": frozenset({"prop:engine"}),
        "repro.net.faults": frozenset({"net:faults"}),
        "repro.net.transport": frozenset(),
        "repro.net.messages": frozenset(),
    }
    #: modules whose draws must come from the component's own injected
    #: generator (``self.rng``), never a collaborator's.
    _OWN_RNG_ONLY = frozenset({"repro.net.faults"})
    #: protocol modules: draws must use the engine stream (``self.rng``)
    #: or a generator explicitly passed in as a parameter named ``rng``.
    _PROTOCOL = frozenset({"repro.core.protocol", "repro.net.engine"})
    #: RNG-free modules: any generator draw at all is a violation.
    _RNG_FREE = frozenset({"repro.net.transport", "repro.net.messages"})

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        if mod.module not in self.STREAM_ALLOW:
            return
        allowed = self.STREAM_ALLOW[mod.module]
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in ("stream", "fresh"):
                yield from self._check_stream_request(mod, node, allowed)
            elif func.attr in DRAW_METHODS:
                yield from self._check_draw(mod, node, func)

    def _check_stream_request(
        self, mod: ModuleInfo, node: ast.Call, allowed: frozenset[str]
    ) -> Iterator[Finding]:
        if not node.args:
            return
        arg = node.args[0]
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            yield mod.finding(
                self.id, node,
                "RNG stream name must be a string literal so stream usage "
                "is auditable",
            )
            return
        if arg.value not in allowed:
            names = ", ".join(sorted(allowed)) or "none"
            yield mod.finding(
                self.id, node,
                f"stream {arg.value!r} requested; {mod.module} may only use: {names}",
            )

    def _check_draw(
        self, mod: ModuleInfo, node: ast.Call, func: ast.Attribute
    ) -> Iterator[Finding]:
        recv = _qualname(func.value)
        if recv is None:
            return
        # only receivers that look like generators: `rng`, `self.rng`,
        # `x.y.rng` — draw-named methods on other objects are unrelated.
        if not (recv == "rng" or recv == "self.rng" or recv.endswith(".rng")):
            return
        if mod.module in self._RNG_FREE:
            yield mod.finding(
                self.id, node,
                f"RNG draw `{recv}.{func.attr}()` in RNG-free module {mod.module}",
            )
        elif mod.module in self._OWN_RNG_ONLY and recv != "self.rng":
            yield mod.finding(
                self.id, node,
                f"cross-stream draw `{recv}.{func.attr}()`; {mod.module} may only "
                "draw from its injected fault stream (self.rng)",
            )
        elif mod.module in self._PROTOCOL and recv not in ("self.rng", "rng"):
            yield mod.finding(
                self.id, node,
                f"cross-stream draw `{recv}.{func.attr}()`; protocol code may only "
                "draw from the engine stream (self.rng)",
            )


# -- D3 -------------------------------------------------------------------


class _SetTypedNames(ast.NodeVisitor):
    """Per-scope pass 1: local names bound to set-typed expressions."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.adj_names: set[str] = set()  # names aliasing an `_adj` list-of-sets

    def visit_Assign(self, node: ast.Assign) -> None:
        self._bind(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind([node.target], node.value)
        self.generic_visit(node)

    def _bind(self, targets: list[ast.expr], value: ast.expr) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if _is_set_expr(value, self.set_names, self.adj_names):
            self.set_names.update(names)
        elif _is_adj_attr(value):
            self.adj_names.update(names)

    # nested functions have their own scope; don't leak bindings
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _walk_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a scope's statements without descending into nested defs
    (each function body is analyzed as its own scope)."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a def in this scope's body opens its own scope
        stack.extend(ast.iter_child_nodes(node))


def _is_adj_attr(node: ast.expr) -> bool:
    """``self._adj`` / ``overlay._adj`` — the adjacency list-of-sets."""
    return isinstance(node, ast.Attribute) and node.attr == "_adj"


def _is_set_expr(node: ast.expr, set_names: set[str], adj_names: set[str]) -> bool:
    """Syntactically set-typed: literals, set()/frozenset(), .keys(),
    subscripts of an ``_adj`` adjacency table, set algebra thereof."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return True
        return False
    if isinstance(node, ast.Subscript):
        v = node.value
        return _is_adj_attr(v) or (isinstance(v, ast.Name) and v.id in adj_names)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names, adj_names) or _is_set_expr(
            node.right, set_names, adj_names
        )
    return False


@register
class SortedSetIteration(Rule):
    """D3: set iteration feeding a protocol decision must be sorted.

    Set iteration order is an implementation detail of the hash table;
    when it selects neighbors, orders exchange candidates, or builds the
    lists RNG indices are drawn against, the topology trajectory depends
    on interpreter internals instead of the seed.  Any ``for``/
    comprehension/materialization over a set-typed expression in the
    protocol-decision packages must go through ``sorted()`` (or carry a
    suppression justifying order-independence).
    """

    id = "D3"
    name = "sorted-set-iteration"
    description = "set/dict-key iteration on decision paths needs sorted()"

    SCOPES = (
        "repro.core",
        "repro.net",
        "repro.overlay",
        "repro.workloads",
        "repro.baselines",
    )
    #: materializers whose argument order becomes data order.
    _MATERIALIZERS = frozenset({"list", "tuple", "enumerate", "iter", "next"})

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        if not mod.module.startswith(self.SCOPES):
            return
        for scope in self._scopes(mod.tree):
            pass1 = _SetTypedNames()
            for stmt in scope:
                pass1.visit(stmt)
            yield from self._flag_iterations(
                mod, scope, pass1.set_names, pass1.adj_names
            )

    def _scopes(self, tree: ast.Module) -> Iterator[list[ast.stmt]]:
        """The module body and every function body, each its own scope."""
        yield tree.body
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.body

    def _flag_iterations(
        self,
        mod: ModuleInfo,
        body: list[ast.stmt],
        set_names: set[str],
        adj_names: set[str],
    ) -> Iterator[Finding]:
        def is_set(expr: ast.expr) -> bool:
            return _is_set_expr(expr, set_names, adj_names)

        for node in _walk_scope(body):
            if isinstance(node, ast.For) and is_set(node.iter):
                yield self._finding(mod, node.iter, "for-loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for comp in node.generators:
                    if is_set(comp.iter):
                        yield self._finding(mod, comp.iter, "comprehension")
            elif isinstance(node, ast.Call):
                qn = _qualname(node.func)
                name = (qn or "").rpartition(".")[2]
                if (
                    name in self._MATERIALIZERS or qn in ("np.fromiter", "numpy.fromiter")
                ) and node.args and is_set(node.args[0]):
                    yield self._finding(mod, node.args[0], f"{name}() argument")

    def _finding(self, mod: ModuleInfo, node: ast.expr, where: str) -> Finding:
        src = ast.unparse(node)
        if len(src) > 40:
            src = src[:37] + "..."
        return mod.finding(
            self.id, node,
            f"unsorted set iteration ({where}) over `{src}`; wrap in sorted() "
            "or suppress with a justification if provably order-independent",
        )


# -- D4 -------------------------------------------------------------------

_ABSORBED_RE = re.compile(r"#\s*reprolint:\s*D4-absorbed:\s*([A-Za-z0-9_,\s]+)")


@register
class HandlerExhaustiveness(Rule):
    """D4: the engine dispatch covers exactly the exported message grammar.

    Every concrete message class in ``repro.net.messages`` must have an
    ``isinstance`` dispatch arm in ``repro.net.engine``'s ``_on_message``
    (or an explicit ``# reprolint: D4-absorbed: Name`` marker for
    messages deliberately absorbed), and every dispatch arm must name a
    real exported message — no dead handlers.
    """

    id = "D4"
    name = "handler-exhaustiveness"
    description = "message classes <-> engine dispatch arms must match 1:1"

    MESSAGES_MODULE = "repro.net.messages"
    ENGINE_MODULE = "repro.net.engine"
    DISPATCHER = "_on_message"
    BASE_CLASS = "Message"

    def check_project(self, project: Project) -> Iterator[Finding]:
        messages = project.modules.get(self.MESSAGES_MODULE)
        engine = project.modules.get(self.ENGINE_MODULE)
        if messages is None or engine is None:
            return
        required = self._message_classes(messages)
        dispatcher = self._find_dispatcher(engine)
        if dispatcher is None:
            yield engine.finding(
                self.id, 1,
                f"no `{self.DISPATCHER}` dispatcher found for the message grammar",
            )
            return
        handled = self._handled_names(dispatcher)
        absorbed = self._absorbed_names(engine)
        for name in sorted(required):
            if name not in handled and name not in absorbed:
                yield engine.finding(
                    self.id, dispatcher,
                    f"message class `{name}` has no dispatch arm in "
                    f"{self.DISPATCHER} (and no D4-absorbed marker)",
                )
        for name, node in sorted(handled.items()):
            if name not in required and name != self.BASE_CLASS:
                yield engine.finding(
                    self.id, node,
                    f"dead dispatch arm: `{name}` is not a message class "
                    f"exported by {self.MESSAGES_MODULE}",
                )
        for name in sorted(absorbed):
            if name not in required:
                yield engine.finding(
                    self.id, 1,
                    f"stale D4-absorbed marker: `{name}` is not an exported "
                    "message class",
                )

    def _message_classes(self, mod: ModuleInfo) -> set[str]:
        out: set[str] = set()
        for node in mod.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                base_name = _qualname(base)
                if base_name and base_name.rpartition(".")[2] == self.BASE_CLASS:
                    out.add(node.name)
        return out

    def _find_dispatcher(self, mod: ModuleInfo) -> ast.FunctionDef | None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.FunctionDef) and node.name == self.DISPATCHER:
                return node
        return None

    def _handled_names(self, dispatcher: ast.FunctionDef) -> dict[str, ast.AST]:
        handled: dict[str, ast.AST] = {}
        for node in ast.walk(dispatcher):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                continue
            cls = node.args[1]
            classes = cls.elts if isinstance(cls, ast.Tuple) else [cls]
            for c in classes:
                qn = _qualname(c)
                if qn:
                    handled[qn.rpartition(".")[2]] = node
        return handled

    def _absorbed_names(self, mod: ModuleInfo) -> set[str]:
        out: set[str] = set()
        for line in mod.lines:
            m = _ABSORBED_RE.search(line)
            if m:
                out.update(n.strip() for n in m.group(1).split(",") if n.strip())
        return out


# -- D5 -------------------------------------------------------------------


@register
class ExchangeAtomicity(Rule):
    """D5: overlay neighbor structures mutate only in sanctioned modules.

    Theorem 2's isomorphism guarantee (and Theorem 1's connectivity) hold
    because every topology change goes through the exchange primitives.
    A stray ``add_edge``/embedding write from an engine, workload, or
    metric would silently invalidate every downstream result, so mutation
    is confined to the overlay package, the exchange executors, the Var
    evaluator (swap-measure-swap), the baseline protocols (their own
    exchange primitives), and the physical-topology generators.
    """

    id = "D5"
    name = "exchange-atomicity"
    description = "overlay mutation confined to overlay/exchange modules"

    ALLOWED_PREFIXES = ("repro.overlay.", "repro.baselines.", "repro.topology.")
    ALLOWED_MODULES = frozenset(
        {
            "repro.overlay",
            "repro.baselines",
            "repro.topology",
            "repro.core.exchange",
            "repro.core.varcalc",
        }
    )
    #: ``replace_host`` is deliberately absent: it is the sanctioned
    #: membership boundary (validates, bumps version counters) that the
    #: churn workload calls; everything below bypasses an invariant.
    MUTATOR_CALLS = frozenset(
        {"add_edge", "remove_edge", "rewire", "swap_embedding",
         "append_slot", "pop_slot"}
    )
    MUTATED_ATTRS = frozenset(
        {"embedding", "embedding_version", "topology_version", "_adj", "_n_edges"}
    )
    _SET_MUTATORS = frozenset({"add", "discard", "remove", "pop", "clear", "update"})

    def _allowed(self, module: str) -> bool:
        return module in self.ALLOWED_MODULES or module.startswith(self.ALLOWED_PREFIXES)

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        if self._allowed(mod.module) or not mod.module.startswith("repro."):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in self.MUTATOR_CALLS:
                    yield mod.finding(
                        self.id, node,
                        f"overlay mutation `{_qualname(node.func) or node.func.attr}()` "
                        "outside the overlay/exchange modules; route through the "
                        "exchange primitives",
                    )
                elif node.func.attr in self._SET_MUTATORS and self._touches_adj(
                    node.func.value
                ):
                    yield mod.finding(
                        self.id, node,
                        "direct neighbor-set mutation outside the overlay modules",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    attr = self._mutated_attr(t)
                    if attr is not None:
                        yield mod.finding(
                            self.id, node,
                            f"direct write to overlay `{attr}` outside the "
                            "overlay/exchange modules",
                        )

    def _mutated_attr(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in self.MUTATED_ATTRS:
            # `self.embedding = ...` inside non-overlay classes is still a
            # write to *that object's* attribute; only flag chains that go
            # through another object (e.g. `self.overlay.embedding`).
            inner = _qualname(target.value)
            if inner is not None and inner != "self":
                return f"{inner}.{target.attr}"
        return None

    def _touches_adj(self, node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "_adj":
                return True
        return False


# -- D6 -------------------------------------------------------------------


@register
class ConfigCoverage(Rule):
    """D6: every ``PROPConfig`` field is referenced by the validation path.

    The config validation added in PR 2 is the contract that rejects
    meaningless parameter combinations before they burn simulation time.
    A field the validator never reads is a field a typo in an experiment
    sweep can silently set to garbage.
    """

    id = "D6"
    name = "config-coverage"
    description = "every PROPConfig field must be read by __post_init__"

    CONFIG_MODULE = "repro.core.config"
    CONFIG_CLASS = "PROPConfig"
    VALIDATOR = "__post_init__"

    def check_project(self, project: Project) -> Iterator[Finding]:
        mod = project.modules.get(self.CONFIG_MODULE)
        if mod is None:
            return
        cls = next(
            (
                n
                for n in mod.tree.body
                if isinstance(n, ast.ClassDef) and n.name == self.CONFIG_CLASS
            ),
            None,
        )
        if cls is None:
            return
        fields: dict[str, int] = {}
        validator: ast.FunctionDef | None = None
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                ann = ast.unparse(node.annotation)
                if not node.target.id.startswith("_") and "ClassVar" not in ann:
                    fields[node.target.id] = node.lineno
            elif isinstance(node, ast.FunctionDef) and node.name == self.VALIDATOR:
                validator = node
        if validator is None:
            if fields:
                yield mod.finding(
                    self.id, cls,
                    f"{self.CONFIG_CLASS} has no {self.VALIDATOR} validation path",
                )
            return
        read = {
            n.attr
            for n in ast.walk(validator)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id == "self"
        }
        for name, line in fields.items():
            if name not in read:
                yield mod.finding(
                    self.id, line,
                    f"{self.CONFIG_CLASS} field `{name}` is never referenced by "
                    f"{self.VALIDATOR}; add a validation check",
                )


# -- D7 -------------------------------------------------------------------


@register
class TracedEventEmission(Rule):
    """D7: decision-path code reports events only through the Tracer.

    The ``repro.obs`` tracing plane is the single source of truth for
    what happened in a run: the analyzer's exactly-once 2PC accounting,
    the byte-identical serial/parallel trace guarantee, and the report
    event counts all assume every observable event flows through
    ``tracer.emit``.  A ``print()`` on an engine code path is invisible
    to all of them (and corrupts the CLI's machine-parsed output); a
    ``logging`` call drags in wall-clock timestamps and global handler
    state.  Protocol, message-plane, and overlay modules therefore may
    not print or log — they emit typed events through the injected
    Tracer.
    """

    id = "D7"
    name = "traced-event-emission"
    description = "core/net/overlay must emit via Tracer, not print/logging"

    SCOPES = ("repro.core", "repro.net", "repro.overlay")
    #: receivers whose method calls are logging emissions (`logger.info`,
    #: `self.log.debug`, `logging.warning`, ...).
    _LOG_RECEIVERS = frozenset({"logging", "logger", "log"})

    def check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        if not mod.module.startswith(self.SCOPES):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "logging" or alias.name.startswith("logging."):
                        yield mod.finding(
                            self.id, node,
                            "`logging` imported on a decision path; emit typed "
                            "events through the injected Tracer instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "logging" or (
                    node.module or ""
                ).startswith("logging."):
                    yield mod.finding(
                        self.id, node,
                        "import from `logging` on a decision path; emit typed "
                        "events through the injected Tracer instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(mod, node)

    def _check_call(self, mod: ModuleInfo, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            yield mod.finding(
                self.id, node,
                "bare `print()` on a decision path; emit a typed event "
                "through the injected Tracer (or drop the output)",
            )
            return
        qn = _qualname(func)
        if qn is None:
            return
        recv, _, _ = qn.rpartition(".")
        tail = recv.rpartition(".")[2]
        if recv and (recv in self._LOG_RECEIVERS or tail in self._LOG_RECEIVERS):
            yield mod.finding(
                self.id, node,
                f"logging call `{qn}()` on a decision path; emit a typed "
                "event through the injected Tracer instead",
            )
