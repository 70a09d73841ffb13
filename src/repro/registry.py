"""The unified scheme registry: one catalogue of every certification scheme.

The paper is a catalogue of results — Theorems 2.2–2.6, Lemma 2.1,
Proposition 3.4, Corollary 2.7 — and the repo implements each as a
:class:`~repro.core.scheme.CertificationScheme` subclass scattered across
``core/``, ``lcl/`` and ``dga/``.  This module makes the catalogue explicit:
every scheme registers here, via the :func:`register` decorator, with

* a stable key (the ``--scheme`` name of the CLI and of
  :class:`repro.experiments.SweepSpec`),
* a typed, validated parameter specification (:class:`ParamSpec`),
* the paper reference it reproduces,
* the expected asymptotic certificate-size bound (:class:`SizeBound`),
  against which measured sweep series are checked,
* the graph families it is typically exercised on.

The CLI ``list``/``certify``/``sweep`` commands and the declarative sweep
runner of :mod:`repro.experiments` are driven entirely by this registry:
adding one ``@register(...)`` factory makes a new scheme discoverable,
runnable and sweepable everywhere at once.

Factories, not instances, are registered: schemes are cheap to construct but
may hold caches, and a sweep worker process must be able to rebuild its
scheme from ``(key, params)`` alone.

Example::

    from repro import registry

    scheme = registry.create("treedepth", {"t": 3})
    info = registry.get("treedepth")
    print(info.bound.label)          # "O(t log n)"
    print([p.name for p in info.params])
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Type

import networkx as nx

from repro.core.scheme import CertificationScheme


class RegistryError(ValueError):
    """An unknown scheme, a bad parameter, or a duplicate registration."""


class UnknownKeyError(RegistryError):
    """A scheme or lower-bound construction key that names nothing (the
    service answers it with the ``unknown-scheme`` wire code)."""


# ---------------------------------------------------------------------------
# Parameter specifications
# ---------------------------------------------------------------------------

_PARAM_TYPES: Dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "str": str,
}


@dataclass(frozen=True)
class ParamSpec:
    """One typed scheme parameter (e.g. the ``t`` of "treedepth ≤ t")."""

    name: str
    type: str = "int"
    required: bool = False
    default: Any = None
    choices: Optional[Tuple[Any, ...]] = None
    minimum: Optional[int] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.type not in _PARAM_TYPES:
            raise RegistryError(f"unknown parameter type {self.type!r} for {self.name!r}")

    def coerce(self, value: Any) -> Any:
        """Validate one raw value (string from the CLI, or already typed)."""
        converter = _PARAM_TYPES[self.type]
        if isinstance(value, str) and self.type != "str":
            try:
                value = converter(value)
            except ValueError as error:
                raise RegistryError(
                    f"parameter {self.name!r} expects {self.type}, got {value!r}"
                ) from error
        if not isinstance(value, converter) or (self.type == "int" and isinstance(value, bool)):
            raise RegistryError(
                f"parameter {self.name!r} expects {self.type}, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise RegistryError(
                f"parameter {self.name!r} must be one of {sorted(map(str, self.choices))}, "
                f"got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise RegistryError(f"parameter {self.name!r} must be >= {self.minimum}, got {value!r}")
        return value


# ---------------------------------------------------------------------------
# Asymptotic size bounds
# ---------------------------------------------------------------------------


def _log2(n: int) -> float:
    return math.log2(max(2, n))


@dataclass(frozen=True)
class SizeBound:
    """The expected asymptotic shape of a scheme's certificate-size series.

    ``envelope(n, params)`` evaluates the bound's growth function at ``n``
    (up to constants); :meth:`check_series` tests whether a measured series
    tracks the envelope within a constant-factor band — the same shape test
    the per-theorem benchmarks apply, made uniform.
    """

    label: str
    envelope: Callable[[int, Mapping[str, Any]], float]
    slack: float = 8.0

    def check_series(
        self, series: Mapping[int, int], params: Optional[Mapping[str, Any]] = None
    ) -> Tuple[bool, Dict[str, Any]]:
        """Does ``series`` (n → measured bits) respect this bound?

        Returns ``(ok, detail)`` where ``detail`` records the per-point
        measured/envelope ratios and the spread that was compared against
        ``slack``.  A series respects an O(f(n)) bound when the ratio
        ``bits / f(n)`` stays within a constant band: its spread
        ``max/min`` must not exceed ``slack`` (growth strictly faster than
        the envelope makes the spread diverge with n).
        """
        params = dict(params or {})
        ratios = {
            int(n): bits / max(self.envelope(int(n), params), 1e-9)
            for n, bits in series.items()
        }
        detail: Dict[str, Any] = {"label": self.label, "slack": self.slack, "ratios": ratios}
        if not ratios:
            return True, {**detail, "spread": None}
        high = max(ratios.values())
        low = min(ratios.values())
        if high == 0.0:  # all certificates empty: trivially within any bound
            return True, {**detail, "spread": 0.0}
        spread = high / max(low, 1e-9)
        detail["spread"] = spread
        return spread <= self.slack, detail


CONSTANT = SizeBound("O(1)", lambda n, p: 1.0)
LOG_N = SizeBound("O(log n)", lambda n, p: _log2(n))
LOG2_N = SizeBound("O(log² n)", lambda n, p: _log2(n) ** 2)
T_LOG_N = SizeBound("O(t log n)", lambda n, p: max(1, int(p.get("t", 1))) * _log2(n))
K_LOG2_N = SizeBound("O(k log² n)", lambda n, p: max(1, int(p.get("k", 1))) * _log2(n) ** 2)
QUADRATIC = SizeBound("O(n²)", lambda n, p: float(n * n))
ZERO = SizeBound("0 bits", lambda n, p: 1.0)


# ---------------------------------------------------------------------------
# The registry proper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeInfo:
    """Everything the registry knows about one certification scheme."""

    key: str
    factory: Callable[..., CertificationScheme]
    cls: Type[CertificationScheme]
    summary: str
    paper: str
    bound: SizeBound
    params: Tuple[ParamSpec, ...] = ()
    families: Tuple[str, ...] = ()

    def resolve_params(self, raw: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Validate a raw parameter mapping against this scheme's spec."""
        raw = dict(raw or {})
        specs = {spec.name: spec for spec in self.params}
        unknown = sorted(set(raw) - set(specs))
        if unknown:
            raise RegistryError(
                f"scheme {self.key!r} does not take parameter(s) {unknown}; "
                f"it takes {sorted(specs) or 'none'}"
            )
        resolved: Dict[str, Any] = {}
        for name, spec in specs.items():
            if name in raw:
                resolved[name] = spec.coerce(raw[name])
            elif spec.required:
                raise RegistryError(f"scheme {self.key!r} requires parameter {name!r}")
            elif spec.default is not None:
                resolved[name] = spec.default
        return resolved

    def create(self, params: Optional[Mapping[str, Any]] = None) -> CertificationScheme:
        return self.factory(**self.resolve_params(params))


class SchemeRegistry:
    """A keyed collection of :class:`SchemeInfo` entries."""

    def __init__(self) -> None:
        self._entries: Dict[str, SchemeInfo] = {}

    def register(
        self,
        key: str,
        *,
        cls: Type[CertificationScheme],
        summary: str,
        paper: str,
        bound: SizeBound,
        params: Sequence[ParamSpec] = (),
        families: Sequence[str] = (),
    ) -> Callable[[Callable[..., CertificationScheme]], Callable[..., CertificationScheme]]:
        """Decorator registering ``factory`` under ``key`` with its metadata."""

        def decorator(factory: Callable[..., CertificationScheme]):
            if key in self._entries:
                raise RegistryError(f"scheme key {key!r} is already registered")
            self._entries[key] = SchemeInfo(
                key=key,
                factory=factory,
                cls=cls,
                summary=summary,
                paper=paper,
                bound=bound,
                params=tuple(params),
                families=tuple(families),
            )
            return factory

        return decorator

    def get(self, key: str) -> SchemeInfo:
        try:
            return self._entries[key]
        except KeyError:
            suggestions = difflib.get_close_matches(key, self.names(), n=3, cutoff=0.5)
            hint = f"did you mean {', '.join(map(repr, suggestions))}? " if suggestions else ""
            raise UnknownKeyError(
                f"unknown scheme {key!r}; {hint}"
                f"known schemes: {', '.join(self.names())}"
            ) from None

    def create(
        self, key: str, params: Optional[Mapping[str, Any]] = None
    ) -> CertificationScheme:
        return self.get(key).create(params)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def classes(self) -> Tuple[Type[CertificationScheme], ...]:
        return tuple({info.cls for info in self._entries.values()})

    def __iter__(self) -> Iterator[SchemeInfo]:
        return iter(self._entries[key] for key in self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


#: The process-wide registry every subsystem reads from.
REGISTRY = SchemeRegistry()

register = REGISTRY.register
get = REGISTRY.get
create = REGISTRY.create
names = REGISTRY.names


# ---------------------------------------------------------------------------
# Built-in registrations: the paper's catalogue
# ---------------------------------------------------------------------------

# Imported lazily *below* the registry machinery so the module stays a layer
# above the scheme implementations (they never import the registry).
from repro.automata.catalog import (  # noqa: E402
    all_leaves_at_even_depth_automaton,
    height_at_most_automaton,
    max_children_at_most_automaton,
    perfect_matching_automaton,
)
from repro.automata.mso_compile import compile_fo_sentence_to_automaton  # noqa: E402
from repro.core.diameter import TreeDiameterScheme  # noqa: E402
from repro.core.fragments import (  # noqa: E402
    CliqueScheme,
    DominatingVertexScheme,
    ExistentialFOScheme,
)
from repro.core.minor_free import CycleMinorFreeScheme, PathMinorFreeScheme  # noqa: E402
from repro.core.mso_treedepth_scheme import MSOTreedepthScheme  # noqa: E402
from repro.core.mso_trees import MSOTreeScheme  # noqa: E402
from repro.core.simple_schemes import (  # noqa: E402
    BipartitenessScheme,
    MaxDegreeScheme,
    PerfectMatchingWitnessScheme,
    ProperColoringScheme,
)
from repro.core.spanning_tree import SpanningTreeCountScheme, TreeScheme  # noqa: E402
from repro.core.treedepth_scheme import TreedepthScheme  # noqa: E402
from repro.core.treewidth_scheme import TreeDecompositionScheme  # noqa: E402
from repro.core.universal import UniversalScheme  # noqa: E402
from repro.dga.catalog import two_coloring_prover_dga  # noqa: E402
from repro.dga.nondeterministic import (  # noqa: E402
    _DGACertificationScheme,
    certification_from_dga,
)
from repro.graphs.utils import is_tree  # noqa: E402
from repro.lcl.classic import (  # noqa: E402
    greedy_maximal_independent_set,
    greedy_proper_coloring,
    presburger_maximal_independent_set,
    presburger_proper_coloring,
)
from repro.lcl.scheme import LCLWitnessScheme  # noqa: E402
from repro.logic import properties  # noqa: E402
from repro.treedepth.decomposition import (  # noqa: E402
    balanced_path_elimination_tree,
    star_elimination_tree,
)
from repro.treewidth.balanced import (  # noqa: E402
    balanced_cycle_decomposition,
    balanced_path_decomposition,
)

#: Named tree automata selectable by the ``mso-trees`` scheme.
MSO_TREE_AUTOMATA: Dict[str, Callable[[], Any]] = {
    "perfect-matching": perfect_matching_automaton,
    "even-leaves": all_leaves_at_even_depth_automaton,
    "height-at-most-4": lambda: height_at_most_automaton(4),
    "max-children-at-most-2": lambda: max_children_at_most_automaton(2),
    # An FO sentence compiled down to a type tree automaton (Theorem 2.2's
    # route from logic to automata, exercised end-to-end).
    "dominating-vertex": lambda: compile_fo_sentence_to_automaton(
        properties.has_dominating_vertex()
    ),
}

#: Named FO sentences selectable by ``mso-treedepth`` and ``existential-fo``.
NAMED_FORMULAS: Dict[str, Callable[[], Any]] = {
    "has-triangle": properties.has_triangle,
    "has-dominating-vertex": properties.has_dominating_vertex,
    "triangle-free": properties.triangle_free,
    "diameter-at-most-2": properties.diameter_at_most_two,
}

def _diameter_at_most_3(graph: nx.Graph) -> bool:
    """The Appendix A.1 example property (the radius-ablation counterpart)."""
    return nx.diameter(graph) <= 3


#: Named graph predicates selectable by the ``universal`` scheme.
NAMED_PREDICATES: Dict[str, Callable[..., bool]] = {
    "triangle-free": properties.check_triangle_free,
    "bipartite": properties.check_two_colorable,
    "acyclic": properties.check_acyclic,
    "tree": is_tree,
    "diameter-at-most-3": _diameter_at_most_3,
}

#: Named elimination-tree builders for the treedepth-layer schemes.
MODEL_BUILDERS: Dict[str, Optional[Callable]] = {
    "auto": None,
    "balanced-path": balanced_path_elimination_tree,
    "star": star_elimination_tree,
}

#: Named tree-decomposition builders for the treewidth scheme.
DECOMPOSITION_BUILDERS: Dict[str, Optional[Callable]] = {
    "auto": None,
    "balanced-path": balanced_path_decomposition,
    "balanced-cycle": balanced_cycle_decomposition,
}

_MODEL_PARAM = ParamSpec(
    "model",
    type="str",
    default="auto",
    choices=tuple(MODEL_BUILDERS),
    description="elimination-tree builder (auto = exact/DFS heuristic)",
)

_TREE_FAMILIES = ("path", "star", "binary-tree", "caterpillar", "spider", "random-tree")


@register(
    "tree",
    cls=TreeScheme,
    summary="the graph is a tree",
    paper="§3.3 (folklore spanning-tree scheme)",
    bound=LOG_N,
    families=_TREE_FAMILIES + ("cycle", "grid"),
)
def _tree_factory() -> CertificationScheme:
    return TreeScheme()


@register(
    "spanning-tree-count",
    cls=SpanningTreeCountScheme,
    summary="the graph has exactly N vertices",
    paper="Proposition 3.4",
    bound=LOG_N,
    params=[
        ParamSpec(
            "expected_n",
            required=True,
            minimum=1,
            description="the certified vertex count (use $n in sweeps)",
        )
    ],
    families=("path", "cycle", "random-connected", "random-tree"),
)
def _count_factory(expected_n: int) -> CertificationScheme:
    return SpanningTreeCountScheme(expected_n)


@register(
    "bipartite",
    cls=BipartitenessScheme,
    summary="the graph is 2-colourable",
    paper="§1 (introduction, full certification)",
    bound=CONSTANT,
    families=("path", "cycle", "star", "grid", "binary-tree"),
)
def _bipartite_factory() -> CertificationScheme:
    return BipartitenessScheme()


@register(
    "matching",
    cls=PerfectMatchingWitnessScheme,
    summary="the graph has a perfect matching",
    paper="§1 (witness certification)",
    bound=LOG_N,
    families=("path", "cycle", "clique"),
)
def _matching_factory() -> CertificationScheme:
    return PerfectMatchingWitnessScheme()


@register(
    "coloring",
    cls=ProperColoringScheme,
    summary="the graph is PARAM-colourable",
    paper="§1 (positive-side certification)",
    bound=CONSTANT,
    params=[ParamSpec("colors", required=True, minimum=1, description="number of colours")],
    families=("path", "cycle", "clique", "grid"),
)
def _coloring_factory(colors: int) -> CertificationScheme:
    return ProperColoringScheme(colors)


@register(
    "max-degree",
    cls=MaxDegreeScheme,
    summary="every vertex has degree at most PARAM",
    paper="§1 (locally checkable, no certificate)",
    bound=ZERO,
    params=[ParamSpec("d", required=True, minimum=0, description="degree bound")],
    families=("path", "cycle", "grid", "binary-tree"),
)
def _max_degree_factory(d: int) -> CertificationScheme:
    return MaxDegreeScheme(d)


@register(
    "tree-diameter",
    cls=TreeDiameterScheme,
    summary="the graph is a tree of diameter at most PARAM",
    paper="§2.3",
    bound=LOG_N,
    params=[ParamSpec("diameter", required=True, minimum=0, description="diameter bound")],
    families=_TREE_FAMILIES,
)
def _tree_diameter_factory(diameter: int) -> CertificationScheme:
    return TreeDiameterScheme(diameter)


@register(
    "treedepth",
    cls=TreedepthScheme,
    summary="the graph has treedepth at most t",
    paper="Theorem 2.4",
    bound=T_LOG_N,
    params=[
        ParamSpec("t", required=True, minimum=1, description="treedepth bound"),
        _MODEL_PARAM,
    ],
    families=("path", "star", "bounded-treedepth", "caterpillar", "union-of-cycles"),
)
def _treedepth_factory(t: int, model: str = "auto") -> CertificationScheme:
    return TreedepthScheme(t, model_builder=MODEL_BUILDERS[model])


@register(
    "treewidth",
    cls=TreeDecompositionScheme,
    summary="the graph has treewidth at most k",
    paper="§2.4 follow-up (ancestor-bag-list scheme)",
    bound=K_LOG2_N,
    params=[
        ParamSpec("k", required=True, minimum=0, description="treewidth bound"),
        ParamSpec(
            "decomposition",
            type="str",
            default="auto",
            choices=tuple(DECOMPOSITION_BUILDERS),
            description="tree-decomposition builder (balanced ⇒ O(k log² n))",
        ),
    ],
    families=("path", "cycle", "random-tree"),
)
def _treewidth_factory(k: int, decomposition: str = "auto") -> CertificationScheme:
    return TreeDecompositionScheme(k, decomposition_builder=DECOMPOSITION_BUILDERS[decomposition])


@register(
    "clique",
    cls=CliqueScheme,
    summary="the graph is a clique",
    paper="Lemma 2.1 (depth-2 FO)",
    bound=LOG_N,
    families=("clique",),
)
def _clique_factory() -> CertificationScheme:
    return CliqueScheme()


@register(
    "dominating-vertex",
    cls=DominatingVertexScheme,
    summary="some vertex dominates the graph",
    paper="Lemma 2.1 (depth-2 FO)",
    bound=LOG_N,
    families=("star", "clique"),
)
def _dominating_vertex_factory() -> CertificationScheme:
    return DominatingVertexScheme()


@register(
    "existential-fo",
    cls=ExistentialFOScheme,
    summary="an existential FO sentence holds (witness tuple)",
    paper="Lemma 2.1",
    bound=LOG_N,
    params=[
        ParamSpec(
            "property",
            type="str",
            default="has-triangle",
            choices=("has-triangle", "has-dominating-vertex"),
            description="named existential sentence",
        )
    ],
    families=("cycle", "clique", "star"),
)
def _existential_fo_factory(property: str = "has-triangle") -> CertificationScheme:
    return ExistentialFOScheme(NAMED_FORMULAS[property](), name=property)


@register(
    "mso-trees",
    cls=MSOTreeScheme,
    summary="an MSO (tree-automaton) property of trees",
    paper="Theorem 2.2",
    bound=CONSTANT,
    params=[
        ParamSpec(
            "automaton",
            type="str",
            default="perfect-matching",
            choices=tuple(MSO_TREE_AUTOMATA),
            description="named tree automaton from the catalogue",
        )
    ],
    families=_TREE_FAMILIES,
)
def _mso_trees_factory(automaton: str = "perfect-matching") -> CertificationScheme:
    return MSOTreeScheme(MSO_TREE_AUTOMATA[automaton](), name=automaton)


@register(
    "mso-treedepth",
    cls=MSOTreedepthScheme,
    summary="treedepth ≤ t and an MSO/FO sentence holds (kernelization)",
    paper="Theorem 2.6",
    bound=T_LOG_N,
    params=[
        ParamSpec("t", required=True, minimum=1, description="treedepth bound"),
        ParamSpec(
            "formula",
            type="str",
            default="has-dominating-vertex",
            choices=tuple(NAMED_FORMULAS),
            description="named FO sentence to certify on the kernel",
        ),
        ParamSpec(
            "k",
            minimum=1,
            description="kernel pruning parameter (default: the sentence's "
            "quantifier depth — the E17 ablation knob)",
        ),
        _MODEL_PARAM,
    ],
    families=("star", "bounded-treedepth", "path"),
)
def _mso_treedepth_factory(
    t: int,
    formula: str = "has-dominating-vertex",
    k: Optional[int] = None,
    model: str = "auto",
) -> CertificationScheme:
    return MSOTreedepthScheme(
        NAMED_FORMULAS[formula](), t=t, k=k, model_builder=MODEL_BUILDERS[model], name=formula
    )


@register(
    "path-minor-free",
    cls=PathMinorFreeScheme,
    summary="the graph has no P_t minor",
    paper="Corollary 2.7",
    bound=LOG_N,
    params=[ParamSpec("t", required=True, minimum=2, description="excluded path length")],
    families=("star", "caterpillar"),
)
def _path_minor_free_factory(t: int) -> CertificationScheme:
    return PathMinorFreeScheme(t)


@register(
    "cycle-minor-free",
    cls=CycleMinorFreeScheme,
    summary="the graph has no C_t minor",
    paper="Corollary 2.7",
    bound=LOG_N,
    params=[ParamSpec("t", required=True, minimum=3, description="excluded cycle length")],
    families=("triangle-chain", "path", "star"),
)
def _cycle_minor_free_factory(t: int) -> CertificationScheme:
    return CycleMinorFreeScheme(t)


@register(
    "universal",
    cls=UniversalScheme,
    summary="any decidable property, by shipping the whole graph",
    paper="§1.2 (the Θ(n²) baseline)",
    bound=QUADRATIC,
    params=[
        ParamSpec(
            "property",
            type="str",
            default="triangle-free",
            choices=tuple(NAMED_PREDICATES),
            description="named graph predicate to certify",
        )
    ],
    families=("path", "cycle", "star", "random-connected"),
)
def _universal_factory(property: str = "triangle-free") -> CertificationScheme:
    return UniversalScheme(NAMED_PREDICATES[property], name=property)


@register(
    "lcl-coloring",
    cls=LCLWitnessScheme,
    summary="a correct PARAM-colouring of the LCL problem exists",
    paper="Appendix C.2 (LCL witness certification)",
    bound=CONSTANT,
    params=[ParamSpec("colors", default=3, minimum=1, description="number of colours")],
    families=("path", "cycle", "grid"),
)
def _lcl_coloring_factory(colors: int = 3) -> CertificationScheme:
    def solver(graph):
        try:
            return greedy_proper_coloring(graph, colors)
        except ValueError:
            return None

    return LCLWitnessScheme(presburger_proper_coloring(colors), solver=solver)


@register(
    "lcl-mis",
    cls=LCLWitnessScheme,
    summary="a maximal independent set labelling exists (always yes)",
    paper="Appendix C.2 (LCL witness certification)",
    bound=CONSTANT,
    families=("path", "cycle", "star"),
)
def _lcl_mis_factory() -> CertificationScheme:
    return LCLWitnessScheme(
        presburger_maximal_independent_set(), solver=greedy_maximal_independent_set
    )


@register(
    "dga-two-coloring",
    cls=_DGACertificationScheme,
    summary="a nondeterministic DGA accepts (2-colourability prover)",
    paper="Appendix A.3 (distributed graph automata)",
    bound=CONSTANT,
    families=("path", "cycle", "binary-tree"),
)
def _dga_two_coloring_factory() -> CertificationScheme:
    return certification_from_dga(two_coloring_prover_dga())
