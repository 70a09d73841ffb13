"""Declarative certificate-size series for ad-hoc MSO formulas.

The catalogue's sweep kind measures *registered* schemes; this kind measures
an **ephemeral** scheme compiled on the fly from a client-supplied MSO
formula (:mod:`repro.formulas`) — the operational form of the paper's
Theorem 2.6 meta-theorem.  A :class:`FormulaSpec` carries the formula text
plus its compilation knobs (treedepth bound ``t``, quantifier-rank hint
``k``, compilation ``route``, elimination-tree ``model``); every grid point
builds the family instance, compiles the formula (one cache miss per
process, hits afterwards) and runs the full evaluation harness —
planner-routed across all four engines like any catalogue sweep.

Points are :class:`~repro.experiments.spec.SweepPoint` s and the result is a
:class:`~repro.experiments.artifacts.SweepResult` under its own kind, so
``merge_artifacts``, the ``results`` aggregation and the benchmark
regression gate treat a formula series exactly like a catalogue
certificate-size series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.experiments.artifacts import SweepResult
from repro.experiments.spec import ExperimentSpec, SweepPoint, harness_point
from repro.formulas import CompiledFormula, compile_formula
from repro.registry import SizeBound


@dataclass(frozen=True)
class FormulaSpec(ExperimentSpec):
    """One declarative certificate-size series for one ad-hoc formula.

    ``t``/``k``/``route``/``model`` are the compilation knobs of
    :func:`repro.formulas.compile_formula`; everything else matches
    :class:`~repro.experiments.spec.SweepSpec` (grid, derived seeds, engine
    routing, sharding).  ``validate`` compiles the formula, so a bad formula
    fails before any grid point runs — as a
    :class:`~repro.formulas.FormulaError`, which the service maps onto the
    ``invalid-formula`` wire code.
    """

    kind: ClassVar[str] = "formula"
    _REQUIRED: ClassVar[Tuple[str, ...]] = ("formula", "family", "sizes")
    artifact_prefix: ClassVar[str] = "formula"

    formula: str
    family: str
    sizes: Tuple[int, ...]
    t: int = 2
    k: Optional[int] = None
    route: str = "treedepth"
    model: str = "auto"
    trials: int = 20
    seed: int = 0
    engine: str = "auto"
    check_bound: bool = True
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.formula, str) or not self.formula.strip():
            raise ValueError("formula must be a non-empty string")
        super().__post_init__()

    def compiled(self) -> CompiledFormula:
        """Compile (or fetch from the cache) this spec's formula."""
        return compile_formula(
            self.formula, t=self.t, route=self.route, k=self.k, model=self.model
        )

    def validate(self) -> "FormulaSpec":
        """Check the grid and compile the formula; returns self.

        Formula problems raise :class:`~repro.formulas.FormulaError`;
        everything else raises :class:`~repro.registry.RegistryError`, like
        every other spec kind.
        """
        super().validate()
        self.compiled()  # FormulaError on parse/compile problems
        return self

    def run_point(self, index: int) -> SweepPoint:
        return harness_point(self, index, self.compiled().scheme)

    def envelope(self) -> Optional[Tuple[SizeBound, Dict[str, Any]]]:
        if not self.check_bound:
            return None
        compiled = self.compiled()
        return compiled.bound, {"t": self.t, "k": compiled.k}

    def _default_label(self) -> str:
        return f"formula-{self.route}-{self.family}"


class FormulaResult(SweepResult):
    """Everything a :class:`FormulaSpec` run produces."""

    kind: ClassVar[str] = "formula"
