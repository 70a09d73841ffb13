"""Scenario: exploring why some properties cannot be certified compactly.

This example replays Section 7 of the paper on small instances, driving
everything through the declarative experiment pipeline — the same
:class:`~repro.experiments.LowerBoundSpec` machinery behind
``python -m repro.cli lower-bound``:

* the Theorem 2.5 construction: gadget dichotomy (treedepth 5 exactly when
  the matchings agree, Lemma 7.3), the Alice/Bob protocol simulation of
  Proposition 7.2, and the Ω(log n) bound series;
* the Theorem 2.3 construction: the fixed-point-free automorphism appearing
  and disappearing with the strings, and the Ω(ℓ) bound series;
* the punchline: the registry's *upper*-bound catalogue
  (``registry.create`` builds every scheme) side by side with the lower
  bounds that force the paper's restriction to tree-like graphs.

Run with::

    python examples/lower_bound_playground.py
"""

from __future__ import annotations

from repro import registry
from repro.experiments import LowerBoundSpec, run_experiment
from repro.lower_bounds.catalog import LOWER_BOUND_CONSTRUCTIONS


def main() -> None:
    # --- Theorem 2.5 / Lemma 7.3 ---------------------------------------------
    print("Theorem 2.5 (treedepth <= 5 needs Omega(log n) bits):")
    small = run_experiment(
        LowerBoundSpec(construction="treedepth", sizes=(2,), simulate=True, seed=0)
    )
    point = small.points[0]
    print(
        f"  n=2 gadget ({point.vertices} vertices): dichotomy "
        f"(td 5 iff matchings equal) verified = {point.dichotomy_ok}, "
        f"Alice/Bob protocol probes = {point.protocol_ok}"
    )
    series = run_experiment(
        LowerBoundSpec(construction="treedepth", sizes=(8, 64, 512), check_dichotomy=False)
    )
    print("  implied certificate lower bound for larger n (bits):")
    for p in series.points:
        print(
            f"    n={p.size:>4}: ell = log2(n!) = {p.ell:>5} bits over r = {p.r:>5} "
            f"middle vertices, bound ell/r = {p.bound_bits:.2f}"
        )
    print(f"  series shape: {series.bound.label}, within band = {series.bound.ok}")

    # --- Theorem 2.3 ----------------------------------------------------------
    print("\nTheorem 2.3 (fixed-point-free automorphism needs Omega(ell) bits):")
    autom = run_experiment(
        LowerBoundSpec(construction="automorphism", sizes=(4, 8, 12), seed=7)
    )
    for p in autom.points:
        print(
            f"  ell={p.size:>3}: {p.vertices}-vertex tree gadget, dichotomy "
            f"(automorphism iff strings equal) verified = {p.dichotomy_ok}, "
            f"bound = {p.bound_bits:.1f} bits"
        )
    if autom.fit is not None:
        print(f"  fitted growth of the bound series: {autom.fit.label}")

    # --- upper bounds vs lower bounds ----------------------------------------
    # The registry catalogues what CAN be certified compactly; the
    # constructions above show what cannot.  Every scheme below builds via
    # registry.create(key), so new registry entries appear here for free.
    print("\nThe two sides of the paper, in one place:")
    print("  upper bounds (registry catalogue, first 6 of "
          f"{len(registry.REGISTRY)}):")
    for info in list(registry.REGISTRY)[:6]:
        print(f"    {info.key:<20} {info.bound.label:<12} [{info.paper}]")
    print("  lower bounds (construction catalogue):")
    for key in sorted(LOWER_BOUND_CONSTRUCTIONS):
        construction = LOWER_BOUND_CONSTRUCTIONS[key]
        print(f"    {key:<20} {construction.bound.label:<12} [{construction.paper}]")

    # Sanity: the registry really builds a scheme for the treedepth upper
    # bound whose matching lower bound we just exercised.
    scheme = registry.create("treedepth", {"t": 5})
    print(f"\n  registry.create('treedepth', {{'t': 5}}) -> {scheme.name!r}")

    print(
        "\nTakeaway: both lower-bound properties encode EQUALITY between"
        " far-apart parts of the graph, so by Proposition 7.2 their"
        " certificates cannot be compact in general — which is why the paper"
        " restricts to MSO properties on trees and bounded-treedepth graphs."
    )


if __name__ == "__main__":
    main()
