"""Quickstart: certify properties of a small network with compact certificates.

Run with::

    python examples/quickstart.py

The script walks through the basic workflow of the library:

1. ask the **stable facade** :mod:`repro.api` for a verdict — one call
   builds the graph, creates the scheme from the registry, runs the honest
   prover and the radius-1 distributed verifier, and returns a typed
   response (no internals touched);
2. look at the sizes, at what happens on a no-instance, and at how
   expected failures come back as structured errors with machine-readable
   codes instead of tracebacks;
3. peek under the hood once (identifiers, raw certificates) via the
   ``include_certificates`` knob;
4. run a declarative *sweep*: a whole certificate-size series measured
   through the scheme registry, checked against the scheme's asymptotic
   bound **and** fitted for its measured growth exponent, in a handful of
   lines (the same machinery behind ``python -m repro.cli sweep``).

Because every ``api`` call routes through one long-lived certification
service, repeated questions about the same instance reuse the compiled
topology and the decided ground truth — see ``service_quickstart.py`` for
the batched/wire-protocol side of that service.
"""

from __future__ import annotations

import networkx as nx

from repro import api, registry
from repro.experiments import SweepSpec, run_experiment


def main() -> None:
    # --- the catalogue ------------------------------------------------------
    # Every certification scheme registers under a stable key with its paper
    # reference and expected certificate-size bound.
    print(f"registry: {len(registry.REGISTRY)} schemes; a few of them:")
    for key in ("tree", "treedepth", "mso-trees", "universal"):
        info = registry.get(key)
        print(f"  {info.key:<12} {info.bound.label:<10} [{info.paper}]")

    # --- a yes-instance -----------------------------------------------------
    # One facade call: graph spec in, typed verdict out.
    verdict = api.certify("treedepth", "path:7", params={"t": 3}, seed=42)
    print("\nP7, scheme 'treedepth <= 3'")
    print(f"  property holds:        {verdict.holds}")
    print(f"  honest proof accepted: {verdict.accepted}")
    print(f"  max certificate size:  {verdict.max_certificate_bits} bits per vertex")

    # --- looking under the hood ---------------------------------------------
    # ``include_certificates`` returns the raw per-vertex certificates the
    # honest prover assigned (vertex id and hex bytes).
    detailed = api.certify(
        "treedepth", nx.path_graph(7), params={"t": 3}, seed=42,
        include_certificates=True,
    )
    print("\nper-vertex certificates (bytes):")
    for vertex_repr in sorted(detailed.certificates, key=int):
        entry = detailed.certificates[vertex_repr]
        print(f"  vertex {vertex_repr} (id {entry['id']:>3}): "
              f"{len(entry['hex']) // 2} bytes")

    # --- a no-instance -------------------------------------------------------
    verdict = api.certify("treedepth", "path:8", params={"t": 3}, seed=42)
    print("\nP8, scheme 'treedepth <= 3'")
    print(f"  property holds:                      {verdict.holds}")
    print(f"  adversarial assignments all rejected: {verdict.sound}")

    # --- structured errors ---------------------------------------------------
    # Expected failures are data: a machine-readable code plus the message.
    try:
        api.certify("treedepht", "path:7")
    except api.ServiceError as error:
        print(f"\ntypo'd scheme -> [{error.response.code}]")
        print(f"  {error.response.message.splitlines()[0][:72]}...")

    # --- a second scheme: acyclicity ----------------------------------------
    tree_verdict = api.certify("tree", "path:7", seed=1)
    print("\nP7, scheme 'the graph is a tree'")
    print(f"  accepted with {tree_verdict.max_certificate_bits} bits per vertex")

    # --- running sweeps ------------------------------------------------------
    # A SweepSpec measures a whole size series through the registry (run
    # `python -m repro.cli list` for the catalogue).  Each grid point derives
    # its own seed, so any sub-range of the sweep reproduces independently —
    # sweeps even shard across machines (run_experiment(spec, shard=(i, k))) —
    # and the measured series is checked against the bound registered for
    # the scheme (here: O(log n)) and fitted for its actual growth exponent.
    spec = SweepSpec(scheme="tree", family="random-tree", sizes=(8, 32, 128), trials=10)
    result = run_experiment(spec)
    print("\nsweep 'tree' over random-tree:{8,32,128}")
    for n, bits in sorted(result.series.items()):
        print(f"  n={n:>4}: {bits} bits per vertex")
    print(f"  within registered bound {result.bound.label}: {result.bound.ok}")
    if result.fit is not None:
        print(f"  fitted growth: {result.fit.label} (R² {result.fit.r_squared:.2f})")


if __name__ == "__main__":
    main()
