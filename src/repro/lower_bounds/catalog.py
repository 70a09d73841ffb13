"""Catalogue of the paper's Section 7 lower-bound constructions.

The registry (:mod:`repro.registry`) catalogues the paper's *upper* bounds —
one :class:`~repro.core.scheme.CertificationScheme` per theorem.  This
module is its mirror image for the *lower* bounds: each entry wraps one
instantiation of the Section 7.1 reduction framework as plain data —

* how to build the :class:`~repro.lower_bounds.framework.ReductionFramework`
  at a given grid size,
* how many bits ``ℓ`` the construction's injections can encode at that size
  and over how many middle vertices ``r`` they spread,
* how to draw an (equal, different) pair of encoded strings and build the
  gadget ``G(s_A, s_B)``,
* the property whose dichotomy Proposition 7.2 exploits, and
* the expected asymptotic shape of the resulting Ω(ℓ/r) series (reusing the
  registry's :class:`~repro.registry.SizeBound` machinery — an Ω-bound
  series tracks its envelope within a constant band exactly like an O-bound
  series does),

so that :class:`repro.experiments.lower_bound.LowerBoundSpec` can run every
lower-bound search declaratively, the way :class:`~repro.experiments.spec.
SweepSpec` runs the upper-bound sweeps.

The :class:`ProtocolProbeScheme` at the bottom is the toy scheme the
pipeline feeds to :meth:`ReductionFramework.simulate_protocol` to exercise
the Alice/Bob simulation on the real gadgets: it accepts exactly the
all-``0x01`` certificate assignment, which every graph admits, so a correct
simulation must find it — and :class:`NeverAcceptScheme` is its negative
control, for which the simulation must come up empty.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import networkx as nx

from repro.graphs.automorphism import has_fixed_point_free_automorphism
from repro.lower_bounds.automorphism import (
    automorphism_framework,
    automorphism_instance,
    automorphism_lower_bound_bits,
)
from repro.lower_bounds.framework import ReductionFramework, certificate_size_lower_bound
from repro.lower_bounds.treedepth_lb import (
    matching_capacity_bits,
    string_to_matching,
    treedepth_framework,
    treedepth_gadget,
    treedepth_lower_bound_bits,
)
from repro.registry import RegistryError, SizeBound, UnknownKeyError
from repro.treedepth.decomposition import exact_treedepth


def _log2(n: int) -> float:
    return math.log2(max(2, n))


def _random_bits(length: int, rng: random.Random) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _flip_one_bit(bits: str, rng: random.Random) -> str:
    position = rng.randrange(len(bits))
    flipped = "1" if bits[position] == "0" else "0"
    return bits[:position] + flipped + bits[position + 1 :]


@dataclass(frozen=True)
class LowerBoundConstruction:
    """One declarative lower-bound construction (a Section 7 reduction).

    ``sizes`` passed to the callables are the construction's own grid
    coordinate — the string length ℓ for the Theorem 2.3 tree encoding, the
    matching size n for the Theorem 2.5 gadget.  ``framework`` may be None
    for closed-form entries whose gadget would be too large to materialise
    (they still report the implied Ω bound, but cannot check the dichotomy
    or run the protocol simulation).
    """

    key: str
    summary: str
    paper: str
    bound: SizeBound
    """Expected asymptotic shape of the ``size → bound_bits`` series."""
    capacity: Callable[[int], int]
    """ℓ: how many bits the injections encode at this grid size."""
    spread: Callable[[int], int]
    """r = |V_α ∪ V_β|: how many certificates Alice and Bob read."""
    bound_bits: Callable[[int], float]
    """The Ω(ℓ/r) bound of Proposition 7.2 at this grid size, in bits."""
    framework: Optional[Callable[[int], ReductionFramework]] = None
    string_pair: Optional[Callable[[int, random.Random, bool], Tuple[str, str]]] = None
    """Draw an (s_A, s_B) pair; the third argument selects equal strings."""
    build_instance: Optional[Callable[[int, str, str], nx.Graph]] = None
    has_property: Optional[Callable[[nx.Graph], bool]] = None
    """The certified property of the dichotomy (holds iff s_A = s_B)."""

    @property
    def checkable(self) -> bool:
        """Whether the dichotomy can actually be exercised on instances."""
        return (
            self.string_pair is not None
            and self.build_instance is not None
            and self.has_property is not None
        )


LOWER_BOUND_CONSTRUCTIONS: Dict[str, LowerBoundConstruction] = {}


def register_construction(construction: LowerBoundConstruction) -> LowerBoundConstruction:
    if construction.key in LOWER_BOUND_CONSTRUCTIONS:
        raise RegistryError(
            f"lower-bound construction {construction.key!r} is already registered"
        )
    LOWER_BOUND_CONSTRUCTIONS[construction.key] = construction
    return construction


def get_construction(key: str) -> LowerBoundConstruction:
    try:
        return LOWER_BOUND_CONSTRUCTIONS[key]
    except KeyError:
        raise UnknownKeyError(
            f"unknown lower-bound construction {key!r}; "
            f"known: {', '.join(sorted(LOWER_BOUND_CONSTRUCTIONS))}"
        ) from None


# ---------------------------------------------------------------------------
# Theorem 2.3: fixed-point-free automorphism, grid coordinate = ℓ (bits)
# ---------------------------------------------------------------------------


def _automorphism_pair(ell: int, rng: random.Random, equal: bool) -> Tuple[str, str]:
    bits = _random_bits(ell, rng)
    return (bits, bits) if equal else (bits, _flip_one_bit(bits, rng))


register_construction(
    LowerBoundConstruction(
        key="automorphism",
        summary="fixed-point-free automorphism of a bounded-depth tree needs Ω(ℓ) bits",
        paper="Theorem 2.3 / Section 7.2",
        # r = 2 stays constant while ℓ grows, so the bound series is linear
        # in the grid coordinate ℓ.
        bound=SizeBound("Ω(ℓ)", lambda n, p: float(n)),
        capacity=lambda ell: ell,
        spread=lambda ell: 2,
        bound_bits=lambda ell: certificate_size_lower_bound(ell, 2),
        framework=automorphism_framework,
        string_pair=_automorphism_pair,
        build_instance=lambda ell, s_a, s_b: automorphism_instance(s_a, s_b),
        has_property=has_fixed_point_free_automorphism,
    )
)

# The same bound re-parameterised by the vertex count n of the instance (the
# shape Theorem 2.3 states).  Our depth-2 encoding packs Θ(√n · log n) bits
# into n vertices, so the concrete envelope is √n — closed-form only: the
# gadget at n = 4096 would have millions of vertices.
register_construction(
    LowerBoundConstruction(
        key="automorphism-by-n",
        summary="the Theorem 2.3 bound as a function of instance vertices",
        paper="Theorem 2.3 (encoding-limited concrete form)",
        bound=SizeBound("Ω(√n) (this encoding)", lambda n, p: math.sqrt(max(1, n))),
        capacity=lambda n: int(2 * automorphism_lower_bound_bits(n)),
        spread=lambda n: 2,
        bound_bits=automorphism_lower_bound_bits,
    )
)


# ---------------------------------------------------------------------------
# Theorem 2.5: treedepth ≤ 5, grid coordinate = matching size n
# ---------------------------------------------------------------------------


def _treedepth_pair(n: int, rng: random.Random, equal: bool) -> Tuple[str, str]:
    ell = matching_capacity_bits(n)
    if ell < 1:
        raise ValueError(f"matchings on {n} elements cannot encode a single bit")
    bits = _random_bits(ell, rng)
    return (bits, bits) if equal else (bits, _flip_one_bit(bits, rng))


def _treedepth_instance(n: int, s_a: str, s_b: str) -> nx.Graph:
    return treedepth_gadget(string_to_matching(s_a, n), string_to_matching(s_b, n))


register_construction(
    LowerBoundConstruction(
        key="treedepth",
        summary="certifying treedepth ≤ 5 needs Ω(log n) bits (Figure 3 gadget)",
        paper="Theorem 2.5 / Lemma 7.3",
        bound=SizeBound("Ω(log n)", lambda n, p: _log2(n)),
        capacity=matching_capacity_bits,
        spread=lambda n: 4 * n + 1,
        bound_bits=treedepth_lower_bound_bits,
        framework=treedepth_framework,
        string_pair=_treedepth_pair,
        build_instance=_treedepth_instance,
        # Lemma 7.3: treedepth 5 iff the matchings agree, ≥ 6 otherwise.
        # WARNING: exact_treedepth is exponential — dichotomy checks are
        # for tiny matching sizes (n = 2 gives the 17-vertex gadget).
        has_property=lambda graph: exact_treedepth(graph) <= 5,
    )
)


# ---------------------------------------------------------------------------
# Probe schemes for the Alice/Bob protocol simulation
# ---------------------------------------------------------------------------


class ProtocolProbeScheme:
    """Toy verifier whose only accepting assignment is all-``0x01``.

    Every graph admits it, so :meth:`ReductionFramework.simulate_protocol`
    must report acceptance on every string pair — a completeness probe for
    the Alice/Bob simulation run on the real lower-bound gadgets.

    Deliberately *not* a :class:`~repro.core.scheme.CertificationScheme`:
    the probes certify nothing from the paper (the registry completeness
    test would rightly flag them); the simulation only reads ``verify``.
    """

    name = "protocol-probe"

    def verify(self, view) -> bool:
        return view.certificate == b"\x01"


class NeverAcceptScheme:
    """Negative control: no certificate assignment is ever accepted."""

    name = "never-accept"

    def verify(self, view) -> bool:
        return False
