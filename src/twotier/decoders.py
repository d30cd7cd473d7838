"""Two-tier decoding.

Tier 1 scrubs individual packets against the union code: membership pass,
nearest-vector correction within a radius, or erasure on ambiguity. Tier 2
is brute-force nearest-codeword search over the full codebook, in the
injection or subspace metric for subspace codes and in the rank metric for
Gabidulin codes. Erased packets are excluded from the tier-2 input (span
rows for subspace codes, punctured positions for rank codes). When tier 2
runs in list mode, the list can feed back: tier 1 re-decodes against the
union restricted to the listed components, whose minimum distance is never
smaller.
"""

from dataclasses import dataclass

import numpy as np

from .codes import GABIDULIN, SUBSPACE, Codebook
from .union import UnionCode

VALID = "valid"
CORRECTED = "corrected"
ERASED = "erased"
REJECTED = "rejected"

DETECT_ONLY = "detect-only"
CORRECT = "correct"
CORRECT_OR_ERASE = "correct-or-erase"
TIER1_MODES = (DETECT_ONLY, CORRECT, CORRECT_OR_ERASE)

METRICS = ("injection", "subspace")


@dataclass(frozen=True)
class PacketVerdict:
    outcome: str
    vector: tuple | None = None
    flips: int = 0
    candidates: int = 0


@dataclass(frozen=True)
class DecodeResult:
    chosen: int | None
    metric_value: int | None
    tie: bool
    list: tuple | None = None


@dataclass(frozen=True)
class DecodeOptions:
    tier1_enabled: bool = True
    mode: str = CORRECT_OR_ERASE
    radius: int | None = None          # None: floor((d_H(union)-1)/2)
    metric: str = "injection"
    list_radius: int | None = None     # set: tier 2 runs in list mode
    feedback: bool = False
    allow_radius_override: bool = False

    def __post_init__(self):
        if self.mode not in TIER1_MODES:
            raise ValueError(f"unknown tier-1 mode {self.mode!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown tier-2 metric {self.metric!r}")
        if self.feedback and self.list_radius is None:
            raise ValueError("feedback requires a tier-2 list radius")
        if self.feedback and not self.tier1_enabled:
            raise ValueError("feedback requires tier 1")
        if self.radius is not None and self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.list_radius is not None and self.list_radius < 0:
            raise ValueError("list radius must be nonnegative")


def default_radius(min_distance: int) -> int:
    return (min_distance - 1) // 2


def tier1_decode(packet, union: UnionCode, radius: int, mode: str = CORRECT_OR_ERASE,
                 *, allow_radius_override: bool = False) -> PacketVerdict:
    """Packet-level decode against the active union code."""
    packet = tuple(packet)
    _check_packets([packet], union.p, union.ambient_len)
    if mode not in TIER1_MODES:
        raise ValueError(f"unknown tier-1 mode {mode!r}")
    if packet in union:
        return PacketVerdict(VALID, vector=packet, flips=0, candidates=1)
    if mode == DETECT_ONLY:
        return PacketVerdict(REJECTED)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if mode == CORRECT and not allow_radius_override:
        limit = default_radius(union.min_distance())
        if radius > limit:
            raise ValueError(
                f"radius {radius} exceeds the unique-decoding limit {limit}; "
                "pass allow_radius_override to experiment")
    if radius == 0:
        return PacketVerdict(REJECTED) if mode == CORRECT else PacketVerdict(ERASED)
    best, hits = union.nearest(packet)
    if best <= radius:
        if len(hits) == 1:
            return PacketVerdict(CORRECTED, vector=hits[0], flips=best, candidates=1)
        if mode == CORRECT_OR_ERASE:
            return PacketVerdict(ERASED, candidates=len(hits))
        # a wrong correction is worse than a dropped packet
        return PacketVerdict(REJECTED, candidates=len(hits))
    return PacketVerdict(REJECTED) if mode == CORRECT else PacketVerdict(ERASED)


# ---------------------------------------------------------------- tier 2
#
# Both lanes rank every codeword in one Codebook.batched_rank call, which
# picks the kernel from p: over GF(2), linalg.packed_rank eliminates a
# copy of each block of the codebook's packed rows (Codebook.table, built
# in set-up: one unsigned int of the narrowest dtype per row);
# otherwise linalg.batched_rank reduces the codebook's digit rows mod p.
# Both work in blocks of about linalg.RANK_CHUNK rows. A distance grows
# with the rank, so _select picks on the ranks and maps only its picks.

def _check_kind(codebook: Codebook, kind: str):
    if codebook.kind != kind:
        raise ValueError(f"codebook is not a {kind} codebook")


def _check_packets(rows, p: int, width: int):
    """ValueError on a packet of the wrong length or with a digit outside [0, p)."""
    for row in rows:
        if len(row) != width:
            raise ValueError(f"packet length {len(row)} != ambient {width}")
        if min(row) < 0 or max(row) >= p:
            raise ValueError(f"packet digits must lie in [0, {p}), got {tuple(row)}")


def _subspace_ranks(packets, codebook, metric: str):
    """(r, scale, shift): every codeword's rank r against the packets, and
    the map ``scale * r + shift`` that makes r its distance in the metric."""
    if not packets:
        raise ValueError("tier-2 decoding needs at least one packet")
    _check_kind(codebook, SUBSPACE)
    if metric not in METRICS:
        raise ValueError(f"unknown tier-2 metric {metric!r}")
    _check_packets(packets, codebook.p, codebook.stack.shape[2])
    basis, a = codebook.basis_of(packets)
    # With r the rank of the codeword rows reduced against the received
    # basis (rank a) and b the codeword dimension, dim(U+V) = a + r and
    # dim(U∩V) = a + b - dim(U+V) = b - r.
    b = codebook.stack.shape[1]
    r = codebook.batched_rank(basis=basis)
    if metric == "injection":
        return r, 1, max(a, b) - b      # max(a, b) - dim(U∩V)
    return r, 2, a - b                  # dim(U+V) - dim(U∩V)


def _select(ranks, list_radius, scale: int = 1, shift: int = 0) -> DecodeResult:
    """Nearest codeword, or with a list radius every codeword within it,
    where a codeword's distance is ``scale * rank + shift`` (scale > 0).

    Candidates run in ascending distance, then index; the first is chosen,
    and a tie means the runner-up is as near. The distance grows with the
    rank, so the candidates are found and ordered on the ranks, and only
    the chosen rank is mapped to a distance.
    """
    if list_radius is None:
        chosen = int(ranks.argmin())
        best = ranks[chosen]
        tie = bool((ranks[chosen + 1:] == best).any())
        return DecodeResult(chosen=chosen, metric_value=scale * int(best) + shift, tie=tie)
    if list_radius < 0:
        raise ValueError("list radius must be nonnegative")
    limit = (list_radius - shift) // scale
    # no rank is negative, so a negative limit lists nothing
    order = np.flatnonzero(ranks <= limit) if limit >= 0 else ranks[:0]
    order = order[np.argsort(ranks[order], kind="stable")]
    if not len(order):
        return DecodeResult(chosen=None, metric_value=None, tie=False, list=())
    best = ranks[order[0]]
    tie = len(order) > 1 and ranks[order[1]] == best
    return DecodeResult(chosen=int(order[0]), metric_value=scale * int(best) + shift,
                        tie=bool(tie), list=tuple(order.tolist()))


def tier2_subspace_decode(packets, codebook, metric: str = "injection") -> DecodeResult:
    """Nearest codeword to the row space of the packets; ties pick the lowest index."""
    r, scale, shift = _subspace_ranks(packets, codebook, metric)
    return _select(r, None, scale, shift)


def tier2_list_decode(packets, codebook, radius: int, metric: str = "injection") -> DecodeResult:
    """All codewords within the metric radius, ascending distance then index."""
    r, scale, shift = _subspace_ranks(packets, codebook, metric)
    return _select(r, radius, scale, shift)


def _rank_distances(rows, codebook, positions):
    _check_kind(codebook, GABIDULIN)
    _, n, width = codebook.stack.shape
    rows = list(rows)
    if len(rows) != n:
        raise ValueError(f"word length {len(rows)} != code length {n}")
    positions = sorted(range(n) if positions is None else positions)
    if not positions:
        raise ValueError("tier-2 rank decoding needs at least one surviving position")
    # coordinates are GF(p)-linear, so the coordinate rows of word - codeword
    # are the differences of the rows, in any packet basis
    received = [rows[i] for i in positions]
    _check_packets(received, codebook.p, width)
    return codebook.batched_rank(positions, offset=received)


def tier2_rank_decode(rows, codebook, positions=None, list_radius: int | None = None) -> DecodeResult:
    """Minimum rank-distance decoding of a word given as its packet rows, one
    per position; erased positions are excluded via `positions`."""
    return _select(_rank_distances(rows, codebook, positions), list_radius)


# ---------------------------------------------------------------- pipeline

@dataclass
class TwoTierResult:
    result: DecodeResult
    verdicts: list
    audit: dict


FAILURE = DecodeResult(chosen=None, metric_value=None, tie=False)


def _audit(result: DecodeResult | None):
    """The result's fields as a report dict (the list tuple is immutable, so shared)."""
    if result is None:
        return None
    return {"chosen": result.chosen, "metric_value": result.metric_value,
            "tie": result.tie, "list": result.list}


def _run_tier1(packets, union, options: DecodeOptions):
    radius = options.radius
    if radius is None:
        radius = default_radius(union.min_distance())
    verdicts = [tier1_decode(p, union, radius, options.mode,
                             allow_radius_override=options.allow_radius_override)
                for p in packets]
    return verdicts, radius


def two_tier_decode(packets, union: UnionCode, codebook, options: DecodeOptions = DecodeOptions()) -> TwoTierResult:
    """Tier 1 per packet, tier 2 on the survivors, optional list feedback.

    With tier 1 disabled the DecodeResult is exactly what tier 2 alone
    produces on the raw packets.
    """
    packets = [tuple(p) for p in packets]
    if not packets:
        raise ValueError("no packets to decode")
    _check_packets(packets, union.p, union.ambient_len)
    audit = {"tier1_enabled": options.tier1_enabled, "packets": len(packets)}

    if options.tier1_enabled:
        verdicts, radius = _run_tier1(packets, union, options)
        audit["tier1_radius"] = radius
        audit["tier1_mode"] = options.mode
    else:
        verdicts = []

    first = _tier2_pass(packets, verdicts, codebook, options,
                        list_radius=options.list_radius)
    audit["first_pass"] = _audit(first)
    if first is None:
        first = FAILURE

    final = first
    audit["feedback"] = None
    if options.feedback and first.list:
        restricted = union.restrict(set(first.list))
        feedback = {"list": list(first.list),
                    "restricted_cardinality": restricted.cardinality}
        if restricted.cardinality < 2:
            # a one-vector union has no minimum distance to set a tier-1
            # radius from, so the first pass stands
            feedback["skipped"] = "restricted union has fewer than two vectors"
        else:
            verdicts, radius = _run_tier1(packets, restricted, options)
            second = _tier2_pass(packets, verdicts, codebook, options, list_radius=None)
            feedback["restricted_min_distance"] = restricted.min_distance()
            feedback["tier1_radius"] = radius
            feedback["second_pass"] = _audit(second)
            final = second if second is not None else FAILURE
        audit["feedback"] = feedback

    audit["final"] = _audit(final)
    return TwoTierResult(result=final, verdicts=verdicts, audit=audit)


def _tier2_pass(packets, verdicts, codebook, options: DecodeOptions, list_radius):
    """One tier-2 run on the packets tier 1 kept; None when nothing survives."""
    if codebook.kind == SUBSPACE:
        if verdicts:
            kept = [v.vector for v in verdicts if v.outcome in (VALID, CORRECTED)]
        else:
            kept = packets
        if not kept:
            return None
        if list_radius is not None:
            return tier2_list_decode(kept, codebook, list_radius, options.metric)
        return tier2_subspace_decode(kept, codebook, options.metric)

    # rank-metric lane: packets are the codeword rows in position order
    positions = None
    rows = packets
    if verdicts:
        positions = [i for i, v in enumerate(verdicts) if v.outcome in (VALID, CORRECTED)]
        if not positions:
            return None
        # a corrected packet stands in for the one received
        rows = [v.vector or pkt for v, pkt in zip(verdicts, packets)]
    return tier2_rank_decode(rows, codebook, positions, list_radius=list_radius)
