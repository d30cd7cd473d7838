"""Two-tier decoding.

Tier 1 scrubs individual packets against the union code: membership pass
(a lookup in its record's member dict), nearest-vector correction within a
radius, or erasure on ambiguity. Tier 2 is exact nearest-codeword search
over the full codebook, in the injection or subspace metric for subspace
codes and in the rank metric for Gabidulin codes. For a subspace code it
reads the union's owner index: a codeword's distance depends only on how
many union vectors it owns in the received space, so only the owners of
those vectors are counted, and every other codeword is at the largest
distance. For a Gabidulin code it first asks the syndrome table of the
kept positions P, formed on the codebook's first decode at P: a word
within t = floor((|P| - k)/2) of a codeword, the unique-decoding radius of
the MRD code at P, is decoded by one lookup; a nearest decode beyond t, a
list radius above t, |P| < k and a table over its budget or refused for a
shared syndrome rank every codeword instead. Erased packets are excluded
from the tier-2 input (span rows for subspace codes, punctured positions
for rank codes). When tier 2 runs in list mode, the list can feed back:
tier 1 re-decodes against the union restricted to the listed components,
whose minimum distance is never smaller; when that pass keeps the tier-2
input of the first, the head of the first pass's list is the answer and
tier 2 is not run again.
"""

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .codes import GABIDULIN, SUBSPACE, Codebook
from .errors import OptionError
from .union import UnionCode, _span_coefficients, spans_of

VALID = "valid"
CORRECTED = "corrected"
ERASED = "erased"
REJECTED = "rejected"

DETECT_ONLY = "detect-only"
CORRECT = "correct"
CORRECT_OR_ERASE = "correct-or-erase"
TIER1_MODES = (DETECT_ONLY, CORRECT, CORRECT_OR_ERASE)
TIER1_OUTCOMES = (VALID, CORRECTED, ERASED, REJECTED)   # the columns of a block's counts

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
            raise OptionError("mode", f"unknown tier-1 mode {self.mode!r}")
        if self.metric not in METRICS:
            raise OptionError("metric", f"unknown tier-2 metric {self.metric!r}")
        if self.feedback and self.list_radius is None:
            raise OptionError("feedback", "feedback requires a tier-2 list radius")
        if self.feedback and not self.tier1_enabled:
            raise OptionError("feedback", "feedback requires tier 1")
        if self.radius is not None and self.radius < 0:
            raise OptionError("radius", "radius must be nonnegative")
        if self.list_radius is not None and self.list_radius < 0:
            raise OptionError("list_radius", "list radius must be nonnegative")


def default_radius(min_distance: int) -> int:
    return (min_distance - 1) // 2


def tier1_radius(options: DecodeOptions, union: UnionCode) -> int:
    """The options' tier-1 radius, by default the union's unique-decoding one."""
    return default_radius(union.min_distance()) if options.radius is None else options.radius


_ERASED, _REJECTED = PacketVerdict(ERASED), PacketVerdict(REJECTED)


def tier1_decode(packet, union: UnionCode, radius: int, mode: str = CORRECT_OR_ERASE,
                 *, allow_radius_override: bool = False) -> PacketVerdict:
    """Packet-level decode against the active union code: a member's VALID
    verdict from the span record's ``valid``, found through its
    ``numbers``, with no packet check to pass."""
    packet = tuple(packet)
    spans = union.provenance
    try:
        u = spans.numbers.get(packet)
    except TypeError:                   # an unhashable digit: the check names it
        u = None
    if u is not None and union.held is not None and u not in union.held:
        u = None                        # a vector of a component the union leaves out
    if u is None:
        _check_packets([packet], union.p, union.ambient_len)
    if mode not in TIER1_MODES:
        raise ValueError(f"unknown tier-1 mode {mode!r}")
    if u is not None:
        verdict = spans.valid[u]
        if verdict is None:             # the member's first hit: its row of Python ints
            verdict = spans.valid[u] = PacketVerdict(VALID, tuple(spans.matrix[u].tolist()), 0, 1)
        return verdict
    if mode == DETECT_ONLY:
        return _REJECTED
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if mode == CORRECT and not allow_radius_override:
        limit = default_radius(union.min_distance())
        if radius > limit:
            raise ValueError(
                f"radius {radius} exceeds the unique-decoding limit {limit}; "
                "pass allow_radius_override to experiment")
    if radius == 0:
        return _REJECTED if mode == CORRECT else _ERASED
    best, hits = union.nearest(packet)
    if best <= radius:
        if len(hits) == 1:
            return PacketVerdict(CORRECTED, vector=hits[0], flips=best, candidates=1)
        if mode == CORRECT_OR_ERASE:
            return PacketVerdict(ERASED, candidates=len(hits))
        # a wrong correction is worse than a dropped packet
        return PacketVerdict(REJECTED, candidates=len(hits))
    return _REJECTED if mode == CORRECT else _ERASED


# ---------------------------------------------------------------- tier 2
#
# The subspace lane counts, for each codeword U, the nonzero vectors of
# U ∩ V, V the span of the kept packets. Each is a union vector that U
# owns, so Spans.meeting finds the union vectors in V and counts their
# owners from the owner index of the codebook's Spans record, formed on
# the first subspace decode. Over GF(2), when V has no more vectors than
# the union, it looks each vector of V up (_check_packets packs the packets
# as it checks them, and linalg.packed_basis echelonises the ints);
# otherwise it ranks the union's nonzero vectors, as one-row matrices,
# against a basis of V (linalg.packed_rank, or batched_rank over GF(p)).
# A codeword owning none has U ∩ V = {0}, the largest distance, and is
# never looked at unless the list takes it. The rank lane's scan, where
# the syndrome table cannot answer, ranks every codeword in one
# Codebook.batched_rank call (packed_rank on Codebook.table over GF(2),
# batched_rank on the digit rows otherwise), in blocks of about
# linalg.RANK_CHUNK rows. A distance grows with the rank, so _select picks
# on the ranks and maps only its picks.

def _check_kind(codebook: Codebook, kind: str):
    if codebook.kind != kind:
        raise ValueError(f"codebook is not a {kind} codebook")


_BITS = b"01" + b"2" * 254     # digit byte -> "0" or "1", or "2" for no GF(2) digit


def _check_packets(rows, p: int, width: int):
    """ValueError on a packet of the wrong length or with a digit outside
    [0, p); over GF(2), each packet's ``linalg.pack_digits`` integer, of a
    tuple or list in one pass: its reversed bytes read in base 2 through
    _BITS, which fails on any other digit."""
    keys = []
    for row in rows:
        if p == 2 and isinstance(row, (tuple, list)) and len(row) == width:
            try:
                keys.append(int(bytes(row)[::-1].translate(_BITS), 2))
                continue
            except (TypeError, ValueError):
                pass
        if len(row) != width:
            raise ValueError(f"packet length {len(row)} != ambient {width}")
        if min(row) < 0 or max(row) >= p:
            raise ValueError(f"packet digits must lie in [0, {p}), got {tuple(row)}")
        if p == 2:
            keys.append(linalg.pack_digits([row], 2).tolist()[0])
    return keys


def _subspace_decode(packets, codebook, metric: str, list_radius) -> DecodeResult:
    """``_select`` on the ranks of the codewords against the row space of
    the packets, each read from the union vectors its span shares with it."""
    if not packets:
        raise ValueError("tier-2 decoding needs at least one packet")
    _check_kind(codebook, SUBSPACE)
    if metric not in METRICS:
        raise ValueError(f"unknown tier-2 metric {metric!r}")
    basis = linalg.packed_basis(_check_packets(packets, codebook.p, codebook.stack.shape[2]))
    span = (basis, len(basis)) if codebook.p == 2 else linalg.span_basis(packets, codebook.p)
    return _subspace_body(span, codebook, metric, list_radius)


def _subspace_body(span, codebook, metric: str, list_radius) -> DecodeResult:
    """:func:`_subspace_decode` on the (basis, a) of checked packets, their
    ``linalg.packed_basis`` and its length over GF(2), else their ``span_basis``."""
    basis, a = span
    b = codebook.stack.shape[1]
    # With U a codeword's span, of dimension b (its row count), and V the
    # packets' span, of dimension a, U's rows reduced against V have rank
    # r = dim(U+V) - a = b - dim(U∩V): b for a codeword that meets V in 0.
    at, r = spans_of(codebook).meeting(basis)
    if metric == "injection":
        scale, shift = 1, max(a, b) - b     # max(a, b) - dim(U∩V)
    else:
        scale, shift = 2, a - b             # dim(U+V) - dim(U∩V)
    return _select(r, list_radius, scale, shift, at=at, rest=(len(codebook), b))


def _select(ranks, list_radius, scale: int = 1, shift: int = 0, *, at=None,
            rest=None) -> DecodeResult:
    """Nearest codeword, or with a list radius every codeword within it,
    where a codeword's distance is ``scale * rank + shift`` (scale > 0).

    `ranks` are every codeword's, in index order, or with `at` those of
    the codewords at the ascending indices `at` only; `rest` is then
    (N, rank): each other codeword of the N has that rank, above every
    rank in `ranks`.

    Candidates run in ascending distance, then index; the first is chosen,
    and a tie means the runner-up is as near. The distance grows with the
    rank, so the candidates are found and ordered on the ranks, and only
    the chosen rank is mapped to a distance.
    """
    if list_radius is None:
        if len(ranks) or at is None:
            k = int(ranks.argmin())
            best = ranks[k]
            tie = bool((ranks[k + 1:] == best).any())
            chosen = k if at is None else int(at[k])
        else:
            # every codeword has the rest's rank, so the lowest index wins
            chosen, best, tie = 0, rest[1], rest[0] > 1
        return DecodeResult(chosen=chosen, metric_value=scale * int(best) + shift, tie=tie)
    if list_radius < 0:
        raise ValueError("list radius must be nonnegative")
    limit = (list_radius - shift) // scale
    # no rank is negative, so a negative limit lists nothing
    order = np.flatnonzero(ranks <= limit) if limit >= 0 else ranks[:0]
    order = order[np.argsort(ranks[order], kind="stable")]
    listed, listed_ranks = (order if at is None else at[order]), ranks[order]
    if at is not None and limit >= rest[1]:
        # the rest are listed too, after every ranked codeword
        others = np.ones(rest[0], dtype=bool)
        others[at] = False
        others = np.flatnonzero(others)
        listed = np.concatenate([listed, others])
        listed_ranks = np.concatenate([listed_ranks, np.full(len(others), rest[1])])
    if not len(listed):
        return DecodeResult(chosen=None, metric_value=None, tie=False, list=())
    best = listed_ranks[0]
    tie = len(listed) > 1 and listed_ranks[1] == best
    return DecodeResult(chosen=int(listed[0]), metric_value=scale * int(best) + shift,
                        tie=bool(tie), list=tuple(listed.tolist()))


def tier2_subspace_decode(packets, codebook, metric: str = "injection") -> DecodeResult:
    """Nearest codeword to the row space of the packets; ties pick the lowest index."""
    return _subspace_decode(packets, codebook, metric, None)


def tier2_list_decode(packets, codebook, radius: int, metric: str = "injection") -> DecodeResult:
    """All codewords within the metric radius, ascending distance then index."""
    return _subspace_decode(packets, codebook, metric, radius)


def _rank_word(rows, codebook, positions):
    """(positions, received): the positions sorted and the word's rows at
    them, checked."""
    _check_kind(codebook, GABIDULIN)
    _, n, width = codebook.stack.shape
    rows = list(rows)
    if len(rows) != n:
        raise ValueError(f"word length {len(rows)} != code length {n}")
    positions = sorted(range(n) if positions is None else positions)
    if not positions:
        raise ValueError("tier-2 rank decoding needs at least one surviving position")
    if positions[0] < 0 or positions[-1] >= n or len(set(positions)) < len(positions):
        raise ValueError(f"positions must be distinct positions in [0, {n}), got {positions}")
    received = [rows[i] for i in positions]
    _check_packets(received, codebook.p, width)
    return positions, received


def tier2_rank_decode(rows, codebook, positions=None, list_radius: int | None = None) -> DecodeResult:
    """Minimum rank-distance decoding of a word given as its packet rows, one
    per position; erased positions are excluded via `positions`.

    A word the positions' syndrome table answers is decoded by one lookup;
    any other is decoded by the scan, which ranks every codeword."""
    positions, received = _rank_word(rows, codebook, positions)
    table = _syndrome_table(codebook, positions)
    if table is not None:
        result = table.decode(received, list_radius)
        if result is not None:
            return result
    # coordinates are GF(p)-linear, so the coordinate rows of word - codeword
    # are the differences of the rows, in any packet basis
    return _select(codebook.batched_rank(positions, offset=received), list_radius)


# ---------------------------------------------------------------- syndrome tables
#
# A Gabidulin code is GF(p)-linear and MRD: at the positions P it has rank
# distance d_P = |P| - k + 1. A word within t = floor((|P| - k) / 2) of a
# codeword then has every other codeword at least d_P - t > t away, and the
# codeword is found from the word's syndrome. A table holds the syndrome of
# every error of rank <= t on P. Two such errors share a syndrome exactly
# when their difference, of rank <= 2t, is a nonzero codeword at P, so the
# table proves d_P > 2t as it is built, or is refused.

# Most errors of rank <= t that the syndrome tables of one codebook hold
# together, which bounds their memory (about 2.2 MiB) whatever the erasure
# patterns: a position set whose table would pass it keeps the scan. No
# t >= 2 comes within it: the fewest errors of rank <= 2, those of a 5 x 5
# matrix over GF(2), number 145,112.
SYNDROME_ERRORS = 1 << 14

# Most entries that one owner keeps of the simulator's block-step results,
# over all its tables: a union's tier-1 verdicts (UnionCode.verdicts) and a
# codebook's tier-2 results (Codebook.results). A verdict is one entry, and
# a result one plus one per codeword its list holds, so a list as long as
# the codebook does not multiply the bound. A full owner keeps nothing
# more, and what it does not hold is computed again, so no result depends
# on what is kept. An entry is a packed key and a verdict or a result, a
# few hundred bytes, or one listed index: the two full owners of the 42-digit
# GF(3) simulate golden, after 20,000 trials, retain 15 MiB (tracemalloc).
MEMO_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class _Syndromes:
    """The syndrome table of one codebook at one position set P.

    A word's digits at P, position by position, map to its image under an
    invertible GF(p)-linear map: the low ``message_length`` digits are the
    message, read through a right inverse R of the generator G_P (G_P R = I
    takes the codeword x G_P to x), and the rest are the syndrome under a
    parity-check matrix H_P of the code at P. The image is packed as
    ``linalg.pack_digits`` packs, so ``divmod(image, split)`` is (syndrome,
    message). Over GF(2) ``reads`` holds each digit's packed image, and a
    word's image is the XOR of those of its ones; otherwise it is the map's
    matrix. ``errors`` maps the packed syndrome of every error of rank <=
    ``radius`` on P to the packed message of the error's image, and its rank.
    """
    p: int
    radius: int
    split: int
    reads: object
    errors: dict

    def decode(self, received, list_radius) -> DecodeResult | None:
        """The scan's result on the rows at P, or None where the table
        cannot tell it: a list radius outside [0, radius], or a nearest
        decode with no codeword within the radius."""
        if list_radius is not None and not 0 <= list_radius <= self.radius:
            return None
        if self.p == 2:
            image = functools.reduce(operator.xor, itertools.compress(
                self.reads, itertools.chain.from_iterable(received)), 0)
        else:
            image = int(linalg.pack_digits(
                np.asarray(received, dtype=np.int64).reshape(-1) @ self.reads % self.p, self.p))
        syndrome, message = divmod(image, self.split)
        hit = self.errors.get(syndrome)
        if hit is None or list_radius is not None and hit[1] > list_radius:
            # every codeword lies beyond the radius, or the one within it
            # beyond the list radius and every other beyond the radius
            return None if list_radius is None else _NOTHING
        offset, rank = hit
        index = message ^ offset if self.p == 2 else _digit_difference(message, offset, self.p)
        return DecodeResult(index, rank, False, None if list_radius is None else (index,))


_NOTHING = DecodeResult(chosen=None, metric_value=None, tie=False, list=())


def _digit_difference(a: int, b: int, p: int) -> int:
    """Digit by digit a - b mod p of two packed base-p integers."""
    out, scale = 0, 1
    while a or b:
        (a, x), (b, y) = divmod(a, p), divmod(b, p)
        out += (x - y) % p * scale
        scale *= p
    return out


def _syndrome_table(codebook, positions) -> _Syndromes | None:
    """The codebook's table at the sorted positions, built on first use, in
    what its other tables leave of SYNDROME_ERRORS, and kept in
    ``codebook.syndromes``."""
    tables, key = codebook.syndromes, tuple(positions)
    if key not in tables:
        held = sum(len(table.errors) for table in tables.values() if table is not None)
        tables[key] = _build_syndromes(codebook, key, SYNDROME_ERRORS - held)
    return tables[key]


def _build_syndromes(codebook, positions, budget: int) -> _Syndromes | None:
    """The table at the positions, or None where the scan decodes: fewer
    positions than k, more errors of rank <= t than the budget, a generator
    of less than full rank at P, or two errors with one syndrome."""
    p, (_, _, m) = codebook.p, codebook.stack.shape
    length = len(codebook.message(0))           # k·m message digits
    size, k = len(positions), length // m
    radius = (size - k) // 2
    # the errors of rank 1 are u v^T, v nonzero and u's leading digit 1
    count = 1 + ((p ** size - 1) // (p - 1) * (p ** m - 1) if radius else 0)
    if size < k or radius > 1 or count > budget:
        return None
    # the code is GF(p)-linear: generator row i is the codeword of message
    # p^i, the unit message of digit i
    width = size * m
    gen = codebook.stack[[p ** i for i in range(length)]][:, list(positions)].reshape(length, width)
    # One elimination of [G_P^T | I]: the rows T of its right half satisfy
    # T G_P^T = its left half, which is [I; 0] exactly when G_P has full
    # rank. Then w -> w T^T is invertible, its first `length` digits read a
    # codeword's message (R = T[:length]^T), and the rest are the parity
    # checks H_P = T[length:].
    (reduced,), _ = linalg.batched_rref(np.hstack([gen.T, np.eye(width, dtype=gen.dtype)])[None], p)
    if not np.array_equal(reduced[:length, :length], np.eye(length)):
        return None
    reads = reduced[:, length:].T.astype(np.int64)
    rank_one = np.zeros((0, width), dtype=np.int64)
    if radius:
        u, v = _span_coefficients(p, size)[1:], _span_coefficients(p, m)[1:]
        u = u[u[np.arange(len(u)), (u != 0).argmax(axis=1)] == 1]
        rank_one = (u[:, None, :, None] * v[None, :, None, :]).reshape(-1, width)
    images = np.vstack([np.zeros((1, width), dtype=np.int64), rank_one @ reads % p])
    syndromes = linalg.pack_digits(images[:, length:], p).tolist()
    errors = dict(zip(syndromes, zip(linalg.pack_digits(images[:, :length], p).tolist(),
                                     [0] + [1] * (count - 1))))
    if len(errors) < count:
        return None
    if p == 2:
        reads = linalg.pack_digits(reads, 2).tolist()
    return _Syndromes(p, radius, p ** length, reads, errors)


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
    radius = tier1_radius(options, union)
    verdicts = [tier1_decode(p, union, radius, options.mode,
                             allow_radius_override=options.allow_radius_override)
                for p in packets]
    return verdicts, radius


def two_tier_decode(packets, union: UnionCode, codebook, options: DecodeOptions = DecodeOptions()) -> TwoTierResult:
    """Tier 1 per packet, tier 2 on the survivors, optional list feedback.

    With tier 1 disabled the DecodeResult is exactly what tier 2 alone
    produces on the raw packets.

    The feedback pass runs tier 1 again on the union restricted to the
    listed components. When it keeps the same tier-2 input as the first
    pass (the same packets or vectors, and for a rank code the same
    positions), tier 2 is not run again: the nearest codeword is the head
    of the first pass's list, at its distance and with its tie, since that
    list holds every codeword at the least distance in (distance, index)
    order. Otherwise tier 2 runs on the new input.
    """
    packets = [tuple(p) for p in packets]
    if not packets:
        raise ValueError("no packets to decode")
    audit = {"tier1_enabled": options.tier1_enabled, "packets": len(packets)}

    if options.tier1_enabled:
        verdicts, radius = _run_tier1(packets, union, options)
        audit["tier1_radius"] = radius
        audit["tier1_mode"] = options.mode
    else:
        verdicts = []

    word = _tier2_word(packets, verdicts, codebook.kind)
    first = _tier2_pass(word, codebook, options, list_radius=options.list_radius)
    audit["first_pass"] = _audit(first)
    if first is None:
        first = FAILURE

    final = first
    audit["feedback"] = None
    if options.feedback and first.list:
        final, verdicts, audit["feedback"] = _feedback(packets, verdicts, word, first, union,
                                                       codebook, options)

    audit["final"] = _audit(final)
    return TwoTierResult(result=final, verdicts=verdicts, audit=audit)


def _feedback(packets, verdicts, word, first: DecodeResult, union: UnionCode, codebook,
              options: DecodeOptions):
    """The feedback pass after the first pass's tier-1 `verdicts` on the
    packets and tier 2 on their :func:`_tier2_word` `word` gave `first`,
    whose list is not empty: (final result, the verdicts of the last tier-1
    pass, the feedback audit)."""
    restricted = union.restrict(set(first.list))
    feedback = {"list": list(first.list), "restricted_cardinality": restricted.cardinality}
    if restricted.cardinality < 2:
        # a one-vector union has no minimum distance to set a tier-1
        # radius from, so the first pass stands
        feedback["skipped"] = "restricted union has fewer than two vectors"
        return first, verdicts, feedback
    verdicts, radius = _run_tier1(packets, restricted, options)
    again = _tier2_word(packets, verdicts, codebook.kind)
    if again == word:
        # tier 2 would rank as it did: the list holds every codeword at the
        # least distance, in (distance, index) order, so its head and tie
        # are the nearest codeword's
        second = DecodeResult(chosen=first.chosen, metric_value=first.metric_value,
                              tie=first.tie)
    else:
        second = _tier2_pass(again, codebook, options, list_radius=None)
    feedback["restricted_min_distance"] = restricted.min_distance()
    feedback["tier1_radius"] = radius
    feedback["second_pass"] = _audit(second)
    return (second if second is not None else FAILURE), verdicts, feedback


def _tier2_word(packets, verdicts, kind: str):
    """The tier-2 input as (rows, positions); None when nothing survives.

    For a subspace code the rows are the packets tier 1 kept (every packet
    with tier 1 off). For a rank code they are the codeword rows in
    position order, a corrected packet standing in for the one received,
    and `positions` are those tier 1 kept (None with tier 1 off).
    """
    if not verdicts:
        return packets, None
    if kind == SUBSPACE:
        kept = [v.vector for v in verdicts if v.outcome in (VALID, CORRECTED)]
        return (kept, None) if kept else None
    positions = [i for i, v in enumerate(verdicts) if v.outcome in (VALID, CORRECTED)]
    if not positions:
        return None
    return [v.vector or pkt for v, pkt in zip(verdicts, packets)], positions


def _tier2_pass(word, codebook, options: DecodeOptions, list_radius):
    """One tier-2 run on a :func:`_tier2_word`; None when nothing survives."""
    if word is None:
        return None
    rows, positions = word
    if codebook.kind == SUBSPACE:
        if list_radius is not None:
            return tier2_list_decode(rows, codebook, list_radius, options.metric)
        return tier2_subspace_decode(rows, codebook, options.metric)
    return tier2_rank_decode(rows, codebook, positions, list_radius=list_radius)


# ---------------------------------------------------------------- blocks of words
#
# The simulator decodes its sink words a block at a time. Tier 1 runs
# tier1_decode on each packet the union holds no verdict for, and tier 2
# the unchecked _subspace_body on each input the codebook holds no result
# for. A verdict is a pure function of the packet, the union, the mode,
# the radius and (in correct mode) allow_radius_override, and a tier-2
# result of the span and the codebook, so the owners keep them across
# blocks and experiments, under MEMO_ENTRIES each:
# ``union.verdicts[(mode, radius, allow_radius_override)]`` maps a packet's
# linalg.pack_digits key to its verdict, and ``codebook.results[(metric,
# list radius)]`` a tier-2 input's key to its result.

def _keep(owner, table: dict, key, value, size: int = 1):
    """Keep `value` under `key` in one of the owner's tables when the owner
    has room for its `size` entries under MEMO_ENTRIES."""
    if owner.held + size <= MEMO_ENTRIES:
        table[key] = value
        owner.held += size


def _tier1_block(words, union: UnionCode, radius: int, mode: str,
                 allow_radius_override: bool = False):
    """:func:`tier1_decode` on a (B, k, n) array of words, once per
    distinct packet that ``union.verdicts`` does not hold: (scrubbed,
    kept, outcomes, verdicts). Word b's vectors that are valid or
    corrected are ``scrubbed[b]``'s first ``kept[b]`` rows, in packet
    order, and zeros follow: what a filtering node forwards and a sink's
    tier 2 reads. ``outcomes`` (B, k) indexes TIER1_OUTCOMES, and
    ``verdicts`` is the distinct packets' verdicts and each packet's
    index."""
    count, k, n = words.shape
    radius = 0 if mode == DETECT_ONLY else radius   # a detect-only verdict reads no radius
    # only correct mode reads the override, so other modes share one table
    allow_radius_override = allow_radius_override and mode == CORRECT
    flat = words.reshape(-1, n)
    keys, first, inverse = np.unique(linalg.pack_digits(flat, union.p), return_index=True,
                                     return_inverse=True)
    memo, verdicts = union.verdicts.setdefault((mode, radius, allow_radius_override), {}), []
    for key, at in zip(keys.tolist(), first.tolist()):
        verdict = memo.get(key)
        if verdict is None:
            verdict = tier1_decode(flat[at].tolist(), union, radius, mode,
                                   allow_radius_override=allow_radius_override)
            _keep(union.verdicts, memo, key, verdict)
        verdicts.append(verdict)
    inverse = inverse.reshape(count, k)
    outcomes = np.array([TIER1_OUTCOMES.index(v.outcome) for v in verdicts],
                        dtype=np.int64)[inverse]
    # `table` holds the few distinct kept vectors, all union vectors, then
    # a zero row; `at` is each packet's row in it, -1 when it is dropped
    rows = {}
    at = np.array([-1 if v.vector is None else rows.setdefault(v.vector, len(rows))
                   for v in verdicts], dtype=np.int64)[inverse]
    table = np.array([*rows, (0,) * n], dtype=words.dtype)
    scrubbed = table[np.take_along_axis(at, np.argsort(at < 0, axis=1, kind="stable"), axis=1)]
    return scrubbed, (at >= 0).sum(axis=1), outcomes, (verdicts, inverse)


def _decode_block(words, union: UnionCode, codebook, options: DecodeOptions):
    """:func:`two_tier_decode` on each word of a (B, k, n) array of a
    subspace code's words: the chosen codeword and the metric value as (B,)
    ints, -1 for none, and the outcome counts of the tier-1 verdicts it
    returns, (B, 4) in TIER1_OUTCOMES order.

    A word's tier-2 input is the first ``kept`` rows of its
    :func:`_tier1_block` scrub (with tier 1 off, its packets). Tier 2 runs
    once per distinct input (over GF(2), per ``linalg.packed_basis`` of
    one) that ``codebook.results`` does not hold, feedback once per
    distinct word.
    """
    count, k = words.shape[:2]
    p = codebook.p
    counts = np.zeros((count, len(TIER1_OUTCOMES)), dtype=np.int64)
    scrubbed, kept = words, np.full(count, k)
    if options.tier1_enabled:
        scrubbed, kept, outcomes, (verdicts, inverse) = _tier1_block(
            words, union, tier1_radius(options, union), options.mode,
            options.allow_radius_override)
        counts = (outcomes[..., None] == np.arange(len(TIER1_OUTCOMES))).sum(axis=1)
    # an input is the keys of a word's kept rows: with zeros after them, a
    # word that keeps only the zero vector scrubs as one that keeps none
    inputs, which = {}, []                  # input -> (its number, a word with it)
    for b, (row, size) in enumerate(zip(linalg.pack_digits(scrubbed, p).tolist(),
                                        kept.tolist())):
        which.append(inputs.setdefault(tuple(row[:size]), (len(inputs), b))[0])
    memo, results = codebook.results.setdefault((options.metric, options.list_radius), {}), []
    for row, (_, b) in inputs.items():
        if not row:
            results.append(FAILURE)
            continue
        key = linalg.packed_basis(row) if p == 2 else row
        result = memo.get(key)
        if result is None:
            span = (key, len(key)) if p == 2 else \
                linalg.span_basis(scrubbed[b, :len(row)].tolist(), p)
            result = _subspace_body(span, codebook, options.metric, options.list_radius)
            _keep(codebook.results, memo, key, result, 1 + len(result.list or ()))
        results.append(result)
    which = np.array(which)
    if options.feedback:
        distinct, at, raw = np.unique(inverse, axis=0, return_index=True, return_inverse=True)
        results, which = [results[i] for i in which[at]], raw.reshape(-1)
        for r, (word, b) in enumerate(zip(distinct.tolist(), at.tolist())):
            if results[r].list:
                results[r], again, _ = _feedback(
                    list(map(tuple, words[b].tolist())), [verdicts[i] for i in word],
                    (list(map(tuple, scrubbed[b, :kept[b]].tolist())), None), results[r],
                    union, codebook, options)
                counts[which == r] = [sum(v.outcome == o for v in again) for o in TIER1_OUTCOMES]
    chosen = np.array([-1 if r.chosen is None else r.chosen for r in results])[which]
    metric = np.array([-1 if r.metric_value is None else r.metric_value for r in results])
    return chosen, metric[which], counts
