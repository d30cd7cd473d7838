"""Output checks that do not trust the package's own arithmetic.

Ranks are recomputed with a small GF(p) elimination written here, never
with ``twotier.linalg``.
"""

import hashlib
import json


class CheckFailed(Exception):
    """An output of the program is wrong; the benchmark stops."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def gfp_rank(rows, p):
    """Rank over GF(p) of a list of digit sequences, by plain elimination."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    width = len(mat[0]) if mat else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != rank and f:
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def check_lemmas(checks, expected_cardinality=None, cardinality=None):
    failed = [c.lemma for c in checks if c.normative and not c.passed]
    require(checks and not failed, f"normative lemma checks failed: {failed}")
    if expected_cardinality is not None:
        require(cardinality == expected_cardinality,
                f"|U| = {cardinality}, expected {expected_cardinality}")


def kept_rows(outcome, packets):
    """(position, vector) of the packets the final tier-2 pass saw."""
    if not outcome.verdicts:
        return list(enumerate(packets))
    return [(i, v.vector) for i, v in enumerate(outcome.verdicts)
            if v.outcome in ("valid", "corrected")]


def check_decode(outcome, packets, codebook, p, list_radius):
    """Recompute the reported metric value of the chosen codeword."""
    res = outcome.result
    if res.chosen is None:
        require(res.metric_value is None, "no codeword chosen but a metric value reported")
        return
    require(0 <= res.chosen < len(codebook), f"chosen index {res.chosen} out of range")
    cw = codebook[res.chosen]
    kept = kept_rows(outcome, packets)
    require(kept, "a codeword was chosen from no surviving packets")
    if cw.kind == "gabidulin":
        # rank distance over the surviving positions
        value = gfp_rank([[a - b for a, b in zip(vec, cw.rows[i])] for i, vec in kept], p)
    else:
        # injection distance max(a, b) - dim(U ∩ V)
        received = [vec for _, vec in kept]
        a, b = gfp_rank(received, p), gfp_rank(cw.rows, p)
        value = max(a, b) - (a + b - gfp_rank(received + list(cw.rows), p))
    require(value == res.metric_value,
            f"metric value {res.metric_value} reported for codeword {res.chosen}, recomputed {value}")
    if res.list is not None:
        require(res.list and res.list[0] == res.chosen, "chosen codeword is not first in the list")
        require(list_radius is not None and res.metric_value <= list_radius,
                "listed codeword outside the list radius")


def digest(items):
    """SHA-256 of a JSON-serialisable value, keys sorted."""
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()
