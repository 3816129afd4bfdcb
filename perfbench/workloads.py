"""The benchmark's workloads: seeded rounds of checked operations.

Every input comes from the pools recorded in ``reference.json`` together with
the outputs the program gave for it when the pool was recorded.  A pool is
split into strata by the input property that sets an operation's cost (sphere
size and shape, generator count and index weight, complex size).  A round
takes a fixed number of entries from each stratum, so every seed exercises
the same mix of costs and only the members drawn from each stratum, and their
order, depend on the seed.

An operation ("op") is one call into ``hfi`` followed by a check of its
result.  A wrong result raises ``CheckFailed``; an exception raised by the
program propagates unchanged, and the runner records its type.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).with_name("reference.json")

# Per stratum: (entries drawn per round, entries in the recorded pool).
# Stratum names are defined by make_reference.py, which records the pools.
# Where the two are equal the stratum's inputs are the same for every seed:
# the anchors, the ops that take the largest share of a round (drawn by seed
# they would move the round's cost more than code changes do), and the block
# of ops where the 11th-slowest op, op_tail_ms, falls.  Elsewhere a round
# draws most of a small pool, which keeps the median op of the round at the
# same cost from seed to seed.
ROUNDS = {
    # Sigma(p, 2p-1, 2p+1) for p = 3..21; Sigma(13,21,34) and Sigma(19,37,55);
    # then spheres from narrow alpha bands (0 lowest .. 5 highest) of each
    # shape: V = many plumbing vertices (24..40), L = at most 12 vertices and
    # so, for their alpha, many leaves.  No sphere in band 0 has 24 vertices.
    "sigma_sweep": {"anchor": (10, 10), "shape": (2, 2),
                    **{f"V{b}": (3, 6) for b in range(1, 4)},
                    **{f"L{b}": (8, 12) for b in range(3)}, "L3": (16, 20),
                    **{f"{s}{b}": (2, 2) for s in "VL" for b in (4, 5)}},
    # g<generators>w<index weight sum |c_i| i>; the truncation N grows with w.
    "oracle_cross_check": {"g729w7": (1, 1), "g243w7": (1, 4),
                           **{f"g81w{w}": (2, 2) for w in range(5, 11)},
                           **{f"g27w{w}": (4, 5) for w in range(3, 15)}},
    # T = locally equivalent pair, F = pair with different correction terms;
    # <p>x<q>:<g> = leaf counts of the two profiles tensored into A, and the
    # generator count of B.  T8x6:21 is the 165 <-> 21 generator pair.
    "local_equivalence": {"T8x6:21": (1, 1),
                          **{f"{t}5x4:9": (6, 9) for t in "TF"},
                          **{f"{t}4x3:9": (8, 12) for t in "TF"},
                          **{f"{t}3x2:3": (6, 9) for t in "TF"}},
}


class CheckFailed(AssertionError):
    """The program returned a result that differs from the expected one."""


@dataclass
class Op:
    label: str      # the input, readable
    stratum: str
    run: Callable[[], None]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def class_text(coeffs: dict[int, int], shift: int) -> str:
    """Expression text of sum c_i Y(i) + I[shift], e.g. '5*Y(1) - Y(2) + I[2]'."""
    parts = []
    for i, c in sorted(coeffs.items()):
        sign = "-" if c < 0 else "+"
        mult = f"{abs(c)}*" if abs(c) != 1 else ""
        parts.append(f"{sign} {mult}Y({i})")
    if shift:
        parts.append(f"+ I[{shift}]")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def _expect(label: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{label}: got {got!r}, want {want!r}")


def sigma_op(entry: dict) -> Op:
    from hfi import report

    text = "Sigma({},{},{})".format(*entry["triple"])

    def run():
        r = report.evaluate_text(text)
        _expect(text, r.total.to_json(), entry["class"])

    return Op(text, entry["stratum"], run)


def oracle_summary(r) -> dict:
    """The parts of an oracle report that are checked against the reference."""
    return {"total": r.total.to_json(), "d": str(r.d), "d_bar": str(r.d_bar),
            "d_under": str(r.d_under), "mu_bar": str(r.mu_bar),
            "oracle": r.oracle}


def oracle_op(entry: dict) -> Op:
    from hfi import report

    text = entry["text"]

    def run():
        r = report.evaluate_text(text, oracle=True)
        _expect(text, oracle_summary(r), entry["want"])

    return Op(text, entry["stratum"], run)


def pair_complexes(entry: dict):
    """(A, B): the tensor products of the standard complexes of each side."""
    from hfi import complexes
    from hfi.roots import SymmetricRootProfile, standard_complex

    def side(profiles):
        c = None
        for leaves, angles in profiles:
            f = standard_complex(SymmetricRootProfile(tuple(leaves), tuple(angles)))
            c = f if c is None else complexes.tensor(c, f)
        return c

    return side(entry["a"]), side(entry["b"])


def local_op(entry: dict) -> Op:
    from hfi import complexes

    a, b = pair_complexes(entry)
    label = f"{entry['stratum']}:{a.n}<->{b.n}"

    def run():
        _expect(label, complexes.locally_equivalent(a, b), entry["equivalent"])
        for c in (a, b):
            diag = complexes.validate(c)
            if not diag.ok:
                raise CheckFailed(f"{label}: validate failed: {diag.failed()}")

    return Op(label, entry["stratum"], run)


MAKE_OP = {"sigma_sweep": sigma_op, "oracle_cross_check": oracle_op,
           "local_equivalence": local_op}


def build_round(workload: str, seed: int) -> list[Op]:
    """The ops of one round: entries drawn per stratum, then shuffled."""
    pool = load_reference()[workload]
    rng = random.Random(f"{workload}/{seed}")
    entries = []
    for stratum, (draws, _) in ROUNDS[workload].items():
        members = [e for e in pool if e["stratum"] == stratum]
        entries += rng.sample(members, draws)
    rng.shuffle(entries)
    return [MAKE_OP[workload](e) for e in entries]
