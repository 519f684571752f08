"""The four benchmark workloads, built from a seed.

A workload is a list of operations (`Op`).  An operation is either one
`so3inv` command-line invocation or one batch of oracle cases for
`oracle.py`.  Each operation names the items it must report;
an item is what `attempted` and `failed` count:

  lens-sweep         one identity row (manifold, K) of `so3inv verify`
  seifert-highK      one exact invariant (manifold, K) of `so3inv invariant`
  reconstruct        one reconstructed manifold (one `so3inv lambda` run)
  oracle-crosscheck  one oracle case (manifold, K)

The seed picks manifolds from fixed pools.  Members of one pool were
chosen because they cost about the same on the seed program (within a
few per cent on a 2-CPU x86 box), so the seed varies the inputs without
varying the amount of work.  Seed 0 reproduces the default lists: the
compositions the workloads were designed around.  `lens-sweep` is a
fixed grid and ignores the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

DEFAULT_SEED = 0

# seifert-highK: one member of each pool, at every prime in the range
SEIFERT_K = (101, 113)
SEIFERT_POOLS = (
    ((2, 1), (3, 1), (5, -4)), ((2, 1), (3, 2), (5, -3)),
    ((3, 1), (4, -1), (5, 2)),
), (
    ((3, 1), (4, 1), (5, 1)), ((2, 1), (3, -1), (7, 2)),
    ((2, 1), (3, 1), (7, 1)), ((2, -1), (3, 2), (5, 1)),
)

# reconstruct: one `lambda --reconstruct` run per slot, (flag, spec, n_max)
RECONSTRUCT_PRIMES = "7..23"
RECONSTRUCT_SLOTS = (
    (("lens", "5,2", 6), ("lens", "-5,2", 6)),
    (("lens", "12,5", 6),),  # exits 3 on the seed (InconsistentResidues)
    (("lens", "-7,3", 6), ("lens", "-7,2", 6)),
    (("seifert", "2/1,3/1,5/-4", 6), ("seifert", "-2/1,3/1,5/1", 6)),
    (("seifert", "3/1,4/1,5/1", 3), ("seifert", "3/2,4/3,5/4", 3)),
    (("p1", "unknot:3", 4), ("p1", "unknot:-3", 4)),
)

# oracle-crosscheck: a fixed lens grid, three Seifert samples and one
# two-component unlink, each over its own prime range
ORACLE_LENS_PMAX, ORACLE_LENS_K = 7, (5, 19)
ORACLE_SEIFERT_K, ORACLE_SEIFERT_COUNT = (7, 17), 3
ORACLE_SEIFERT_POOL = (
    ((2, 1), (3, 1), (5, -4)), ((3, 1), (4, 1), (5, 1)),
    ((-2, 1), (3, 1), (5, 1)), ((2, 1), (4, 1), (5, 2)),
    ((2, 1), (3, 1), (5, 1)),
)
ORACLE_P1_K = (7, 13)
ORACLE_P1_POOL = ((-2, 5), (2, 3), (-3, 4))

LENS_SWEEP_PMAX, LENS_SWEEP_K = 7, (5, 37)


@dataclass(frozen=True)
class Op:
    """One program run and the item keys its output must cover."""

    kind: str            # "cli" (argv for so3inv.cli) or "oracle"
    args: tuple          # CLI argv, or oracle case dicts
    keys: tuple          # item keys, see checks.py


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple

    @property
    def items(self) -> int:
        return sum(len(op.keys) for op in self.ops)


def primes_in(lo: int, hi: int) -> tuple:
    """The odd primes in [lo, hi], as `so3inv --primes LO..HI` reads it."""
    return tuple(k for k in range(max(lo, 3), hi + 1) if k % 2
                 and all(k % d for d in range(3, int(k ** 0.5) + 1, 2)))


def lens_family(pmax: int) -> list:
    """The (p, q) grid of `so3inv verify --family lens --pmax PMAX`."""
    out = []
    for p in range(-pmax, pmax + 1):
        if p:
            qs = [q for q in range(1, abs(p)) if gcd(p, q) == 1] or [1]
            out.extend((p, q) for q in qs)
    return out


def seifert_label(fractions) -> str:
    return "X(" + ",".join(f"{p}/{q}" for p, q in fractions) + ")"


def seifert_orders(fractions):
    """(H, P): the homology order and the fiber product of X(p_j/q_j)."""
    P = 1
    for p, _ in fractions:
        P *= p
    return sum(q * P // p for p, q in fractions), P


def label(spec: dict) -> str:
    """The manifold label so3inv prints for a manifold object.

    Computed here, like primes_in, so that the runner never imports
    so3inv: its own memory and start-up stay out of the children's.
    """
    if spec["type"] == "lens":
        return f"L({spec['p']},{spec['q']})"
    if spec["type"] == "seifert":
        return seifert_label(spec["fractions"])
    return f"S[{spec['jones']};" + ",".join(map(str, spec["framings"])) + "]"


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _pick(rng, pool, seed):
    return pool[0] if seed == DEFAULT_SEED else rng.choice(pool)


def lens_sweep(seed: int, quick: bool = False) -> Workload:
    pmax, (lo, hi) = (3, (5, 13)) if quick else (LENS_SWEEP_PMAX, LENS_SWEEP_K)
    ks = primes_in(lo, hi)
    keys = tuple((f"L({p},{q})", K, p) for p, q in lens_family(pmax)
                 for K in ks)
    argv = ("verify", "--family", "lens", "--pmax", str(pmax),
            "--primes", f"{lo}..{hi}", "--workers", "1")
    return Workload("lens-sweep", seed, (Op("cli", argv, keys),))


def seifert_highK(seed: int, quick: bool = False) -> Workload:
    rng = _rng("seifert-highK", seed)
    chosen = [_pick(rng, pool, seed) for pool in SEIFERT_POOLS]
    lo, hi = (SEIFERT_K[0], SEIFERT_K[0]) if quick else SEIFERT_K
    ks = primes_in(lo, hi)
    argv = ["invariant"]
    for fr in chosen:
        argv += ["--seifert", ",".join(f"{p}/{q}" for p, q in fr)]
    argv += ["--k", f"{lo}..{hi}", "--workers", "1"]
    keys = tuple((seifert_label(fr), K) for fr in chosen for K in ks)
    return Workload("seifert-highK", seed, (Op("cli", tuple(argv), keys),))


def reconstruct(seed: int, quick: bool = False) -> Workload:
    rng = _rng("reconstruct", seed)
    ops = []
    for slot in RECONSTRUCT_SLOTS:
        flag, spec, nmax = _pick(rng, slot, seed)
        if quick and spec != "12,5":  # its defect sits at lambda_6
            nmax = min(nmax, 2)
        if flag == "lens":
            p, q = map(int, spec.split(","))
            key = {"type": "lens", "p": p, "q": q}
        elif flag == "seifert":
            key = {"type": "seifert", "fractions": [
                tuple(map(int, f.split("/"))) for f in spec.split(",")]}
        else:
            table, _, fr = spec.partition(":")
            key = {"type": "p1", "jones": table,
                   "framings": [int(f) for f in fr.split(",")]}
        argv = ("lambda", f"--{flag}={spec}", "--nmax", str(nmax),
                "--reconstruct", "--primes", RECONSTRUCT_PRIMES,
                "--workers", "1")
        ops.append(Op("cli", argv, ((label(key), nmax, key["type"]),)))
    return Workload("reconstruct", seed, tuple(ops))


def oracle_cases(seifert, unlink, quick: bool = False) -> list:
    """Oracle cases: the lens grid, each Seifert sample, each unlink."""
    pmax, lens_k = (3, (5, 7)) if quick else (ORACLE_LENS_PMAX, ORACLE_LENS_K)
    seif_k = (7, 7) if quick else ORACLE_SEIFERT_K
    p1_k = (7, 7) if quick else ORACLE_P1_K
    cases = []
    for K in primes_in(*lens_k):
        cases += [{"type": "lens", "p": p, "q": q, "K": K}
                  for p, q in lens_family(pmax) if p % K]
    for fr in seifert:
        H, P = seifert_orders(fr)
        cases += [{"type": "seifert", "fractions": [list(f) for f in fr],
                   "K": K} for K in primes_in(*seif_k) if H % K and P % K]
    for fr in unlink:
        cases += [{"type": "p1", "jones": "unlink", "framings": list(fr),
                   "K": K} for K in primes_in(*p1_k) if all(f % K for f in fr)]
    return cases


def oracle_crosscheck(seed: int, quick: bool = False) -> Workload:
    rng = _rng("oracle-crosscheck", seed)
    pool = ORACLE_SEIFERT_POOL
    if seed == DEFAULT_SEED:
        seif = pool[:ORACLE_SEIFERT_COUNT]
    else:
        seif = rng.sample(pool, ORACLE_SEIFERT_COUNT)
    unlink = [_pick(rng, ORACLE_P1_POOL, seed)]
    cases = oracle_cases(seif[:1] if quick else seif, unlink, quick)
    keys = tuple((label(c), c["K"]) for c in cases)
    return Workload("oracle-crosscheck", seed,
                    (Op("oracle", tuple(cases), keys),))


BUILDERS = {
    "lens-sweep": lens_sweep,
    "seifert-highK": seifert_highK,
    "reconstruct": reconstruct,
    "oracle-crosscheck": oracle_crosscheck,
}


def build(name: str, seed: int, quick: bool = False) -> Workload:
    return BUILDERS[name](seed, quick)
