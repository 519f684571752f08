"""Exact SO(3) quantum invariants of rational homology spheres.

Subpackages are layered: arith (residues at an odd prime), series
(truncated rational power series), cyclotomic (the ring Z[q] at a
prime root of unity and its x-adic shadow), jones (the split link
tables, whose values are products of quantized integers), nt (Dedekind
sums, the Rademacher phase, the three manifold presentations),
surgery (numeric and exact surgery-formula evaluators), closedform
(residue formulas for lens and Seifert spaces and their lambda
series), ohtsuki (the diamond/vee identity and rational
reconstruction), cli (command-line front end).
"""

__version__ = "0.1.0"
