"""Show the series toolkit agreeing with its closed forms.

The inverse of (1+t)^c has coefficients (-1)^m * binom(c+m-1, m), and the
inverse of prod (1 + e t) has the signed complete homogeneous symmetric
values (-1)^i * h_i(e). This script prints each closed form beside the
truncated-series recurrence. The paper's composition sums, which define the
same coefficients, are in tests/kernel.py.
"""

from math import comb

from torbound import TruncatedSeries, sym_complete, sym_elementary

c = 3
order = 6
power = TruncatedSeries.one(order)
for _ in range(c):
    power = power * TruncatedSeries((1, 1), order=order)
print(f"(1+t)^{c} truncated:     {power.coefficients}")
print(f"inverse by recurrence:   {power.invert().coefficients}")
print(f"(-1)^m binom(c+m-1, m):  "
      f"{tuple((-1) ** m * comb(c + m - 1, m) for m in range(order + 1))}")
print()

exps = (1, 2, 4)
prod = TruncatedSeries.one(order)
for e in exps:
    prod = prod * TruncatedSeries((1, e), order=order)
print(f"prod (1+e t) for e in {exps}: {prod.coefficients}")
print(f"elementary symmetric e_i:     "
      f"{tuple(sym_elementary(exps, i) for i in range(order + 1))}")
print(f"inverse by recurrence:        {prod.invert().coefficients}")
print(f"signed complete homogeneous:  "
      f"{tuple((-1) ** i * sym_complete(exps, i) for i in range(order + 1))}")
print()

# inverting twice walks back to the original series
head = (5, -2, 7)
series = TruncatedSeries((1, *head))
print(f"double inversion of {series.coefficients}: "
      f"{series.invert().invert().coefficients}")
