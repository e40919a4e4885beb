"""Binary quadratic forms: reduction, class groups, represented primes.

For discriminant -D the reduced positive-definite primitive forms are a
finite set of size h(-D); each prime with (-D|p) = 1 is represented by
exactly one opposite-pair of classes, so the per-class counts track
delta_Q Li(x)/h(-D).
"""

from chebkit import (class_number, count_represented_primes, delta_q, li,
                     reduce_form, representation_density_report)

# reduction collapses any representative to a canonical one
print("Gauss reduction:")
for (a, b, c) in [(1, 2, 2), (7, 23, 19), (3, -2, 5)]:
    f = reduce_form(a, b, c)
    print(f"  ({a},{b},{c}) -> ({f.a},{f.b},{f.c}), disc = {f.disc}")

# class groups for a few discriminants
print("\nclass groups:")
for D in (4, 20, 23, 40, 47):
    s = class_number(D)
    forms = ", ".join(f"({f.a},{f.b},{f.c})" + ("*" if amb else "")
                      for f, amb in zip(s.forms, s.ambiguous))
    print(f"  -{D}: h = {s.h}   {forms}")
print("  (* marks ambiguous classes, equal to their own opposite: delta = 1/2)")

# which primes each class of disc -23 represents
x = 10**5
print(f"\nprimes represented up to {x:,} (disc -23, h = 3):")
target_total = li(float(x))
for f in class_number(23).forms:
    series = count_represented_primes(f, x, checkpoints=[10**3, 10**4, x])
    d = delta_q(f)
    print(f"  ({f.a},{f.b},{f.c}): counts {series.counts.astype(int).tolist()}"
          f"   delta = {d}, target = {d * target_total / 3:,.0f}")

# the full density report for the principal form of disc -4
form = reduce_form(1, 0, 1)
[report] = representation_density_report(form, count_represented_primes(form, 10**6))
print(f"\nsums of two squares up to 10^6:")
print(f"  count  = {report.count:,}")
print(f"  target = {report.target:,.1f}  (delta Li(x)/h)")
print(f"  ratio  = {report.ratio:.4f}")
print(f"  below the doubled bound: {report.below_upper_bound}")
print(f"  inside the proven range of the strict bound: {report.in_proven_range}"
      f"  (needs log x >= {report.asymptotic_threshold.log:.0f})")
