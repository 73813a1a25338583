"""Milnor and Tyurina numbers, globally and at the origin.

The same quintic drives all four pipelines: the global numbers see every
critical/singular point of the affine plane at once, the local ones only the
origin.  Their gap counts the other critical points.
"""

from fractions import Fraction

from localstd import (VarCtx, leading_coefficients, milnor_fused,
                      milnor_global, milnor_local, parse_poly, tyurina_fused,
                      tyurina_global, tyurina_local)

ctx = VarCtx(["x", "y"])
F = parse_poly("x^5 + y^5 + x^2*y^2", ctx)

print("F =", F)
print("mu(F)   =", milnor_global(F).dimension, "  (all six critical points)")
print("mu_0(F) =", milnor_local(F).dimension, "  (the origin alone)")
print("tau(F)  =", tyurina_global(F).dimension)
print("tau_0(F)=", tyurina_local(F).dimension)

r = tyurina_local(F)
print("Kuranishi monomial basis:",
      [m.to_str(ctx.variables) for m in r.quotient_basis])

# the fused pipeline runs the global and the local computation together
f = parse_poly("x^3 + y^4 + x*y^2", ctx)
fm = milnor_fused(f)
print("fused Milnor of", f, "-> global %d, local %d"
      % (fm.global_part.dimension, fm.local_part.dimension))
ft = tyurina_fused(f)
print("fused Tyurina         -> global %d, local %d"
      % (ft.global_part.dimension, ft.local_part.dimension))

# parameters make one run cover a whole family: leading coefficients of the
# standard basis cut out the non-generic parameter values
ctxp = VarCtx(["x", "y"], ["t"])
Ft = parse_poly("x^3 + y^4 + x*y^2 + t*x^2", ctxp)
rt = milnor_local(Ft)
print("family F_t: generic mu at the origin =", rt.dimension)
print("leading pairs of the standard basis:")
for c, m in leading_coefficients(rt):
    print("    (%s) * %s" % (ctxp.field.to_str(c), m.to_str(ctxp.variables)))
print("assumed nonzero:",
      [ctxp.field.to_str(a) for a in rt.genericity_assumptions])
for tv, label in [(Fraction(1, 4), "t = 1/4"), (Fraction(0), "t = 0")]:
    spec = Ft.specialize_params({"t": tv})
    print("%s: mu =" % label, milnor_local(spec).dimension)

# the local-to-global sum: two Morse-like points of a cubic in one variable
g = parse_poly("1/3*x^3 + 1/2*x^2", VarCtx(["x"]))
total = milnor_global(g).dimension
origin = milnor_local(g).dimension
other = milnor_local(g.substitute({"x": parse_poly("x - 1", VarCtx(["x"]))}))
print("mu(g) = %d = %d + %d split between the critical points"
      % (total, origin, other.dimension))
