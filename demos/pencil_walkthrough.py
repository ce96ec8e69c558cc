# A walk through the pencil generated by f = xy + y^2 + x^3 and g = xy.
#
# f has a node and g is the coordinate cross; the pencil f + t*g picks up
# a cusp at t = -1.  We derive the common resolution from the equations,
# read off every invariant of the pencil foliation, and check the
# bifurcation formula along both of its computation paths.

import folindex as fx


res = fx.derive_resolution({"f": "x*y + y^2 + x^3", "g": "x*y"},
                           mode="pencil")
model = res.pencil

print("resolution tower")
print("  centers:", res.program.centers)
print("  F =", fx.build_cholesky(res.program).rows)
print("  A =", res.a.rows)
print("  iota =", res.marking.iota)
print()

print("pencil data (all derived from the equations)")
print("  generators:", model.generators)
print("  i0(f, g) =", model.i0)
print("  mu(generic member) =", model.mu_generic)
for fiber in model.bifurcation_fibers:
    print(f"  special fiber {fiber.name}: mu = {fiber.mu}, S = {fiber.s}")
print()

# The bifurcation formula: mu(f, g) = mu_0(fg) + sum over special fibers
# of (mu_t - mu_generic).  Checked two ways -- through the quadratic form
# of the pairing and through the telescoped per-component sum.
record = fx.bifurcation_formula_check(model)
print("bifurcation formula")
print("  mu_0(fg) =", record.mu_fg)
print("  excess over generic:", record.excess_sum)
print("  mu(f, g) via quadratic form :", record.path_quadratic)
print("  mu(f, g) via telescoping    :", record.path_telescoped)
print("  paths agree:", record.equal)
print()

# The same number is the Milnor number of the pencil foliation itself,
# computed from the balanced divisor of fibers: every special fiber and
# both generators with coefficient +1, generic members with -1 until the
# attachment balances.
divisor = fx.fiber_balanced_divisor(model)
print("balanced divisor of fibers")
for attachment, coeff in divisor.terms:
    print(f"  {coeff:+d} * {attachment.name}  (S = {attachment.s})")
total = fx.total_vector(divisor, model.a.n)
ledger = fx.HypothesisLedger(generalized_curve="asserted")
mu_fol = fx.milnor_foliation(total, model.a, ledger)
print("  total S_B =", total)
print("  mu(pencil foliation) =", mu_fol)
assert mu_fol == record.path_quadratic
print()

# Independent cross-checks straight from the polynomials: the resultant
# oracle never looks at the tower.
mu_f = fx.oracle_milnor("x*y + y^2 + x^3")
mu_g = fx.oracle_milnor("x*y")
i0 = fx.oracle_intersection("x*y + y^2 + x^3", "x*y")
print("resultant oracle")
print("  mu(f) =", mu_f, " mu(g) =", mu_g, " i0(f, g) =", i0)
print("  mu(f, g) =", fx.oracle_mu_pair("x*y + y^2 + x^3", "x*y"))
print("  mu_0(fg) = mu(f) + mu(g) + 2 i0 - 1 =", mu_f + mu_g + 2 * i0 - 1)
print()

# How many parameters does a versal unfolding of the pair need?
print("unfolding dimension nu(f, g) =", fx.unfolding_dimension(model))
print("semitame:", fx.semitame_check(model).is_semitame)
print()

print("hypotheses consumed along the way")
for operation, flag, status in ledger.consumed:
    print(f"  {operation} used {flag} ({status})")
