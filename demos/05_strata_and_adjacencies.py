"""Stratifying a Kuranishi space and walking the adjacency diagram.

Each stratum of the catalog carries its defining equations in the
deformation coefficients plus a rational witness family; verification
parses the family at the witness and recomputes (mu, tau, corank, class)
exactly.
"""

import random
from fractions import Fraction

from localstd import (SingularityClass, adjacency_target, classify_simple,
                      milnor_local, sample_witness, special_adjacency_family,
                      stratum_catalog, verify_stratum)

cls = SingularityClass.parse("E6")
print("strata of the %s Kuranishi space:" % cls)
rng = random.Random(0)
for stratum in stratum_catalog(cls):
    witness = sample_witness(stratum, rng)
    rec = verify_stratum(cls, stratum, witness)
    eqs = " ; ".join(stratum.equations) or "(dense stratum)"
    print("  %-12s %s" % (stratum.name, eqs))
    print("      witness %s -> mu=%d tau=%d corank=%d class=%s %s"
          % ({k: str(v) for k, v in rec.witness.items()}, rec.mu, rec.tau,
             rec.corank, rec.classified, "ok" if rec.ok else "MISMATCH"))

# one-parameter families realizing single adjacency arrows
print()
for kind, n in [("a-from-d", 6), ("a5-from-e6", None), ("d7-from-e8", None)]:
    fam = special_adjacency_family(kind, n=n)
    target = adjacency_target(kind, n=n)
    print("%s (target %s): f_t = %s" % (kind, target, fam))
    for tv in (Fraction(1), Fraction(1, 2)):
        f = fam.specialize_params({"t": tv})
        mu = milnor_local(f).dimension
        print("    t = %-4s mu = %d  class = %s"
              % (tv, mu, classify_simple(f, mu=mu)))
