"""A guided tour of one decode and one witness verification.

Walks through the objects the estimator uses internally: build a code, apply
a hand-picked error, look at its syndrome in both Pauli representations,
decode, test the residual with `logical_mask` (the rule the sweep and
`verify_witness` share), and finally check a distance witness.
"""

import numpy as np

import qdist
from qdist import codes, decoder, estimator, pauli

code = qdist.planar_surface(3)
print(f"code: {code.name}  [[{code.n}, {code.k}]], {code.num_generators} generators")

# A weight-2 error: X on qubit 0, Y on qubit 5.
err_chars = ["I"] * code.n
err_chars[0], err_chars[5] = "X", "Y"
err = pauli.from_string("".join(err_chars))
print(f"\nerror:     {pauli.to_string(err)}  (weight {pauli.weight(err)})")

# Same syndrome from the symplectic and the decoupled representation.
s = code.syndrome(err)
s2 = pauli.syndrome_decoupled(code.hd, pauli.to_decoupled(err))
print(f"syndrome:  {''.join(map(str, s.bits))}  (decoupled form agrees: {s == s2})")

outcome = decoder.decode(code, s, decoder.ChannelPrior(0.1))
print(f"estimate:  {pauli.to_string(outcome.estimate)}  "
      f"(BP converged: {outcome.bp_converged}, OSD used: {not outcome.bp_converged})")

residual = pauli.mul(err, outcome.estimate)
is_logical = estimator.logical_mask(code, residual.ex[None, :], residual.ez[None, :])[0]
print(f"residual:  {pauli.to_string(residual)}  -> {'logical' if is_logical else 'not logical'}")

# Now a genuine logical operator, straight from the symplectic basis.
logical = codes.logical_basis(code)[0]
print(f"\nlogical operator: {pauli.to_string(logical)}  (weight {pauli.weight(logical)})")
print("zero syndrome:     ", code.syndrome(logical).is_zero())
vec = np.concatenate([logical.ex, logical.ez])[None, :]
print("in stabilizer span:", code.stabilizer_reducer().contains_batch(vec)[0])
print("verify_witness:    ",
      estimator.verify_witness(code, logical, pauli.weight(logical)))

# The exhaustive oracle agrees that nothing lighter exists.
oracle = estimator.brute_force_distance(code, 4)
print(f"\nbrute-force distance: {oracle.found_distance} "
      f"(witness {pauli.to_string(oracle.witness)})")
