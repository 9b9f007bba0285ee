# A channel evaluated two ways: directly, and as a trace against its dual
# state. The dual state is built once; after that every (A, B) pair costs a
# single contraction.

import numpy as np

from randual.channels import UnitaryChannel, apply_channel
from randual.dual import duality_pairing, exact_dual
from randual.rng import haar_unitary

d_a, d_b = 8, 2
ch = UnitaryChannel(haar_unitary(d_a, seed=1), d_b=d_b)
print(f"unitary-induced channel: {d_a} -> {d_b} (traced factor {ch.d_c})")

rho = exact_dual(ch)
print(f"dual state: {rho.shape[0]} x {rho.shape[0]}, trace {np.trace(rho).real:.6f}")

rng = np.random.default_rng(2)
print(f"{'tr[X(A)B]':>12} {'dual state':>12}")
for _ in range(5):
    a = rng.normal(size=(d_a, d_a))
    a = a + a.T
    b = rng.normal(size=(d_b, d_b))
    b = b + b.T
    direct = np.trace(apply_channel(ch, a) @ b).real
    via_dual = duality_pairing(rho, a, b)
    print(f"{direct:12.6f} {via_dual:12.6f}")

# structure of the dual: flat spectrum 1/d_c on a d_c-dimensional support
w = np.linalg.eigvalsh(rho)
print(f"\nnonzero dual eigenvalues: {np.sum(w > 1e-12)} of {len(w)}, "
      f"each ~ 1/d_c = {1 / ch.d_c:.4f}")
print(f"max |rho^2 - rho/d_c| = {np.abs(rho @ rho - rho / ch.d_c).max():.2e}")
