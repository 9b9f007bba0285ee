# Monte-Carlo channel evaluation with error bars. Each dual sample gives one
# scalar; their mean estimates tr[X(A)B] and their spread has an exact
# closed form, the single-sample sigma that variance_bound returns.

import numpy as np

from randual.channels import UnitaryChannel, apply_channel
from randual.dual import dual_ensemble, estimate_observable, rank1_variance_bound, variance_bound
from randual.rng import haar_unitary

rng = np.random.default_rng(5)
ch = UnitaryChannel(haar_unitary(16, seed=6), d_b=2)

a = rng.normal(size=(16, 16))
a = (a + a.T) / 2
b = np.diag([1.0, -1.0])
exact = np.trace(apply_channel(ch, a) @ b).real

print("general Hermitian pair")
print(f"  exact value     {exact:+.5f}")
print(f"  exact sigma     {np.sqrt(variance_bound(ch, a, b)):.4f} per sample")
for n in (100, 1000, 10000):
    rep = estimate_observable(dual_ensemble(ch, n, master_seed=7), a, b)
    z = (rep.estimate - exact) / rep.sigma_n
    print(f"  N={n:<6d} estimate {rep.estimate:+.5f} +- {rep.sigma_n:.5f}  (z = {z:+.2f})")

# rank-1 projector input: the spread is bounded by the mean itself, so the
# relative error at N samples is 1/sqrt(N) no matter the dimensions
v = rng.normal(size=16) + 1j * rng.normal(size=16)
v /= np.linalg.norm(v)
proj = np.outer(v, v.conj())
c = rng.normal(size=(2, 2))
psd = c @ c.T
mu1sq = rank1_variance_bound(ch, proj, psd)
exact = np.trace(apply_channel(ch, proj) @ psd).real

print("\nrank-1 projector input, PSD output")
print(f"  exact value     {exact:.5f}")
print(f"  mu_1^2 bound    {mu1sq:.5f} (squared mean)")
rep = estimate_observable(dual_ensemble(ch, 10000, master_seed=8), proj, psd)
print(f"  N=10000 estimate {rep.estimate:.5f} +- {rep.sigma_n:.5f}")
print(f"  empirical var   {rep.empirical_sigma**2:.5f} <= {mu1sq:.5f}")
