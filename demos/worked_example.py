"""Walk through the library on a four-outcome dataset with a closed form.

The dataset contains ten transactions over items {1, 2}; with the two
singleton parameters the maximum-likelihood Gibbs distribution is the
independence model, so every quantity below can be checked by hand.
"""

import numpy as np

from tbmlearn import (
    EmpiricalDistribution,
    TransactionDataset,
    entropy,
    fisher_information,
    fit,
    kl_divergence,
    mine_parameter_domain,
    reconstruction_error_proxy,
)

## The data: multiplicities for {}, {1}, {2}, {1,2}
dataset = TransactionDataset(
    entries={(): 2, (1,): 3, (2,): 1, (1, 2): 4}, n_variables=3
)
print(f"N = {dataset.n_samples} transactions over {dataset.n_variables} variables")

## Mine the parameter domain: patterns with support >= 0.45, order <= 2
domain = mine_parameter_domain(dataset, sigma=0.45, k=2)
print(f"parameter domain at sigma=0.45: {list(domain)}")

## Fit the Gibbs distribution on the derived sample space
model, report = fit(dataset, domain)
print(f"converged in {report.iterations} sweeps, moment gap {report.final_gap:.2e}")
print("fitted probabilities:")
for x, p in model.probabilities.items():
    print(f"  p{x or '()'} = {p:.6f}")

## Compare with the closed form: independence with Pr(1)=0.7, Pr(2)=0.5
print(f"theta(1) = {model.theta_map[(1,)]:.6f}   (log(7/3) = {np.log(7/3):.6f})")
print(f"log-partition = {model.log_partition:.6f}   (-log 0.15 = {-np.log(0.15):.6f})")

## Evaluation metrics
p_hat = EmpiricalDistribution.from_dataset(dataset)
print(f"KL(data, model)     = {kl_divergence(p_hat, model):.6f}")
print(f"data entropy        = {entropy(p_hat):.6f}")
print(f"proxy reconstruction error = "
      f"{reconstruction_error_proxy(model.energy, dataset):.6f}")

## Fisher information at the optimum: covariance of the indicators
g = fisher_information(model)
print(f"Fisher matrix over {model.domain}:")
print(np.array_str(g, precision=4))
