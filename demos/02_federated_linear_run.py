#!/usr/bin/env python3
"""Federated linear-bandit identification with the hybrid trigger.

Agents share regularized least-squares statistics (V, b, T). An upload
fires when the pending data grows the covariance determinant by a (1+g1)
factor or the pending count ratio passes (1+g2). The informative arm comes
from a minimum-L1 design program or a greedy one-step variance reduction.
"""

import numpy as np

from fedpex import (
    RunConfig,
    gen_gap_instance_linear,
    linear_comm_bound,
    make_rng,
    run_falinpe,
)

inst = gen_gap_instance_linear(dim=5, k_arms=5, gap=0.3, rng=make_rng(42), sigma=0.3)
print("arm means:", np.round(inst.means, 3), " best arm:", inst.best_arm())

for selector in ("lp", "greedy"):
    cfg = RunConfig(n_agents=10, delta=0.05, epsilon=0.05, seed=5, arm_select=selector)
    res = run_falinpe(inst, cfg, audit=True)
    rc = cfg.resolved(inst.k_arms, inst.sigma)
    cap = linear_comm_bound(10, rc.gamma1, rc.gamma2, rc.ridge, inst.dim, res.tau)
    print(f"\n{selector} selector")
    print(f"  arm {res.best_arm_est} (correct={res.correct})  tau={res.tau}")
    print(f"  comm events={res.comm_cost}  cap={cap:.0f}  switches={res.switch_cost}")
    print(f"  ridge={rc.ridge:.3g}  g1={float(rc.gamma1):.4g}  g2={float(rc.gamma2):.4g}")
