"""Print bound thresholds next to Monte Carlo tail estimates.

Two worked examples: the chi-square form (a = 1, b = 0, p = 5) and a mixed
random form with both signs present.  Columns show how much slack the bound
carries at each exponent.
"""

import argparse

import numpy as np

import quadconc as qc

X_LEVELS = (0.25, 0.5, 1.0, 2.0, 4.0)


def report(name, form, n, seed):
    stats = qc.form_stats(form)
    draws = qc.sample(form, n, seed)
    print("%s: p=%d mean=%.4f u_sq=%.4f a+=%.4f a-=%.4f"
          % (name, form.p, stats.mean, stats.u_sq, stats.a_plus, stats.a_minus))
    header = "%-6s %-10s %-12s %-12s %-12s %-22s" % (
        "tail", "x", "threshold", "bound", "p_hat", "99% CI")
    print(header)
    for direction, one in (("upper", qc.upper_threshold), ("lower", qc.lower_threshold)):
        tbs = [one(stats, x) for x in X_LEVELS]
        ests = qc.empirical_tail(draws, np.array([tb.threshold for tb in tbs]), direction, seed=seed)
        for x, tb, est in zip(X_LEVELS, tbs, ests):
            ci = "[%.3g, %.3g]" % (est.ci_low, est.ci_high)
            flag = "" if est.ci_low <= tb.prob_bound else "  <-- CONTRADICTED"
            print("%-6s %-10.4g %-12.6g %-12.6g %-12.6g %-22s%s"
                  % (direction, x, tb.threshold, tb.prob_bound, est.p_hat, ci, flag))
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10**6, help="Monte Carlo sample size")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    chi5 = qc.DiagonalForm(np.ones(5), np.zeros(5))
    report("chi-square p=5", chi5, args.n, args.seed)

    rng = np.random.default_rng(args.seed)
    mixed = qc.DiagonalForm(rng.uniform(-3, 3, 8), rng.uniform(-3, 3, 8))
    report("mixed random p=8", mixed, args.n, args.seed + 1)


if __name__ == "__main__":
    main()
