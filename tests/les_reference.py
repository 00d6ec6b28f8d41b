"""The linear expenditure system's welfare measures in their textbook
two-exponential form, as an independent reference for ``priceshock.demand``.

Utility at (p, x) is (x - c(p)) / P(p), with c(p) = sum_i p_i gamma_i the
committed cost and P(p) = prod((p_i / phi_i) ** phi_i) the price index over
the goods with phi_i > 0; spending that reaches utility u at p is
c(p) + u P(p) (Creedy 1998, "Measuring the welfare effects of price
changes: a convenient parametric approach", Australian Economic Papers
37(2)). The package's closed forms take only the change in ln P, in which
ln phi cancels; these take ln P itself, with ln phi, at each price vector.
"""

import numpy as np

from priceshock.demand import LesParameters
from priceshock.errors import InfeasibleBudgetError


def log_index(prices, params):
    """ln P(p) for one household (1-D) or a block (one value per row)."""
    phi = params.phi
    log_phi = np.log(phi, out=np.zeros_like(phi), where=phi > 0)
    return (phi * (np.log(prices) - log_phi)).sum(axis=-1)


def indirect_utility(prices, total, params):
    """Utility attained at (prices, total); a budget that does not cover the
    committed bundle raises."""
    left = np.asarray(total - params.committed_cost(prices))
    if np.any(left <= 0):
        raise InfeasibleBudgetError(f"{int(np.sum(left <= 0))} budgets do not cover "
                                    "the committed bundle")
    return left * np.exp(-log_index(prices, params))


def expenditure_needed(prices, utility, params):
    """Minimum spending that reaches ``utility`` at ``prices``."""
    return params.committed_cost(prices) + utility * np.exp(log_index(prices, params))


def compensating_variation(p0, p1, total, params):
    """Spending needed at p1 to restore utility at (p0, total), less total."""
    return expenditure_needed(p1, indirect_utility(p0, total, params), params) - total


def equivalent_income(p_ref, p, total, params):
    """Spending at ``p_ref`` that reaches the utility attained at (p, total)."""
    return expenditure_needed(p_ref, indirect_utility(p, total, params), params)


def household_parameters(budget, xi, basket):
    """One household's system as a run calibrates it from its group's budget
    elasticities and Frisch parameter: phi_i proportional to eta_i w_i, the
    supernumerary budget -x / xi, and gamma_i = x_i - phi_i * that budget.
    With no good of positive eta_i w_i it is Cobb-Douglas: phi = w, gamma = 0."""
    total = basket.sum()
    shares = basket / total
    marginal = budget * shares
    if not np.any(marginal > 0):
        return LesParameters(gamma=np.zeros(len(basket)), phi=shares / shares.sum())
    phi = marginal / marginal.sum()
    return LesParameters(gamma=basket - phi * (-total / xi), phi=phi)
