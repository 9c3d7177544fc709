"""Causal structure learning from discrete observational data.

The Zha-Wu repair approaches "exploit a (learned) causal model over the
attributes" (paper Figure 5); when a dataset carries no ground-truth
graph this module recovers one.  The learner is the classic
score/constraint hybrid for a *known node ordering* (sensitive
attributes and exogenous demographics first, label last — the ordering
every benchmark dataset's schema implies): for each node, parents are
selected greedily from its predecessors while the G-test (likelihood-
ratio test of conditional independence) rejects independence.

This is the ordered variant of the PC algorithm's parent search; with a
correct ordering it is consistent, and it needs no orientation phase.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .graph import CausalGraph


def g_test(x: np.ndarray, y: np.ndarray,
           given: np.ndarray | None = None) -> float:
    """p-value of the G-test of (conditional) independence of two
    discrete variables.

    ``given`` is an optional array of stratum ids; the statistic and
    degrees of freedom are summed over strata (the standard CI-test
    construction used by constraint-based structure learners).
    """
    from scipy import stats

    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError("x and y must be aligned")
    strata = (np.zeros(len(x), dtype=int) if given is None
              else np.asarray(given))
    g_stat = 0.0
    dof = 0
    for value in np.unique(strata):
        mask = strata == value
        xs, ys = x[mask], y[mask]
        x_values, x_codes = np.unique(xs, return_inverse=True)
        y_values, y_codes = np.unique(ys, return_inverse=True)
        if len(x_values) < 2 or len(y_values) < 2:
            continue
        counts = np.zeros((len(x_values), len(y_values)))
        np.add.at(counts, (x_codes, y_codes), 1)
        total = counts.sum()
        expected = np.outer(counts.sum(1), counts.sum(0)) / total
        observed = counts[counts > 0]
        g_stat += 2.0 * float(np.sum(
            observed * np.log(observed / expected[counts > 0])))
        dof += (len(x_values) - 1) * (len(y_values) - 1)
    if dof == 0:
        return 1.0
    return float(stats.chi2.sf(g_stat, dof))


def _discretise(values: np.ndarray, max_levels: int = 4) -> np.ndarray:
    """Quantile-bucket a column whose domain is large."""
    values = np.asarray(values, dtype=float)
    uniques = np.unique(values)
    if len(uniques) <= max_levels:
        return values
    quantiles = np.quantile(values,
                            np.linspace(0, 1, max_levels + 1)[1:-1])
    return np.searchsorted(np.unique(quantiles), values,
                           side="right").astype(float)


def learn_graph(columns: Mapping[str, np.ndarray], order: Sequence[str],
                alpha: float = 0.01, max_parents: int = 4,
                max_levels: int = 4) -> CausalGraph:
    """Learn a causal DAG over discrete columns given a node ordering.

    Parameters
    ----------
    columns:
        Column name → values (continuous columns are quantile-bucketed
        into ``max_levels`` levels first).
    order:
        Causal node ordering: causes precede effects.  Every learned
        edge points forward in this ordering.
    alpha:
        Significance level of the G-test; a candidate parent is kept
        while it remains dependent at level ``alpha`` conditioned on
        the parents selected so far.
    max_parents:
        Cap on the parent-set size per node (keeps the CI tests
        well-powered on modest samples).
    """
    missing = [name for name in order if name not in columns]
    if missing:
        raise ValueError(f"order names absent from columns: {missing}")
    data = {name: _discretise(columns[name], max_levels)
            for name in order}

    def strata_of(names: list[str]) -> np.ndarray | None:
        if not names:
            return None
        matrix = np.column_stack([data[n] for n in names])
        _, inverse = np.unique(matrix, axis=0, return_inverse=True)
        return inverse

    edges: list[tuple[str, str]] = []
    for i, node in enumerate(order):
        predecessors = list(order[:i])
        parents: list[str] = []
        # Greedy forward selection: repeatedly add the most dependent
        # remaining predecessor until none is significant.
        while predecessors and len(parents) < max_parents:
            p_values = {
                cand: g_test(data[cand], data[node],
                             given=strata_of(parents))
                for cand in predecessors
            }
            best = min(p_values, key=p_values.get)
            if p_values[best] > alpha:
                break
            parents.append(best)
            predecessors.remove(best)
        # Backward elimination: drop any parent that became independent
        # given the rest (greedy forward picks can be screened off by
        # parents selected later, e.g. a chain's grandparent).
        pruned = True
        while pruned and len(parents) > 1:
            pruned = False
            for cand in list(parents):
                rest = [p for p in parents if p != cand]
                if g_test(data[cand], data[node],
                          given=strata_of(rest)) > alpha:
                    parents.remove(cand)
                    pruned = True
        edges.extend((parent, node) for parent in parents)
    return CausalGraph(edges=edges, nodes=order)


def learn_dataset_graph(dataset, alpha: float = 0.01,
                        max_parents: int = 4) -> CausalGraph:
    """Learn a graph for an annotated dataset.

    The ordering places the sensitive attribute first (it is a root in
    all the paper's graphs), then the features in schema order, then
    the label last.
    """
    order = [dataset.sensitive, *dataset.feature_names, dataset.label]
    columns = {name: dataset.table[name] for name in order}
    return learn_graph(columns, order, alpha=alpha,
                       max_parents=max_parents)
