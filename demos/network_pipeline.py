"""Full node-classification pipeline on a synthetic citation-style network.

The planted-homophily generator grows a graph whose relational signal
strength rises with node degree while the text features stay equally
informative everywhere. A local naive Bayes and a relational wvRN+ICA
classifier are stacked two ways: with constant weights (logistic, ridge,
lasso on three designs) and with degree-dependent functional weights.
The report shows where the dynamic model earns its advantage: the low-
and high-degree extremes, where the right classifier mix differs most
from the average.

Usage: python demos/network_pipeline.py
"""

import numpy as np

from dynstack.experiment import ExperimentConfig, run_graph_experiment
from dynstack.naive_bayes import parse_feature_file
from dynstack.stacking import coefficient_curves
from dynstack.synth import planted_homophily_network

net = planted_homophily_network(n_nodes=600, seed=3)
features = parse_feature_file(net.feature_lines, net.graph.node_ids)
print(
    f"network: {net.graph.n_nodes} nodes, {net.graph.n_edges} edges, "
    f"{features.vocab_size} feature terms"
)

cfg = ExperimentConfig(
    covariate="degree", test_fraction=0.5, reps=10, folds=10, seed=11, threads=2
)
report = run_graph_experiment(net.graph, features, "topic/positive", cfg)

print(f"\nMean test accuracy over {cfg.reps} seeded splits:")
for m in report.methods:
    acc = report.accuracies[m]
    print(f"  {m:14s} {acc.mean():.4f} ({acc.std(ddof=1):.4f})")

print("\nPaired one-sided comparison, dynamic vs each static generalizer:")
for m, c in report.comparisons.items():
    print(f"  vs {m:14s} diff {c.mean_diff:+.4f}   p {c.p_value:.2g}")

print("\nWhere the gain lives (mean extra correct nodes per repetition, by degree):")
deltas = report.bin_delta_correct["logistic_m1"]
for lo, cnt, d in zip(report.bin_lo, report.bin_counts, deltas):
    if cnt >= 1:
        bar = "+" * int(round(max(d, 0) * 4)) or ("-" * int(round(-d * 4)))
        print(f"  degree {int(lo):2d}  n~{cnt:5.1f}   {d:+5.2f}  {bar}")

print("\nFitted weight curves (first repetition): the relational classifier")
print("earns weight only where degree makes it trustworthy.")
model = report.model
grid = np.linspace(model.basis.u_lo, model.basis.u_hi, 8)
curves = coefficient_curves(model, grid)
print(f"  {'degree':>7s}  {model.columns[0]:>16s}  {model.columns[1]:>16s}")
for u, (nb, rel) in zip(grid, curves):
    print(f"  {u:7.1f}  {nb:16.3f}  {rel:16.3f}")
