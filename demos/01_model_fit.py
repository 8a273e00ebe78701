"""Fitting the item-frequency model.

Item frequencies in transaction data are overdispersed: a handful of
items appear in thousands of baskets while most barely appear at all.
A negative binomial (Gamma-Poisson mixture) captures that shape with
two parameters: k (how uneven the item popularity is; smaller = more
skewed) and a (the scale; mean frequency = a * k).

This script generates a synthetic database, fits the model, and prints
the fitted parameters alongside the observed and expected frequency
histograms so the fit quality is visible at a glance.
"""

from nbminer import fit_database, generate, gof_chi2, nb_pmf_prefix, preset_config

db, _ = generate(preset_config("artif-2", n_transactions=10_000, seed=7))
print(f"database: {len(db)} transactions, {len(db.item_freq)} distinct items, "
      f"mean size {db.incidence_total / len(db):.2f}")

# Trimming removes a sliver of the most frequent items before fitting;
# those heavy hitters are dominated by planted patterns, not chance, and
# would otherwise drag the tail estimate.
params, hist = fit_database(db, trim_fraction=0.025)
print(f"\nfitted: k={params.k:.4f}  a={params.a:.2f}  "
      f"mean frequency a*k={params.a * params.k:.1f}")
kept = sum(hist.values())  # hist maps each frequency to its number of items
unseen = params.n_total - kept
print(f"zero-class estimate: {unseen} unseen items on top of "
      f"{kept} kept ones ({params.trimmed_items} trimmed) "
      f"-> n_total={params.n_total} (EM passes: {params.em_iterations}; at "
      f"this size nearly every item shows up, so a tiny zero class is the "
      f"expected answer)")

print("\nfrequency band   observed items   expected items")
edges = [1, 41, 81, 121, 161, 201, 261, 341]
for lo, hi in zip(edges, edges[1:]):
    obs = sum(c for r, c in hist.items() if lo <= r < hi)
    exp = params.n_total * nb_pmf_prefix(params.k, params.a, hi - 1)[lo:].sum()
    print(f"  {lo:4d}-{hi - 1:<4d}     {obs:10.0f} {exp:16.1f}")

# gof_chi2 counts the model's unseen items in the zero class itself
gof = gof_chi2(hist, params)
print(f"\ngoodness of fit: chi2={gof.chi2:.1f} on {gof.df} degrees of freedom "
      f"(p={gof.p_value:.3g})")
print("The planted patterns make the data slightly non-random on purpose;")
print("a mediocre p-value here is expected and does not hurt mining.")
