"""Walkthrough: diversity-aware target selection with similarity banks.

Streams hand-made ROI vectors from three obvious clusters through the bank
builder, prints how the banks fill, merge and found, and contrasts the final
one-per-bank pick with a pure top-score pick that collapses onto one cluster.

Run:  python3 demos/03_target_bank_sampling.py
"""

import numpy as np

from bidal import build_banks, select_targets

rng = np.random.default_rng(1)

# three well-separated cluster directions in 8-d, nine frames interleaved: one
# ROI matrix with a row per frame
dirs = np.eye(8)[:3]
rois = dirs[np.arange(9) % 3] + 0.1 * rng.normal(size=(9, 8))
ids = ["f%02d" % i for i in range(9)]
print("9 frames from clusters A/B/C in the order "
      + " ".join("ABC"[i % 3] for i in range(9)))

banks = build_banks(rois, ids, capacity=3)
print("\nfinal banks (capacity 3):")
for k, bank in enumerate(banks.banks):
    print("  bank %d: members %s" % (k, ", ".join(bank.members)))

# give cluster A's frames the highest "domainness" scores across the board
scores = {f: 0.9 - 0.01 * i if i % 3 == 0 else 0.3 + 0.01 * i
          for i, f in enumerate(ids)}
picked = select_targets(banks, scores)
print("\none pick per bank (highest score inside each):", picked)
print("clusters covered:", sorted({"ABC"[int(p[1:]) % 3] for p in picked}))

greedy = sorted(scores, key=lambda i: -scores[i])[:3]
print("\npure top-score pick for comparison:", greedy)
print("clusters covered:", sorted({"ABC"[int(g[1:]) % 3] for g in greedy}))
print("\nthe banks force one pick per region; greedy spends the whole budget")
print("on the single cluster that happens to score highest.")
