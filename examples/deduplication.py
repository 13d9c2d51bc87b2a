"""Near-duplicate detection with range and closest-pair queries.

De-duplication is one of the paper's motivating applications (§1).  Two
of the query types map onto it directly:

* **range search** — "which items sit within distance r of this one?"
  answered for a whole batch of probes with the (r, c)-ball guarantee;
* **closest-pair search** — "which pairs of the corpus are suspiciously
  close?" — duplicate discovery with no probe set at all.

This example plants near-duplicates inside a document-embedding-like
dataset and finds them both ways, reporting precision/recall of each
detector against the planted truth.

Run with:  python examples/deduplication.py
"""

from __future__ import annotations

import numpy as np

from repro import PMLSHParams, create_index
from repro.datasets.synthetic import gaussian_mixture


def main() -> None:
    rng = np.random.default_rng(7)

    # A corpus of 4,000 embeddings; 200 of them get a planted near-duplicate.
    corpus = gaussian_mixture(4000, 96, num_clusters=25, cluster_std=1.0, seed=1)
    duplicate_of = rng.choice(4000, size=200, replace=False)
    duplicates = corpus[duplicate_of] + rng.normal(size=(200, 96)) * 0.01
    data = np.vstack([corpus, duplicates])
    print(f"corpus: {corpus.shape[0]} items + {duplicates.shape[0]} planted near-duplicates")

    index = create_index("pm-lsh", params=PMLSHParams(c=1.5), seed=11).fit(data)

    # Distance threshold separating "duplicate" from "merely similar":
    # planted noise has norm ~0.01*sqrt(96) ~ 0.1; within-cluster distances
    # are ~ sqrt(2*96) ~ 14, so r = 0.5 splits them decisively.
    r = 0.5

    # Detector 1 — batch range search over the duplicate block: each probe
    # should find its original inside B(q, r).  One call answers all 200
    # probes as a ragged RangeResult; a hit is any in-ball neighbour other
    # than the probe itself.
    probe_ids = corpus.shape[0] + np.arange(duplicates.shape[0])
    ragged = index.range_search(data[probe_ids], r)
    true_positive = sum(
        1
        for offset, probe_id in enumerate(probe_ids)
        if np.any(ragged[offset].ids != probe_id)
    )
    print(f"\nrange-search detector at r={r}:")
    print(f"  planted duplicates found: {true_positive}/{duplicates.shape[0]} "
          f"({true_positive / duplicates.shape[0]:.1%})")
    print(f"  candidates per probe: {ragged.stats['candidates']:.0f} "
          f"(vs {index.n} for a full scan)")

    # Control group: clean corpus items should NOT report a duplicate
    # (their nearest neighbour is a cluster mate far beyond c*r).
    clean_ids = np.asarray(
        [i for i in range(corpus.shape[0]) if i not in set(duplicate_of)]
    )
    control = rng.choice(clean_ids, size=300, replace=False)
    control_hits = index.range_search(data[control], r)
    false_positive = sum(
        1
        for offset, probe_id in enumerate(control)
        if np.any(control_hits[offset].ids != probe_id)
    )
    print(f"  false alarms on clean items: {false_positive}/{len(control)} "
          f"({false_positive / len(control):.1%})")

    # Detector 2 — closest-pair search: no probe set at all.  The planted
    # pairs are by construction the tightest pairs of the corpus, so the
    # top-200 closest pairs (the exact self-join) recover them.
    pairs = index.closest_pairs(duplicates.shape[0])
    planted = {
        (int(min(orig, corpus.shape[0] + k)), int(max(orig, corpus.shape[0] + k)))
        for k, orig in enumerate(duplicate_of)
    }
    recovered = sum(
        1 for i, j, _ in pairs if (int(i), int(j)) in planted
    )
    print(f"\nclosest-pair detector (m={duplicates.shape[0]}):")
    print(f"  planted pairs recovered: {recovered}/{len(planted)} "
          f"({recovered / len(planted):.1%}) by an exact scan of all "
          f"{pairs.stats['verified']:.0f} pairs")

    # The single-witness primitive behind detector 1 is also exposed
    # directly: Algorithm 1's (r, c)-ball-cover query.
    hit = index.ball_cover_query(data[probe_ids[0]], r=r, exclude={int(probe_ids[0])})
    print(f"\n(r, c)-BC spot check on probe {int(probe_ids[0])}: "
          + (f"found id {hit[0]} at {hit[1]:.4f}" if hit else "no witness"))


if __name__ == "__main__":
    main()
