#!/usr/bin/env python
"""Online hot-event tracking over a news stream (paper §6, future work).

The paper closes with: "we will further extend ALID towards the online
version to efficiently process streaming data sources."  This example
runs that extension end to end, *including the serving side*:

* news articles arrive day by day through the live-corpus ingest tier
  (:class:`~repro.serve.ingest.IngestService`): existing events absorb
  their follow-up coverage, dirtied collision regions are re-peeled so
  brand-new events emerge the moment enough similar articles have
  accumulated, and background noise never forms a cluster;
* after day 1 a **base snapshot** is published and a serving handle
  opens over it (:func:`repro.serve.connect`); every following day
  publishes an **incremental delta** — appended rows, LSH insert state
  and replaced clusters only — which the handle hot-applies without
  ever reloading the full corpus;
* at the end, the oldest day's articles *expire* (retirement): events
  losing coverage re-converge over their surviving articles and events
  losing dominance dissolve.

Run:  python examples/streaming_events.py
"""

import tempfile

import numpy as np

from repro import ALIDConfig, average_f1, make_nart
from repro.serve import IngestService, connect
from repro.streaming import StreamingALID


def main() -> None:
    corpus = make_nart(scale=0.35, seed=13)
    rng = np.random.default_rng(0)
    order = rng.permutation(corpus.n)
    n_days = 6
    day_slices = np.array_split(order, n_days)

    ingest = IngestService(StreamingALID(ALIDConfig(delta=300, seed=0)))
    print(
        f"streaming {corpus.n} articles over {n_days} 'days'; "
        f"{corpus.n_true_clusters} hot events hide in the stream\n"
    )
    with tempfile.TemporaryDirectory(prefix="alid_chain_") as scratch:
        serving = None
        probe = corpus.data[order[:32]]
        for day, indices in enumerate(day_slices, start=1):
            report = ingest.ingest(corpus.data[indices])
            print(
                f"day {day}: +{len(indices):4d} articles "
                f"({report.absorbed:3d} absorbed into live events) -> "
                f"{report.n_clusters:2d} live events"
            )
            if day == 1:
                # Publish the chain anchor and open the serving front.
                ingest.publish_base(f"{scratch}/base")
                serving = connect(f"{scratch}/base")
            else:
                # Publish what changed; the serving handle hot-applies
                # it without reloading the unchanged clusters.
                delta = ingest.publish_delta(f"{scratch}/day{day}")
                serving.apply_delta(f"{scratch}/day{day}")
                print(
                    f"        delta day{day}: +{delta.n_appended} rows, "
                    f"{delta.n_upserted} event(s) refreshed/new; "
                    f"serving now answers over "
                    f"{serving.stats()['n_clusters']} events"
                )
            answered = serving.assign(probe)
            print(
                f"        probe: {int(answered.assigned_mask.sum())}/32 "
                f"early articles recognised by the live service"
            )
        serving.close()

    final = ingest.stream.result()
    # Evaluate against ground truth (indices were permuted on arrival).
    truth_streamed = [
        np.flatnonzero(np.isin(order, t)) for t in corpus.truth_clusters()
    ]
    avg = average_f1(final.member_lists(), truth_streamed)
    print(f"\nfinal AVG-F against ground truth: {avg:.3f}")
    print(
        f"affinity entries computed across the whole stream: "
        f"{final.counters.entries_computed:,} "
        f"({100 * final.counters.entries_computed / corpus.n ** 2:.2f}% "
        f"of n^2)"
    )

    # --- expiry: day 1's articles age out of the stream ----------------
    expired = ingest.stream.retire(np.arange(day_slices[0].size))
    print(
        f"\nafter retiring day 1 ({day_slices[0].size} articles): "
        f"{expired.n_clusters} live events remain "
        f"({expired.metadata['retired']} articles tombstoned)"
    )
    ingest.close()


if __name__ == "__main__":
    main()
