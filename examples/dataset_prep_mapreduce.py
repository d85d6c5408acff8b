"""Dataset preparation with PyWren-style map-reduce (§3.2).

The paper normalizes its datasets by chaining two serverless map-reduce
jobs: one computing per-feature min/max, one applying min-max scaling.
This example runs that exact pipeline on the simulated FaaS platform and
reports what it cost.

    python examples/dataset_prep_mapreduce.py
"""

from repro.api import build_world
from repro.mapreduce import PyWrenExecutor, normalize_via_mapreduce
from repro.ml.data import CriteoSpec, criteo_like


def main():
    spec = CriteoSpec(n_samples=8_000, n_hash_buckets=5_000, batch_size=500)
    dataset = criteo_like(spec, seed=3)
    print(f"dataset: {dataset} in {len(dataset)} mini-batches")

    world = build_world(seed=3)
    executor = PyWrenExecutor(world.platform, world.cos)

    job = world.env.process(
        normalize_via_mapreduce(executor, dataset, dense_cols=spec.n_numeric)
    )
    world.env.run(until=job)
    normalized, stats = job.value

    print(f"\nnormalized dataset: {normalized}")
    print("per-feature ranges of the numeric block (first 5):")
    for i in range(5):
        print(f"  feature {i}: [{stats.minimum[i]:.4f}, {stats.maximum[i]:.4f}]")

    sample = normalized[0]
    numeric = sample.X.data[sample.X.indices < spec.n_numeric]
    print(f"\nscaled numeric values now span "
          f"[{numeric.min():.3f}, {numeric.max():.3f}]")

    billing = world.platform.billing
    print(f"\nmap-reduce activations: {len(billing.records)} "
          f"({billing.total_gb_seconds():.1f} GB-s)")
    print(f"preparation cost: ${billing.total_cost():.5f} "
          f"in {world.env.now:.1f} simulated seconds")


if __name__ == "__main__":
    main()
