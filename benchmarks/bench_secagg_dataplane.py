"""Secure-aggregation data-plane benchmark: block vs scalar server+TSA.

Regenerates the ``secagg`` experiment (see ``repro/harness/perf.py``)
through the registry/cache layer and asserts the data plane's two
contractual properties at every (cohort size, vector length) operating
point — exact bit-identity (decoded aggregates, release vectors, and TSA
boundary meters all agree between the scalar and block arms, max
divergence 0) and a wall-clock gain from batching once cohorts and
vectors reach protocol-relevant sizes.

What the ratio measures changed in PR 13.  The scalar arm used to pay
for two things: one TSA/server round trip per client instead of one per
block, *and* element ops that copied a model-sized vector two or three
times per step (``reduce`` after every ``add``/``scale``, a Generator
draw plus a mask pass where the block path read raw Philox words).  The
per-arrival path now runs the same one-pass kernels as the block path
(one row kernel for ``expand_mask``/``expand_mask_block``, single-pass
``add``/``sub``/``scale`` at the storage width), so the scalar arm got
~1.75x faster on purpose (K=64/l=200k: 336-346 ms -> 192-198 ms, block
arm unchanged at 102-110 ms) and the ratio now isolates *batching* —
fused reductions, cached mask rows, one boundary crossing per block:
1.52-1.56x at K=64/l=25k and 1.80x at K=64/l=200k over three local runs
(was ~2.5x / ~3.2x).

The floors asserted here are ~0.75x those measurements: shared CI
runners are noisy, and the benchmark must fail only on real regressions,
not scheduling jitter.  The measured ratios and both arms' absolute
milliseconds land in ``extra_info`` so the artifact tracks the true
trajectory per run — a regression of the shared kernels shows in
``scalar_ms_*`` and ``block_ms_*`` together, not in the ratio.
"""

from repro.harness import perf  # noqa: F401  (registers the secagg experiment)


class TestSecAggDataPlane:
    def test_secagg_speedup_and_bit_identity(self, cached_run, benchmark):
        res = cached_run("secagg")
        by_point = {(p.cohort_size, p.vector_length): p for p in res.points}

        for point in res.points:
            # The differential guarantee: every operating point must be
            # exactly bit-identical — this is a correctness contract, not
            # a timing, so it has no tolerance at all.
            assert point.bit_identical, (
                f"K={point.cohort_size} l={point.vector_length}: block/scalar "
                f"aggregates or release vectors differ"
            )
            assert point.max_divergence == 0.0
            assert point.boundary_match, (
                f"K={point.cohort_size} l={point.vector_length}: TSA boundary "
                f"meters diverged between arms"
            )
            key = f"k{point.cohort_size}_l{point.vector_length}"
            benchmark.extra_info[f"speedup_{key}"] = round(point.speedup, 3)
            benchmark.extra_info[f"scalar_ms_{key}"] = round(point.scalar_s * 1e3, 2)
            benchmark.extra_info[f"block_ms_{key}"] = round(point.block_s * 1e3, 2)

        # Batching must still pay at protocol-relevant operating points
        # (locally ~1.5x at K=64 on the small vector, ~1.8x at K=64 on
        # the model-sized one; floors are ~0.75x measured).
        sizes = sorted({p.cohort_size for p in res.points})
        lengths = sorted({p.vector_length for p in res.points})
        big_k, small_l, big_l = sizes[-1], lengths[0], lengths[-1]
        assert by_point[(big_k, small_l)].speedup >= 1.15
        assert by_point[(big_k, big_l)].speedup >= 1.35
        best = max(p.speedup for p in res.points if p.cohort_size >= 32)
        benchmark.extra_info["best_speedup_k32plus"] = round(best, 3)
        assert best >= 1.35
