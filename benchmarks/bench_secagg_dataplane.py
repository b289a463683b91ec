"""Secure-aggregation data-plane benchmark: fold-once vs sequential release.

Regenerates the ``secagg`` experiment (see ``repro/harness/perf.py``)
through the registry/cache layer and asserts the data plane's two
contractual properties at every (cohort size, vector length) operating
point — exact bit-identity (decoded aggregates, release vectors, and TSA
boundary meters all agree between the two arms, max divergence 0) and a
wall-clock gain from folding once at release, once cohorts and vectors
reach protocol-relevant sizes.

Both arms are the same server+TSA pair over the same submissions: every
client's DH completion is forwarded at check-in, off the timed path,
and every masked update goes through the one submission path
(``SecAggServer.submit`` → ``TrustedSecureAggregator.process_client``,
which expands the seed into the TSA's mask-row cache).  They differ only
in the weighted release.  The reference arm replays the sequential
protocol — scale-then-add per masked update, and per leg re-expand the
seed, scale, add, allocating at every step — and the fused arm runs
``finalize(weights)``: ``mac_into`` over the kept masked vectors and one
``weighted_sum_block`` over the cached rows.  So the ratio measures what
the fold-once release buys over the sequential one (no second seed
expansion, no per-step allocation, one fused reduction), not batching of
submissions: there is only one submission path.

Until the block submission path was deleted the fused arm was that path
(``submit_block``, one TSA round trip per block); the ratios were
1.52-1.56x at K=64/l=25k and 1.80x at K=64/l=200k.  This arm pair reads
1.42-1.58x and 1.63-1.81x there (four local runs on a shared 2-core box,
best of 4 each; fused arm 14-16 ms and 110-114 ms).  The floors
asserted here stay where they were: shared CI runners are noisy,
and the benchmark must fail only on real regressions, not scheduling
jitter.  The measured ratios and both arms' absolute milliseconds land
in ``extra_info`` so the artifact tracks the true trajectory per run — a
regression of the shared kernels shows in ``scalar_ms_*`` and
``fused_ms_*`` together, not in the ratio.
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
                f"K={point.cohort_size} l={point.vector_length}: fused/scalar "
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
            benchmark.extra_info[f"fused_ms_{key}"] = round(point.fused_s * 1e3, 2)

        # Folding once must still pay at protocol-relevant operating
        # points (the floors are unchanged from the block-path era; see
        # the module docstring for the ratios measured against them).
        sizes = sorted({p.cohort_size for p in res.points})
        lengths = sorted({p.vector_length for p in res.points})
        big_k, small_l, big_l = sizes[-1], lengths[0], lengths[-1]
        assert by_point[(big_k, small_l)].speedup >= 1.15
        assert by_point[(big_k, big_l)].speedup >= 1.35
        best = max(p.speedup for p in res.points if p.cohort_size >= 32)
        benchmark.extra_info["best_speedup_k32plus"] = round(best, 3)
        assert best >= 1.35
