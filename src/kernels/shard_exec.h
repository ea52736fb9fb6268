/**
 * @file
 * Delayed-halo aggregation over a PartitionPlan (DistGNN-style) — the
 * one plan-aware kernel.
 *
 * Exact shard-major execution needs no kernel of its own: each row's
 * result does not depend on which task computes it, so running the
 * flat kernels over plan.shardMajorOrder (what GnnLayer does with
 * shards >= 2) is bit-identical to flat execution and buys the same
 * locality. Delayed halo is different because it changes what is
 * gathered: each shard first folds its self + intra-shard terms from
 * the local CSR, then gathers every halo row exactly *once* into a
 * shard-local replica buffer and folds the cut-edge terms from the
 * replica. Cross-shard hub rows are pulled once per shard instead of
 * once per cut edge, so gathered bytes genuinely drop; the changed
 * summation order makes Sum results fp-tolerant rather than bit-equal
 * (Max stays exact — it is order-insensitive).
 *
 * Each task runs under a "partition.shard" trace span and feeds the
 * partition.bytes_gathered / partition.halo_bytes counters.
 */

#pragma once

#include "graph/partition/partition_plan.h"
#include "kernels/aggregation.h"

namespace graphite {

/**
 * Delayed-halo Algorithm 1 over fp32 or bf16 rows (fp32 accumulation;
 * Sum and Max reductions). Packed rows have no replica form and are
 * rejected.
 */
void aggregateDelayedHalo(const PartitionPlan &plan, const GatherInput &in,
                          DenseMatrix &out, const AggregationSpec &spec,
                          const AggregationConfig &config = {});

} // namespace graphite
