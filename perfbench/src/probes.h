/**
 * @file
 * Per-layer probes of the traced run. Each probe times calls into one
 * module's public functions from here, on the run's own world, and
 * reports the per-layer metrics named in BENCHMARK.json. Byte counts are
 * computed from CSR and row sizes, not measured.
 */

#pragma once

#include <cstdint>

#include "report.h"
#include "tracer.h"
#include "world.h"

namespace perfbench {

/** Same-run ceilings the layer ratios are taken against. */
struct Ceilings
{
    double triadGbps = 0.0;
    double gemmFp32Gflops = 0.0;
    double gemmBf16Gflops = 0.0;
};

/** Host L3 size in MiB as the C library reports it (0 if unknown). */
double hostL3Mib();

/**
 * Triad bandwidth over arrays whose footprint is at least four times the
 * L3, and packed-GEMM peak at fp32 and bf16.
 */
Ceilings probeCeilings(Tracer &tracer, Report &report, bool tiny);

/**
 * Full-graph layer probes (aggregation, fused kernels, compression pack,
 * GEMM, epilogue, whole-layer forward) for both layers, plus the tracing
 * overhead of a decomposed inference pass.
 */
void probeLayers(World &world, const Ceilings &ceilings, Tracer &tracer,
                 Report &report, int reps);

/** Training-step probes: forward, loss, backward, SGD, fused backward. */
void probeTraining(World &world, Tracer &tracer, Report &report, int reps);

/**
 * Sampling and serving probes over the world's graph and model: sampler
 * and single-request service time, fixed-rate phases, and a churn phase
 * over a DeltaCsr copy of the graph.
 */
void probeServing(World &world, Tracer &tracer, Report &report,
                  double seconds, std::uint64_t seed);

} // namespace perfbench
