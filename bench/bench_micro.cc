/**
 * @file
 * Microbenchmarks (google-benchmark) for the simulation hot paths:
 * the per-point setup stages (DEM, sampler and decoder construction),
 * fault sampling, and MWPM and union-find decoding at realistic event
 * densities.
 */
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "core/generator_common.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/union_find.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "util/rng.h"

using namespace vlq;

namespace {

GeneratorConfig
benchConfig(int d, double p)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.cavityDepth = 10;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

void
BM_GenerateCompact(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      2e-3);
    for (auto _ : state) {
        GeneratedCircuit gen = generateCompactMemory(cfg);
        benchmark::DoNotOptimize(gen.circuit.ops().size());
    }
}
BENCHMARK(BM_GenerateCompact)->Arg(3)->Arg(5);

/**
 * The memory circuit of a setup-stage case: the 2D baseline, or with
 * `compact` the Compact-Interleaved VLQ embedding (paper setup 4).
 */
GeneratedCircuit
setupCircuit(int d, bool compact)
{
    GeneratorConfig cfg = benchConfig(d, 2e-3);
    if (!compact)
        return generateBaselineMemory(cfg);
    cfg.schedule = ExtractionSchedule::Interleaved;
    return generateCompactMemory(cfg);
}

void
BM_BuildDem(benchmark::State& state)
{
    GeneratedCircuit gen = setupCircuit(static_cast<int>(state.range(0)),
                                        state.range(1) != 0);
    for (auto _ : state) {
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        benchmark::DoNotOptimize(dem.channels().size());
    }
}
BENCHMARK(BM_BuildDem)
    ->ArgNames({"d", "compact"})
    ->ArgsProduct({{3, 5, 7}, {0, 1}});

void
BM_BuildSampler(benchmark::State& state)
{
    GeneratedCircuit gen =
        setupCircuit(static_cast<int>(state.range(0)), false);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    for (auto _ : state) {
        FaultSampler sampler(dem);
        benchmark::DoNotOptimize(sampler.numDetectors());
    }
}
BENCHMARK(BM_BuildSampler)->Arg(3)->Arg(5)->Arg(7);

/** Union-find decoder init: decoding-graph build plus decoder tables. */
void
BM_BuildUnionFind(benchmark::State& state)
{
    GeneratedCircuit gen =
        setupCircuit(static_cast<int>(state.range(0)), false);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    for (auto _ : state) {
        UnionFindDecoder decoder(dem);
        benchmark::DoNotOptimize(decoder.graph().edges().size());
    }
}
BENCHMARK(BM_BuildUnionFind)->Arg(3)->Arg(5)->Arg(7);

void
BM_Sample(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      8e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    Rng rng(1);
    BitVec det(dem.numDetectors());
    uint32_t obs = 0;
    for (auto _ : state) {
        sampler.sampleInto(rng, det, obs);
        benchmark::DoNotOptimize(obs);
    }
}
BENCHMARK(BM_Sample)->Arg(3)->Arg(5)->Arg(7);

/**
 * MWPM decode of a pinned shot set (fixed seed, sampled outside the
 * loop), one shot per iteration. The set is decoded once before
 * timing, so the oracle's lazy row fills stay out of the steady-state
 * number.
 */
void
decodeMwpmLoop(benchmark::State& state, const GeneratedCircuit& gen)
{
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    MwpmDecoder decoder(dem);
    Rng rng(1);
    std::vector<BitVec> shots(1024, BitVec(dem.numDetectors()));
    uint32_t obs = 0;
    for (BitVec& det : shots) {
        sampler.sampleInto(rng, det, obs);
        benchmark::DoNotOptimize(decoder.decode(det));
    }
    size_t next = 0;
    for (auto _ : state) {
        uint32_t predicted = decoder.decode(shots[next]);
        benchmark::DoNotOptimize(predicted);
        next = next + 1 == shots.size() ? 0 : next + 1;
    }
}

void
BM_DecodeMwpm(benchmark::State& state)
{
    decodeMwpmLoop(state, generateBaselineMemory(benchConfig(
                              static_cast<int>(state.range(0)), 8e-3)));
}
BENCHMARK(BM_DecodeMwpm)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

/**
 * MWPM decode on the Compact-Interleaved VLQ embedding (paper setup 4)
 * at p = 4e-3, the benchmark's mwpm-compact workload at its higher
 * rate.
 */
void
BM_DecodeMwpmCompact(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      4e-3);
    cfg.schedule = ExtractionSchedule::Interleaved;
    decodeMwpmLoop(state, generateCompactMemory(cfg));
}
BENCHMARK(BM_DecodeMwpmCompact)->Arg(5)->Arg(7)->Arg(9);

/**
 * Pinned batched union-find decode: the same pre-sampled 256-shot
 * batch is decoded every iteration (fixed seed, sampler outside the
 * loop), so the number isolates the decode path the Monte-Carlo engine
 * spends its time in. This is the loop the observability layer's
 * <1%-overhead-when-disabled budget is measured against (test_obs).
 */
void
BM_DecodeBatchUf(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      8e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    UnionFindDecoder decoder(dem);
    const uint32_t shots = 256;
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), shots, 0);
    sampler.sampleBatchInto(Rng(1), batch);
    std::vector<uint32_t> predictions(shots);
    for (auto _ : state) {
        decoder.decodeBatch(batch, std::span<uint32_t>(predictions));
        benchmark::DoNotOptimize(predictions[0]);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * shots);
}
BENCHMARK(BM_DecodeBatchUf)->Arg(3)->Arg(5)->Arg(7);

/**
 * The Monte-Carlo engine's batch loop (sampleBatchInto + decodeBatch
 * + failure count over one 256-shot batch) on the union-find decoder
 * the engine defaults to for big scans.
 */
void
BM_BatchPipeline(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      3.5e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    UnionFindDecoder decoder(dem);
    const uint32_t shots = 256;
    const Rng root(1);
    ShotBatch batch;
    std::vector<uint32_t> predictions(shots);
    uint64_t begin = 0;
    for (auto _ : state) {
        batch.reset(dem.numDetectors(), dem.numObservables(), shots,
                    begin, dem.numErasureSites());
        sampler.sampleBatchInto(root, batch);
        decoder.decodeBatch(batch, std::span<uint32_t>(predictions));
        uint32_t failures = 0;
        for (uint32_t s = 0; s < shots; ++s)
            failures += predictions[s] != batch.observables(s);
        benchmark::DoNotOptimize(failures);
        begin += shots;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * shots);
}
BENCHMARK(BM_BatchPipeline)->Arg(3)->Arg(5)->Arg(7);

} // namespace

BENCHMARK_MAIN();
