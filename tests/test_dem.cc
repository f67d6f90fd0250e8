#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <vector>

#include "core/generator_common.h"
#include "decoder/decoding_graph.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "mc/memory_experiment.h"
#include "sim/frame.h"
#include "util/rng.h"

namespace vlq {
namespace {

std::vector<uint32_t>
asVector(std::span<const uint32_t> v)
{
    return {v.begin(), v.end()};
}

GeneratorConfig
smallConfig(EmbeddingKind, double p,
            ExtractionSchedule sched = ExtractionSchedule::AllAtOnce,
            CheckBasis basis = CheckBasis::Z)
{
    GeneratorConfig cfg;
    cfg.distance = 3;
    cfg.memoryBasis = basis;
    cfg.schedule = sched;
    cfg.cavityDepth = 3;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

TEST(Dem, RepetitionToyCircuit)
{
    // Two-qubit "repetition code": one parity check measured twice.
    Circuit c(3);
    c.xError(0, 0.1); // channel 0
    c.cnot(0, 2);
    c.cnot(1, 2);
    uint32_t m0 = c.measureZ(2);
    c.reset(2);
    c.cnot(0, 2);
    c.cnot(1, 2);
    uint32_t m1 = c.measureZ(2);
    uint32_t md = c.measureZ(0);
    Detector d0;
    d0.measurements = {m0};
    c.addDetector(d0);
    Detector d1;
    d1.measurements = {m0, m1};
    c.addDetector(d1);
    uint32_t obs = c.addObservable();
    c.observableInclude(obs, md);

    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 1u);
    const auto& ch = dem.channels()[0];
    ASSERT_EQ(dem.outcomes(ch).size(), 1u);
    // X on qubit 0 flips m0 and m1 and the data readout: detector 0
    // (m0) fires, detector 1 (m0 xor m1) stays quiet, observable flips.
    EXPECT_EQ(asVector(dem.detectors(dem.outcomes(ch)[0])),
              (std::vector<uint32_t>{0}));
    EXPECT_EQ(dem.outcomes(ch)[0].observables, 1u);
    EXPECT_NEAR(dem.outcomes(ch)[0].probability, 0.1, 1e-12);
}

TEST(Dem, MeasurementFlipChannel)
{
    Circuit c(1);
    uint32_t m0 = c.measureZ(0, 0.2);
    uint32_t m1 = c.measureZ(0, 0.0);
    Detector d;
    d.measurements = {m0, m1};
    c.addDetector(d);
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 1u);
    const FaultOutcome& o = dem.outcomes(dem.channels()[0])[0];
    EXPECT_EQ(asVector(dem.detectors(o)), (std::vector<uint32_t>{0}));
    EXPECT_NEAR(o.probability, 0.2, 1e-12);
}

TEST(Dem, DepolarizeSplitsOutcomes)
{
    Circuit c(1);
    c.depolarize1(0, 0.3);
    uint32_t m = c.measureZ(0);
    Detector d;
    d.measurements = {m};
    c.addDetector(d);
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 1u);
    // X and Y flip the Z measurement; Z does not (empty, dropped).
    EXPECT_EQ(dem.outcomes(dem.channels()[0]).size(), 2u);
    EXPECT_NEAR(dem.totalProbability(dem.channels()[0]), 0.2, 1e-12);
}

/**
 * Cross-validation on real circuits: the backward-built DEM must match
 * forward Pauli-frame injection for every outcome of every channel.
 */
class DemForwardBackward
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(DemForwardBackward, SignaturesMatchForwardInjection)
{
    auto [embInt, schedInt] = GetParam();
    EmbeddingKind emb = static_cast<EmbeddingKind>(embInt);
    GeneratorConfig cfg = smallConfig(
        emb, 2e-3, static_cast<ExtractionSchedule>(schedInt));
    GeneratedCircuit gen = generateMemoryCircuit(emb, cfg);
    const Circuit& circuit = gen.circuit;
    DetectorErrorModel dem = DetectorErrorModel::build(circuit);
    FrameSimulator frame(circuit);

    for (const auto& ch : dem.channels()) {
        const Operation& op = circuit.ops()[ch.opIndex];
        // Enumerate the op's physical outcomes and forward-propagate.
        std::vector<std::pair<std::vector<uint32_t>, uint32_t>> expected;
        auto addExpected = [&](const BitVec& measFlips) {
            BitVec det = FrameSimulator::detectorFlips(circuit, measFlips);
            uint32_t obs =
                FrameSimulator::observableFlips(circuit, measFlips);
            auto ones = det.onesIndices();
            if (!ones.empty() || obs != 0)
                expected.push_back({ones, obs});
        };
        switch (op.code) {
          case OpCode::DEPOLARIZE1:
            for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z})
                addExpected(frame.propagateInjected(ch.opIndex, p));
            break;
          case OpCode::DEPOLARIZE2:
            for (int code = 1; code < 16; ++code) {
                Pauli pa = static_cast<Pauli>(code >> 2);
                Pauli pb = static_cast<Pauli>(code & 3);
                addExpected(
                    frame.propagateInjected(ch.opIndex, pa, pb));
            }
            break;
          case OpCode::MEASURE_Z:
            addExpected(frame.propagateMeasurementFlip(ch.opIndex));
            break;
          case OpCode::X_ERROR:
            addExpected(frame.propagateInjected(ch.opIndex, Pauli::X));
            break;
          default:
            FAIL() << "unexpected channel op";
        }
        // Compare as multisets.
        ASSERT_EQ(dem.outcomes(ch).size(), expected.size())
            << "op " << ch.opIndex;
        for (const auto& o : dem.outcomes(ch)) {
            bool found = false;
            for (auto& e : expected) {
                if (e.first == asVector(dem.detectors(o))
                    && e.second == o.observables) {
                    found = true;
                    e.second = 0xffffffff; // consume
                    e.first.clear();
                    break;
                }
            }
            EXPECT_TRUE(found) << "op " << ch.opIndex;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Setups, DemForwardBackward,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1)));

TEST(Dem, FaultMassMatchesCircuitNoise)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Natural, 2e-3);
    GeneratedCircuit gen = generateNaturalMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    // Fault mass <= raw noise mass (invisible outcomes are dropped).
    EXPECT_LE(dem.totalFaultMass(),
              gen.circuit.totalNoiseMass() + 1e-9);
    EXPECT_GT(dem.totalFaultMass(), 0.0);
}

TEST(Sampler, MatchesFrameSimulatorStatistically)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Baseline2D, 8e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    FrameSimulator frame(gen.circuit);

    const int trials = 6000;
    Rng rngA(42);
    Rng rngB(43);
    double sumA = 0.0;
    double sumB = 0.0;
    int obsA = 0;
    int obsB = 0;
    BitVec det(dem.numDetectors());
    uint32_t obsMask = 0;
    for (int i = 0; i < trials; ++i) {
        sampler.sampleInto(rngA, det, obsMask);
        sumA += static_cast<double>(det.popcount());
        obsA += (obsMask & 1u) ? 1 : 0;
        BitVec flips = frame.sampleMeasurementFlips(rngB);
        BitVec det2 = FrameSimulator::detectorFlips(gen.circuit, flips);
        sumB += static_cast<double>(det2.popcount());
        obsB += (FrameSimulator::observableFlips(gen.circuit, flips) & 1u)
            ? 1 : 0;
    }
    double meanA = sumA / trials;
    double meanB = sumB / trials;
    EXPECT_NEAR(meanA, meanB, 0.12 * std::max(meanA, meanB));
    EXPECT_NEAR(static_cast<double>(obsA) / trials,
                static_cast<double>(obsB) / trials, 0.02);
}

TEST(Dem, DetectorMetadataCarriesGeometry)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Baseline2D, 2e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    ASSERT_EQ(dem.detectorMeta().size(), dem.numDetectors());
    float maxT = 0.0f;
    for (const auto& meta : dem.detectorMeta()) {
        EXPECT_EQ(meta.basis, CheckBasis::Z);
        EXPECT_GE(meta.x, 0.0f);
        EXPECT_GE(meta.y, 0.0f);
        maxT = std::max(maxT, meta.t);
    }
    // Final (data-readout) detector layer is at t = rounds.
    EXPECT_EQ(maxT, 3.0f);
}

TEST(Dem, InterleavedXBasisBuilds)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Natural, 2e-3,
                                      ExtractionSchedule::Interleaved,
                                      CheckBasis::X);
    GeneratedCircuit gen = generateNaturalMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    EXPECT_GT(dem.numDetectors(), 0u);
    EXPECT_EQ(dem.numObservables(), 1u);
    for (const auto& meta : dem.detectorMeta())
        EXPECT_EQ(meta.basis, CheckBasis::X);
}

TEST(Dem, ChannelsOrderedByOpIndex)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Compact, 2e-3);
    GeneratedCircuit gen = generateCompactMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    for (size_t i = 1; i < dem.channels().size(); ++i)
        EXPECT_LE(dem.channels()[i - 1].opIndex,
                  dem.channels()[i].opIndex);
}

TEST(Dem, ExclusiveOutcomesSumExactlyInDecodingGraph)
{
    // One channel whose X and Y branches land on the same edge: the
    // branches are mutually exclusive, so the edge probability is the
    // plain sum 0.1 + 0.1 = 0.2 -- NOT the independent-flip combination
    // 0.1 + 0.1 - 2*0.1*0.1 = 0.18. Run at p >= 0.1 where the two
    // disagree by far more than rounding.
    Circuit c(1);
    c.reset(0);
    c.pauliChannel1(0, 0.1, 0.1, 0.05);
    uint32_t m = c.measureZ(0);
    Detector d;
    d.measurements = {m};
    c.addDetector(d);
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 1u);
    DecodingGraph g = DecodingGraph::build(dem);
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_NEAR(g.edges()[0].probability, 0.2, 1e-12);

    // Two INDEPENDENT channels with the same signature keep the XOR
    // rule: either flips alone, both cancel.
    Circuit c2(1);
    c2.reset(0);
    c2.xError(0, 0.1);
    c2.xError(0, 0.1);
    uint32_t m2 = c2.measureZ(0);
    Detector d2;
    d2.measurements = {m2};
    c2.addDetector(d2);
    DetectorErrorModel dem2 = DetectorErrorModel::build(c2);
    ASSERT_EQ(dem2.channels().size(), 2u);
    DecodingGraph g2 = DecodingGraph::build(dem2);
    ASSERT_EQ(g2.edges().size(), 1u);
    EXPECT_NEAR(g2.edges()[0].probability,
                0.1 + 0.1 - 2 * 0.1 * 0.1, 1e-12);
}

TEST(Dem, ZeroProbabilityNoiseEmitsNothing)
{
    // pReset = 0 (the atPhysicalRate default) must suppress the
    // reset-flip ops entirely: fewer circuit ops, strictly fewer DEM
    // channels than the same config with reset noise on, and never a
    // zero-probability outcome anywhere.
    GeneratorConfig cfg0 = smallConfig(EmbeddingKind::Baseline2D, 2e-3);
    ASSERT_EQ(cfg0.noise.pReset, 0.0);
    GeneratedCircuit without = generateBaselineMemory(cfg0);
    GeneratorConfig cfg = cfg0;
    cfg.noise.pReset = 2e-3;
    GeneratedCircuit with = generateBaselineMemory(cfg);
    EXPECT_LT(without.circuit.ops().size(), with.circuit.ops().size());

    DetectorErrorModel demWith = DetectorErrorModel::build(with.circuit);
    DetectorErrorModel demWithout =
        DetectorErrorModel::build(without.circuit);
    EXPECT_LT(demWithout.channels().size(), demWith.channels().size());
    for (const auto& ch : demWithout.channels())
        for (const auto& o : demWithout.outcomes(ch))
            EXPECT_GT(o.probability, 0.0);
}

/** FNV-1a over a stream of 64-bit words. */
struct Fnv64
{
    uint64_t h = 0xcbf29ce484222325ULL;
    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    void add(double v) { add(std::bit_cast<uint64_t>(v)); }
};

uint64_t
demFingerprint(const DetectorErrorModel& dem)
{
    Fnv64 f;
    f.add(uint64_t{dem.channels().size()});
    for (const auto& ch : dem.channels()) {
        f.add(uint64_t{ch.opIndex});
        f.add(uint64_t{ch.heralded});
        f.add(static_cast<uint64_t>(static_cast<int64_t>(ch.erasureSite)));
        f.add(uint64_t{dem.outcomes(ch).size()});
        for (const auto& o : dem.outcomes(ch)) {
            f.add(o.probability);
            f.add(uint64_t{o.observables});
            f.add(uint64_t{dem.detectors(o).size()});
            for (uint32_t d : dem.detectors(o))
                f.add(uint64_t{d});
        }
    }
    return f.h;
}

uint64_t
graphFingerprint(const DecodingGraph& g)
{
    Fnv64 f;
    f.add(uint64_t{g.edges().size()});
    for (const auto& e : g.edges()) {
        f.add(uint64_t{e.a});
        f.add(uint64_t{e.b});
        f.add(e.probability);
        f.add(uint64_t{e.observables});
        f.add(e.weight);
    }
    return f.h;
}

/**
 * Determinism pin: the DEM (channel order, outcome order, detectors,
 * probability bits, erasure numbering) and the decoding graph (edge
 * insertion order, probabilities, weights) are a pure function of the
 * circuit. Any change to either hash changes seeded Monte-Carlo counts,
 * so a refactor of the DEM or graph builders must leave every value
 * below untouched.
 */
TEST(DemFingerprint, PinnedAcrossPaperSetupsAndNoiseSources)
{
    struct Case
    {
        const char* name;
        int setup;     // paperSetups() index, -1: biased + erasure noise
        int distance;
        CheckBasis basis;
        uint64_t dem;
        uint64_t graph;
    };
    const Case cases[] = {
        {"setup0 d=3 Z", 0, 3, CheckBasis::Z, 0xbc3a6c254333ecd4ULL,
         0x66a4906a26196d5fULL},
        {"setup0 d=3 X", 0, 3, CheckBasis::X, 0xb833cff4c4526e34ULL,
         0x04cc99068409e834ULL},
        {"setup0 d=5 Z", 0, 5, CheckBasis::Z, 0xd4f83d6a29ac9670ULL,
         0x4350b17f9ca167b4ULL},
        {"setup0 d=5 X", 0, 5, CheckBasis::X, 0x63dc7d075c83b960ULL,
         0xf4199d7844da1684ULL},
        {"setup1 d=3 Z", 1, 3, CheckBasis::Z, 0x340c5d05d2e89cc9ULL,
         0x0095b2804ef62eb4ULL},
        {"setup1 d=3 X", 1, 3, CheckBasis::X, 0x532592fe1268461aULL,
         0xf7e6688e131a9f10ULL},
        {"setup1 d=5 Z", 1, 5, CheckBasis::Z, 0xe3d71081b133f49aULL,
         0xbc59760427b2315cULL},
        {"setup1 d=5 X", 1, 5, CheckBasis::X, 0x080b4d3d5b422c7dULL,
         0x6370841c2957d7e7ULL},
        {"setup2 d=3 Z", 2, 3, CheckBasis::Z, 0x033e5dfcf315431fULL,
         0x0b1a921a06cad3eaULL},
        {"setup2 d=3 X", 2, 3, CheckBasis::X, 0x7c925b4ae207fa08ULL,
         0x507d251dbe0e3a7dULL},
        {"setup2 d=5 Z", 2, 5, CheckBasis::Z, 0x988e5161a1e94b1aULL,
         0x8b15f1c3d2dfc4caULL},
        {"setup2 d=5 X", 2, 5, CheckBasis::X, 0x31d13ba0afaa0f10ULL,
         0x7f72e11c8e1e202aULL},
        {"setup3 d=3 Z", 3, 3, CheckBasis::Z, 0x87538be7e7b53021ULL,
         0x3eb646ad96de3883ULL},
        {"setup3 d=3 X", 3, 3, CheckBasis::X, 0xeb159e885bdf37eeULL,
         0x293324312384506dULL},
        {"setup3 d=5 Z", 3, 5, CheckBasis::Z, 0xba538a052dfda997ULL,
         0x877654cbca827451ULL},
        {"setup3 d=5 X", 3, 5, CheckBasis::X, 0xe5a1b60dee02d5fbULL,
         0xcf321334548d0eb1ULL},
        {"setup4 d=3 Z", 4, 3, CheckBasis::Z, 0xefd74a2c3ca9f258ULL,
         0x9768f840b067c9a3ULL},
        {"setup4 d=3 X", 4, 3, CheckBasis::X, 0xa864e012839ee4d5ULL,
         0xc90d1ff9f108239eULL},
        {"setup4 d=5 Z", 4, 5, CheckBasis::Z, 0x8b97ef42ddca071dULL,
         0x8423ea0dd4a6c586ULL},
        {"setup4 d=5 X", 4, 5, CheckBasis::X, 0xdfc30127c896e227ULL,
         0x8138a5f8e1ca59d1ULL},
        {"bias10+erasure0.5 d=3 Z", -1, 3, CheckBasis::Z,
         0x035c656a5f820f8fULL, 0xf995ce40affc1d88ULL},
    };
    for (const Case& c : cases) {
        GeneratorConfig cfg;
        cfg.distance = c.distance;
        cfg.memoryBasis = c.basis;
        cfg.cavityDepth = 10;
        cfg.noise = NoiseModel::atPhysicalRate(
            2e-3, HardwareParams::transmonsWithMemory());
        EmbeddingKind emb = EmbeddingKind::Baseline2D;
        if (c.setup >= 0) {
            const EvaluationSetup setup =
                paperSetups()[static_cast<size_t>(c.setup)];
            emb = setup.embedding;
            cfg.schedule = setup.schedule;
        } else {
            cfg.noise.bias.rZ = 10.0;
            cfg.noise.erasure.fraction = 0.5;
        }
        GeneratedCircuit gen = generateMemoryCircuit(emb, cfg);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        DecodingGraph g = DecodingGraph::build(dem);
        const uint64_t demHash = demFingerprint(dem);
        const uint64_t graphHash = graphFingerprint(g);
        EXPECT_EQ(demHash, c.dem) << c.name;
        EXPECT_EQ(graphHash, c.graph) << c.name;
        if (c.setup < 0) {
            // The noise case must exercise the heralded and biased
            // emission paths, or it pins nothing they produce.
            EXPECT_GT(dem.numErasureSites(), 0u);
            bool biased = false;
            for (const auto& ch : dem.channels())
                biased = biased
                    || gen.circuit.ops()[ch.opIndex].code
                        == OpCode::PAULI_CHANNEL_1;
            EXPECT_TRUE(biased);
        }
    }
}

TEST(Sampler, ZeroNoiseSamplesNothing)
{
    GeneratorConfig cfg = smallConfig(EmbeddingKind::Compact, 0.0);
    cfg.noise.idleScale = 0.0;
    GeneratedCircuit gen = generateCompactMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    Rng rng(1);
    auto shot = sampler.sample(rng);
    EXPECT_TRUE(shot.detectors.none());
    EXPECT_EQ(shot.observables, 0u);
}

} // namespace
} // namespace vlq
