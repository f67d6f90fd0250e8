#include <gtest/gtest.h>

#include <cmath>

#include "core/generator_common.h"
#include "decoder/decoding_graph.h"
#include "decoder/matching_graph.h"
#include "decoder/mwpm_decoder.h"
#include "dem/detector_model.h"
#include "sim/frame.h"

namespace vlq {
namespace {

GeneratorConfig
configFor(int d, double p, ExtractionSchedule sched,
          CheckBasis basis = CheckBasis::Z)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.memoryBasis = basis;
    cfg.schedule = sched;
    cfg.cavityDepth = 3;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

TEST(MatchingGraphTest, BuildsFromBaseline)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MatchingGraph g = MatchingGraph::build(dem);
    EXPECT_EQ(g.numNodes(), dem.numDetectors());
    EXPECT_GT(g.numEdges(), 0u);
    // Every detector should reach the boundary.
    for (uint32_t i = 0; i < g.numNodes(); ++i)
        EXPECT_TRUE(std::isfinite(g.boundaryDistance(i))) << i;
}

TEST(MatchingGraphTest, DistanceIsMetricLike)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MatchingGraph g = MatchingGraph::build(dem);
    for (uint32_t a = 0; a < g.numNodes(); ++a) {
        EXPECT_EQ(g.distance(a, a), 0.0f);
        for (uint32_t b = a + 1; b < std::min(g.numNodes(), a + 5); ++b) {
            EXPECT_FLOAT_EQ(g.distance(a, b), g.distance(b, a));
            EXPECT_GT(g.distance(a, b), 0.0);
        }
    }
}

/**
 * The defining property of a distance-d code with MWPM decoding: every
 * single fault outcome is corrected (no logical error from any one
 * fault). Run for every setup at d=3.
 */
class SingleFaultCorrection
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SingleFaultCorrection, EverySingleFaultIsCorrected)
{
    auto [embInt, schedInt, basisInt] = GetParam();
    EmbeddingKind emb = static_cast<EmbeddingKind>(embInt);
    GeneratorConfig cfg =
        configFor(3, 2e-3, static_cast<ExtractionSchedule>(schedInt),
                  static_cast<CheckBasis>(basisInt));
    GeneratedCircuit gen = generateMemoryCircuit(emb, cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder decoder(dem);

    int checked = 0;
    for (const auto& ch : dem.channels()) {
        for (const auto& o : dem.outcomes(ch)) {
            BitVec det(dem.numDetectors());
            for (uint32_t dIdx : dem.detectors(o))
                det.flip(dIdx);
            uint32_t predicted = decoder.decode(det);
            EXPECT_EQ(predicted, o.observables)
                << "channel at op " << ch.opIndex << " not corrected";
            ++checked;
        }
    }
    EXPECT_GT(checked, 100);
}

INSTANTIATE_TEST_SUITE_P(
    AllSetups, SingleFaultCorrection,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1),
                       ::testing::Values(0, 1)));

TEST(MwpmDecoderTest, EmptySyndromeNoCorrection)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder decoder(dem);
    BitVec det(dem.numDetectors());
    EXPECT_EQ(decoder.decode(det), 0u);
}

TEST(MwpmDecoderTest, TwoFaultsAtDistanceFive)
{
    // At d=5, any combination of two single faults must be corrected.
    GeneratorConfig cfg = configFor(5, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder decoder(dem);

    // Sample a subset of channel pairs (the full cross product is
    // large); stride through deterministically.
    const auto& chs = dem.channels();
    int checked = 0;
    for (size_t i = 0; i < chs.size(); i += 97) {
        for (size_t j = i + 1; j < chs.size(); j += 131) {
            const auto& oi = dem.outcomes(chs[i]).front();
            const auto& oj = dem.outcomes(chs[j]).front();
            BitVec det(dem.numDetectors());
            for (uint32_t d : dem.detectors(oi))
                det.flip(d);
            for (uint32_t d : dem.detectors(oj))
                det.flip(d);
            uint32_t truth = oi.observables ^ oj.observables;
            EXPECT_EQ(decoder.decode(det), truth)
                << "pair " << i << "," << j;
            ++checked;
        }
    }
    EXPECT_GT(checked, 50);
}

TEST(GreedyDecoderTest, CorrectsMostSingleFaults)
{
    // Greedy matching is the decoder-quality ablation: unlike exact
    // MWPM it may mispair even a single fault's two events when a
    // boundary edge looks locally cheaper, so we only require a high
    // correction fraction (MWPM is required to reach 100% above).
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    GreedyDecoder decoder(dem);
    int total = 0;
    int wrong = 0;
    for (const auto& ch : dem.channels()) {
        for (const auto& o : dem.outcomes(ch)) {
            BitVec det(dem.numDetectors());
            for (uint32_t dIdx : dem.detectors(o))
                det.flip(dIdx);
            if (decoder.decode(det) != o.observables)
                ++wrong;
            ++total;
        }
    }
    EXPECT_GT(total, 100);
    // Empirically greedy mispredicts ~28% of single faults at d=3
    // (boundary edges accumulate probability and look locally cheap);
    // the point of this test is that it is far from random (50%) while
    // MWPM achieves 0% -- the gap IS the ablation.
    EXPECT_LT(static_cast<double>(wrong) / total, 0.40)
        << wrong << "/" << total;
    EXPECT_GT(wrong, 0) << "greedy unexpectedly optimal";
}

TEST(MwpmDecoderTest, OddEventCountUsesBoundary)
{
    // A single boundary-adjacent fault fires one detector; the decoder
    // must match it to the boundary, not fail on odd parity.
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder decoder(dem);
    int oddCases = 0;
    for (const auto& ch : dem.channels()) {
        for (const auto& o : dem.outcomes(ch)) {
            if (dem.detectors(o).size() != 1)
                continue;
            BitVec det(dem.numDetectors());
            det.flip(dem.detectors(o)[0]);
            EXPECT_EQ(decoder.decode(det), o.observables);
            ++oddCases;
        }
    }
    EXPECT_GT(oddCases, 10);
}

TEST(MwpmDecoderTest, ThreeFaultsStillDecodedAtDistanceSeven)
{
    // d=7 corrects any 3 faults; sample triples deterministically.
    GeneratorConfig cfg = configFor(7, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder decoder(dem);
    const auto& chs = dem.channels();
    int checked = 0;
    for (size_t i = 0; i < chs.size(); i += 487) {
        for (size_t j = i + 151; j < chs.size(); j += 911) {
            for (size_t k = j + 77; k < chs.size(); k += 1303) {
                const auto& oi = dem.outcomes(chs[i]).front();
                const auto& oj = dem.outcomes(chs[j]).front();
                const auto& ok = dem.outcomes(chs[k]).front();
                BitVec det(dem.numDetectors());
                for (uint32_t d : dem.detectors(oi))
                    det.flip(d);
                for (uint32_t d : dem.detectors(oj))
                    det.flip(d);
                for (uint32_t d : dem.detectors(ok))
                    det.flip(d);
                uint32_t truth = oi.observables ^ oj.observables
                               ^ ok.observables;
                EXPECT_EQ(decoder.decode(det), truth)
                    << i << "," << j << "," << k;
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 20);
}

TEST(MatchingGraphTest, CompactGraphAlsoGraphlike)
{
    GeneratorConfig cfg = configFor(5, 2e-3,
                                    ExtractionSchedule::Interleaved);
    GeneratedCircuit gen = generateCompactMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MatchingGraph g = MatchingGraph::build(dem);
    EXPECT_EQ(g.stats().forcedPairings, 0u);
    for (uint32_t i = 0; i < g.numNodes(); ++i)
        EXPECT_TRUE(std::isfinite(g.boundaryDistance(i)));
}

TEST(MatchingGraphTest, FewForcedPairings)
{
    // The standard extraction circuits should produce an almost
    // perfectly graph-like error model.
    for (int embInt : {0, 1, 2}) {
        GeneratorConfig cfg = configFor(3, 2e-3,
                                        ExtractionSchedule::AllAtOnce);
        GeneratedCircuit gen = generateMemoryCircuit(
            static_cast<EmbeddingKind>(embInt), cfg);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        MatchingGraph g = MatchingGraph::build(dem);
        EXPECT_EQ(g.stats().forcedPairings, 0u)
            << "embedding " << embInt;
    }
}

TEST(MatchingGraphTest, ArbitraryPairingCountsAsForcedWithKnownBoundary)
{
    // One X fault flips detectors {0, 1, 2}. No two-detector outcome
    // exists, so (0, 1) is paired arbitrarily; the leftover 2 goes to
    // the boundary, which the m1 record flip already knows. The
    // decomposition is still forced: the known boundary edge must not
    // clear the flag the arbitrary pair raised.
    Circuit c(2);
    c.xError(0, 0.01);
    uint32_t m0 = c.measureZ(0);
    uint32_t m1 = c.measureZ(1, 0.02);
    for (const std::vector<uint32_t>& ms :
         {std::vector<uint32_t>{m0}, std::vector<uint32_t>{m0},
          std::vector<uint32_t>{m0, m1}}) {
        Detector d;
        d.measurements = ms;
        c.addDetector(d);
    }
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 2u);
    DecodingGraph g = DecodingGraph::build(dem);
    EXPECT_EQ(g.stats().forcedPairings, 1u);
    EXPECT_EQ(g.stats().decomposed, 0u);
}

TEST(MatchingGraphTest, CorrelatedOutcomeDecomposesIntoLaterKnownPairs)
{
    // An X fault flips detectors {0, 1, 2, 3}; the m1 and m2 record
    // flips, which come later in the circuit, flip {0, 1} and {2, 3}.
    // The correlated outcome splits into those two known edges (not a
    // forced pairing), and the edges keep first-contribution order.
    Circuit c(3);
    c.xError(0, 0.01);
    uint32_t m0 = c.measureZ(0);
    uint32_t m1 = c.measureZ(1, 0.02);
    uint32_t m2 = c.measureZ(2, 0.03);
    for (uint32_t m : {m1, m1, m2, m2}) {
        Detector d;
        d.measurements = {m0, m};
        c.addDetector(d);
    }
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.channels().size(), 3u);
    DecodingGraph g = DecodingGraph::build(dem);
    EXPECT_EQ(g.stats().decomposed, 1u);
    EXPECT_EQ(g.stats().forcedPairings, 0u);
    ASSERT_EQ(g.edges().size(), 2u);
    EXPECT_EQ(g.edges()[0].a, 0u);
    EXPECT_EQ(g.edges()[0].b, 1u);
    EXPECT_NEAR(g.edges()[0].probability, 0.01 + 0.02 - 2 * 0.01 * 0.02,
                1e-15);
    EXPECT_EQ(g.edges()[1].a, 2u);
    EXPECT_EQ(g.edges()[1].b, 3u);
    EXPECT_NEAR(g.edges()[1].probability, 0.01 + 0.03 - 2 * 0.01 * 0.03,
                1e-15);
}

} // namespace
} // namespace vlq
