#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/generator_common.h"
#include "decoder/blossom.h"
#include "decoder/decoding_graph.h"
#include "decoder/matching_graph.h"
#include "decoder/mwpm_decoder.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "mc/memory_experiment.h"
#include "sim/frame.h"
#include "util/rng.h"

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

TEST(MatchingGraphTest, RejectsObservableBitsAboveSeven)
{
    // Path observables are one byte per node pair: an edge flipping
    // observable 8 must fail loudly instead of decoding without it.
    DecodingGraph g(2);
    g.addContribution(0, 1, 0.01, 1u << 8);
    g.addContribution(0, g.boundaryNode(), 0.01, 0);
    g.addContribution(1, g.boundaryNode(), 0.01, 0);
    g.finalize();
    EXPECT_DEATH(MatchingGraph::build(g), "observables 0-7");
}

TEST(MatchingGraphTest, KeepsObservableBitSeven)
{
    DecodingGraph g(2);
    g.addContribution(0, 1, 0.01, 1u << 7);
    g.addContribution(1, g.boundaryNode(), 0.02, 1u << 7);
    g.finalize();
    MatchingGraph m = MatchingGraph::build(g);
    EXPECT_EQ(m.pathObservables(0, 1), 1u << 7);
    EXPECT_EQ(m.boundaryObservables(0), 0u);
    EXPECT_EQ(m.boundaryObservables(1), 1u << 7);
}

// ---------------------------------------------------------------------------
// Component-split MWPM against the textbook boundary-copy formulation
// ---------------------------------------------------------------------------

struct ReferenceMatch
{
    uint32_t observables = 0;
    double weight = 0.0;
};

/**
 * The textbook MWPM formulation, kept here as the reference: one
 * blossom instance per shot on 2m vertices, every event plus a private
 * boundary copy, copies joined pairwise at zero weight.
 */
ReferenceMatch
referenceMatch(const MatchingGraph& g, const std::vector<uint32_t>& events)
{
    const int m = static_cast<int>(events.size());
    ReferenceMatch r;
    if (m == 0)
        return r;
    auto ev = [&](int i) { return events[static_cast<size_t>(i)]; };
    std::vector<MatchEdge> edges;
    for (int i = 0; i < m; ++i) {
        for (int j = i + 1; j < m; ++j) {
            double w = g.distance(ev(i), ev(j));
            if (std::isfinite(w))
                edges.push_back(MatchEdge{i, j, w});
        }
        double wb = g.boundaryDistance(ev(i));
        if (std::isfinite(wb))
            edges.push_back(MatchEdge{i, m + i, wb});
        for (int j = i + 1; j < m; ++j)
            edges.push_back(MatchEdge{m + i, m + j, 0.0});
    }
    std::vector<int> mate = minWeightPerfectMatching(2 * m, edges);
    for (int i = 0; i < m; ++i) {
        int j = mate[static_cast<size_t>(i)];
        if (j == m + i) {
            r.observables ^= g.boundaryObservables(ev(i));
            r.weight += g.boundaryDistance(ev(i));
        } else if (j > i && j < m) {
            r.observables ^= g.pathObservables(ev(i), ev(j));
            r.weight += g.distance(ev(i), ev(j));
        }
    }
    return r;
}

/**
 * Decode `events` both ways and require the same prediction and the
 * same matching weight. The blossom rounds weights to a 2^-20 grid,
 * while float distances below 8 are finer than that grid, so two
 * optimal matchings may differ by sub-grid amounts: allow one grid step
 * per event.
 */
void
expectMatchesReference(const MwpmDecoder& decoder,
                       const std::vector<uint32_t>& events,
                       const std::string& where)
{
    double weight = -1.0;
    uint32_t predicted = decoder.matchEvents(events, &weight);
    ReferenceMatch ref = referenceMatch(decoder.graph(), events);
    EXPECT_EQ(predicted, ref.observables) << where;
    EXPECT_NEAR(weight, ref.weight,
                static_cast<double>(events.size()) / (1 << 20))
        << where;
}

GeneratedCircuit
paperSetupCircuit(int setup, int d, double p, CheckBasis basis)
{
    EvaluationSetup es = paperSetups()[static_cast<size_t>(setup)];
    return generateMemoryCircuit(es.embedding,
                                 configFor(d, p, es.schedule, basis));
}

TEST(MwpmDifferentialTest, SampledShotsMatchBoundaryCopyReference)
{
    // Baseline (setup 0) and Compact-Interleaved (setup 4) at the
    // benchmark's higher rate, where multi-event components are common.
    const int shots = 300;
    for (int setup : {0, 4}) {
        for (int d : {5, 7}) {
            for (CheckBasis basis : {CheckBasis::Z, CheckBasis::X}) {
                GeneratedCircuit gen =
                    paperSetupCircuit(setup, d, 4e-3, basis);
                DetectorErrorModel dem =
                    DetectorErrorModel::build(gen.circuit);
                FaultSampler sampler(dem);
                MwpmDecoder decoder(dem);
                Rng root(0xd1ffu + static_cast<uint64_t>(setup * 16 + d));
                BitVec det(dem.numDetectors());
                uint32_t obs = 0;
                size_t maxEvents = 0;
                for (int i = 0; i < shots; ++i) {
                    Rng rng = root.split(static_cast<uint64_t>(i));
                    sampler.sampleInto(rng, det, obs);
                    std::vector<uint32_t> events = det.onesIndices();
                    maxEvents = std::max(maxEvents, events.size());
                    expectMatchesReference(
                        decoder, events,
                        "setup " + std::to_string(setup) + " d "
                            + std::to_string(d) + " basis "
                            + std::to_string(static_cast<int>(basis))
                            + " shot " + std::to_string(i));
                }
                EXPECT_GE(maxEvents, 8u) << "setup " << setup << " d " << d;
            }
        }
    }
}

TEST(MwpmDifferentialTest, AllSingleAndPairFaultsOnCompactInterleaved)
{
    // Exhaustive one- and two-fault injections at d=3 on setup 4:
    // single faults must be corrected, and every pair must match the
    // reference.
    for (CheckBasis basis : {CheckBasis::Z, CheckBasis::X}) {
        GeneratedCircuit gen = paperSetupCircuit(4, 3, 2e-3, basis);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        MwpmDecoder decoder(dem);
        const auto& chs = dem.channels();
        BitVec det(dem.numDetectors());
        int singles = 0;
        for (const auto& ch : chs) {
            for (const auto& o : dem.outcomes(ch)) {
                det.clear();
                for (uint32_t d : dem.detectors(o))
                    det.flip(d);
                EXPECT_EQ(decoder.decode(det), o.observables)
                    << "op " << ch.opIndex;
                expectMatchesReference(decoder, det.onesIndices(),
                                       "op " + std::to_string(ch.opIndex));
                ++singles;
            }
        }
        int pairs = 0;
        for (size_t i = 0; i < chs.size(); ++i) {
            const auto& oi = dem.outcomes(chs[i]).front();
            for (size_t j = i + 1; j < chs.size(); ++j) {
                const auto& oj = dem.outcomes(chs[j]).front();
                det.clear();
                for (uint32_t d : dem.detectors(oi))
                    det.flip(d);
                for (uint32_t d : dem.detectors(oj))
                    det.flip(d);
                expectMatchesReference(decoder, det.onesIndices(),
                                       "pair " + std::to_string(i) + ","
                                           + std::to_string(j));
                ++pairs;
            }
        }
        EXPECT_GT(singles, 100);
        EXPECT_GT(pairs, 10000);
    }
}

/**
 * A line of detectors: qubit k's measurement feeds detectors k-1 and k
 * (those that exist), so an X fault on qubit k (probability
 * weights[k] as an edge weight ln((1-p)/p), none when 0) is the edge
 * between them; the end qubits give boundary edges. The observable is
 * qubit `obsQubit`'s measurement.
 */
DetectorErrorModel
lineModel(const std::vector<double>& weights, uint32_t obsQubit)
{
    const auto n = static_cast<uint32_t>(weights.size());
    Circuit c(n);
    for (uint32_t q = 0; q < n; ++q)
        if (weights[q] > 0)
            c.xError(q, 1.0 / (1.0 + std::exp(weights[q])));
    std::vector<uint32_t> meas;
    for (uint32_t q = 0; q < n; ++q)
        meas.push_back(c.measureZ(q));
    for (uint32_t k = 0; k + 1 < n; ++k) {
        Detector d;
        d.measurements = {meas[k], meas[k + 1]};
        c.addDetector(d);
    }
    c.observableInclude(c.addObservable(), meas[obsQubit]);
    return DetectorErrorModel::build(c);
}

TEST(MwpmDecoderTest, EvenComponentSendsTwoEventsToTheBoundary)
{
    // Boundary 1 | D0 -5- D1 -1- D2 -5- D3 | boundary 1, observable on
    // the left boundary edge. All four events form one component with
    // no boundary vertex, and the optimum (weight 3) pairs D1-D2 and
    // sends D0 and D3 to the boundary: the D0-D3 pair, whose shortest
    // path runs through the boundary, carrying the left edge's flip.
    MwpmDecoder decoder(lineModel({1, 5, 1, 5, 1}, 0));
    double weight = 0.0;
    EXPECT_EQ(decoder.matchEvents({0, 1, 2, 3}, &weight), 1u);
    EXPECT_NEAR(weight, 3.0, 1e-5);
    expectMatchesReference(decoder, {0, 1, 2, 3}, "line");
}

/** Detectors 0 - 1 - 2 in a chain with no boundary edge at all. */
DetectorErrorModel
boundarylessChain()
{
    return lineModel({0, std::log(99.0), std::log(49.0), 0}, 1);
}

TEST(MwpmDecoderTest, EvenComponentWithoutBoundaryMatchesPairs)
{
    MwpmDecoder decoder(boundarylessChain());
    double weight = 0.0;
    EXPECT_EQ(decoder.matchEvents({0, 2}, &weight), 1u);
    EXPECT_NEAR(weight, std::log(99.0) + std::log(49.0), 1e-5);
    EXPECT_EQ(decoder.matchEvents({1, 2}), 0u);
}

TEST(MwpmDecoderTest, OddComponentWithoutBoundaryDies)
{
    // Neither a lone event nor an odd component of three may quietly
    // decode to "no correction" when nothing reaches the boundary.
    MwpmDecoder decoder(boundarylessChain());
    EXPECT_DEATH(decoder.matchEvents({1}), "no perfect matching");
    EXPECT_DEATH(decoder.matchEvents({0, 1, 2}), "no perfect matching");
}

} // namespace
} // namespace vlq
