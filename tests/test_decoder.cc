#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/generator_common.h"
#include "decoder/blossom.h"
#include "decoder/decoding_graph.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/shortest_paths.h"
#include "decoder/union_find.h"
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
    ShortestPaths g(DecodingGraph::build(dem));
    EXPECT_EQ(g.numDetectors(), dem.numDetectors());
    EXPECT_GT(g.graph().edges().size(), 0u);
    // Every detector should reach the boundary.
    for (uint32_t i = 0; i < g.numDetectors(); ++i)
        EXPECT_TRUE(std::isfinite(matchingBoundary(g, i).weight)) << i;
}

TEST(MatchingGraphTest, DistanceIsMetricLike)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    ShortestPaths g(DecodingGraph::build(dem));
    auto distance = [&](uint32_t a, uint32_t b) {
        return matchingPair(g, a, b).weight;
    };
    for (uint32_t a = 0; a < g.numDetectors(); ++a) {
        EXPECT_EQ(distance(a, a), 0.0f);
        for (uint32_t b = a + 1; b < std::min(g.numDetectors(), a + 5);
             ++b) {
            EXPECT_FLOAT_EQ(distance(a, b), distance(b, a));
            EXPECT_GT(distance(a, b), 0.0);
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
    ShortestPaths g(DecodingGraph::build(dem));
    EXPECT_EQ(g.graph().stats().forcedPairings, 0u);
    for (uint32_t i = 0; i < g.numDetectors(); ++i)
        EXPECT_TRUE(std::isfinite(matchingBoundary(g, i).weight));
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
        DecodingGraph g = DecodingGraph::build(dem);
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

TEST(MatchingGraphTest, KeepsObservableBitSeven)
{
    DecodingGraph g(2);
    g.addContribution(0, 1, 0.01, 1u << 7);
    g.addContribution(1, g.boundaryNode(), 0.02, 1u << 7);
    g.finalize();
    ShortestPaths m(std::move(g));
    EXPECT_EQ(matchingPair(m, 0, 1).observables, 1u << 7);
    EXPECT_EQ(matchingBoundary(m, 0).observables, 0u);
    EXPECT_EQ(matchingBoundary(m, 1).observables, 1u << 7);
}

TEST(MatchingGraphTest, KeepsObservableBitsAboveSeven)
{
    // Detectors D0 = m0 and D1 = m0 ^ m1; observable 8 reads m0 and
    // observable 31 reads m1. An X on q0 is the edge D0-D1 flipping
    // observable 8, an X on q1 the edge D1-boundary flipping 31.
    Circuit c(2);
    c.xError(0, 0.01);
    c.xError(1, 0.02);
    uint32_t m0 = c.measureZ(0);
    uint32_t m1 = c.measureZ(1);
    for (const std::vector<uint32_t>& ms :
         {std::vector<uint32_t>{m0}, std::vector<uint32_t>{m0, m1}}) {
        Detector d;
        d.measurements = ms;
        c.addDetector(d);
    }
    for (uint32_t o = 0; o < 32; ++o)
        c.addObservable();
    c.observableInclude(8, m0);
    c.observableInclude(31, m1);
    DetectorErrorModel dem = DetectorErrorModel::build(c);
    ASSERT_EQ(dem.numObservables(), 32u);

    const MwpmDecoder mwpm(dem);
    const UnionFindDecoder uf(dem);
    for (const Decoder* decoder :
         {static_cast<const Decoder*>(&mwpm),
          static_cast<const Decoder*>(&uf)}) {
        BitVec det(2);
        det.set(0, true);
        det.set(1, true);
        EXPECT_EQ(decoder->decode(det), 1u << 8);
        det.set(1, false);
        EXPECT_EQ(decoder->decode(det), (1u << 8) | (1u << 31));
        det.set(0, false);
        det.set(1, true);
        EXPECT_EQ(decoder->decode(det), 1u << 31);
    }
}

// ---------------------------------------------------------------------------
// The shared shortest-path oracle
// ---------------------------------------------------------------------------

DecodingGraph
paperSetupGraph(int setup, int d)
{
    EvaluationSetup es = paperSetups()[static_cast<size_t>(setup)];
    GeneratedCircuit gen = generateMemoryCircuit(
        es.embedding, configFor(d, 4e-3, es.schedule));
    return DecodingGraph::build(DetectorErrorModel::build(gen.circuit));
}

/** Every pair of `paths`, read as (u, v) with u < v, row-major. */
std::vector<ShortestPath>
allPairs(const ShortestPaths& paths)
{
    const size_t n = paths.numDetectors();
    std::vector<ShortestPath> out;
    out.reserve(n * (n - 1) / 2);
    for (uint32_t u = 0; u < paths.numDetectors(); ++u)
        for (uint32_t v = u + 1; v < paths.numDetectors(); ++v)
            out.push_back(paths.pair(u, v));
    return out;
}

TEST(ShortestPathsTest, PairsAreSymmetricAndIndependentOfFillOrder)
{
    for (int setup : {0, 4}) {
        const DecodingGraph graph = paperSetupGraph(setup, 5);
        const uint32_t n = graph.numDetectors();

        // Forward: row u filled by the first query from u.
        ShortestPaths forward(graph);
        const std::vector<ShortestPath> expected = allPairs(forward);

        // Reverse: every query names the larger detector first, and
        // the last rows fill first.
        ShortestPaths reverse(graph);
        for (uint32_t v = n; v-- > 0;)
            for (uint32_t u = v; u-- > 0;)
                reverse.pair(v, u);

        // Another thread fills every other row, from the far end.
        ShortestPaths threaded(graph);
        std::thread filler([&] {
            for (uint32_t u = n; u-- > 0;)
                if (u % 2 == 1 && u + 1 < n)
                    threaded.pair(n - 1, u);
        });
        filler.join();

        size_t at = 0;
        for (uint32_t u = 0; u < n; ++u) {
            for (uint32_t v = u + 1; v < n; ++v, ++at) {
                for (const ShortestPaths* other : {&reverse, &threaded}) {
                    const ShortestPath uv = other->pair(u, v);
                    const ShortestPath vu = other->pair(v, u);
                    EXPECT_EQ(std::bit_cast<uint64_t>(uv.weight),
                              std::bit_cast<uint64_t>(vu.weight));
                    EXPECT_EQ(std::bit_cast<uint64_t>(uv.weight),
                              std::bit_cast<uint64_t>(expected[at].weight))
                        << "setup " << setup << " (" << u << "," << v
                        << ")";
                    EXPECT_EQ(uv.observables, vu.observables);
                    EXPECT_EQ(uv.observables, expected[at].observables);
                }
            }
        }
    }
}

/**
 * Independent distances: Floyd-Warshall over the detectors alone for
 * the bulk pairs (the oracle's pair paths never enter the boundary),
 * and over all nodes for the boundary column.
 */
TEST(ShortestPathsTest, MatchesFloydWarshall)
{
    for (int d : {3, 5}) {
        const DecodingGraph graph = paperSetupGraph(0, d);
        const ShortestPaths paths(graph);
        const uint32_t n = graph.numNodes();
        const uint32_t boundary = graph.boundaryNode();
        constexpr double kInf = std::numeric_limits<double>::infinity();

        auto floydWarshall = [&](uint32_t nodes,
                                 std::vector<double>& dist,
                                 std::vector<uint32_t>& obs) {
            dist.assign(static_cast<size_t>(nodes) * nodes, kInf);
            obs.assign(static_cast<size_t>(nodes) * nodes, 0);
            for (uint32_t i = 0; i < nodes; ++i)
                dist[i * nodes + i] = 0.0;
            for (const DecodingEdge& e : graph.edges()) {
                if (e.b >= nodes)
                    continue;
                for (auto [x, y] : {std::pair(e.a, e.b),
                                    std::pair(e.b, e.a)}) {
                    dist[x * nodes + y] = e.weight;
                    obs[x * nodes + y] = e.observables;
                }
            }
            for (uint32_t k = 0; k < nodes; ++k)
                for (uint32_t i = 0; i < nodes; ++i)
                    for (uint32_t j = 0; j < nodes; ++j) {
                        double via = dist[i * nodes + k]
                            + dist[k * nodes + j];
                        if (via < dist[i * nodes + j]) {
                            dist[i * nodes + j] = via;
                            obs[i * nodes + j] = obs[i * nodes + k]
                                ^ obs[k * nodes + j];
                        }
                    }
        };
        std::vector<double> bulk, full;
        std::vector<uint32_t> bulkObs, fullObs;
        floydWarshall(boundary, bulk, bulkObs);
        floydWarshall(n, full, fullObs);

        for (uint32_t u = 0; u < boundary; ++u) {
            const ShortestPath b = paths.boundary(u);
            EXPECT_NEAR(b.weight, full[u * n + boundary], 1e-9) << u;
            EXPECT_EQ(b.observables, fullObs[u * n + boundary]) << u;
            for (uint32_t v = 0; v < boundary; ++v) {
                const ShortestPath p = paths.pair(u, v);
                EXPECT_NEAR(p.weight, bulk[u * boundary + v], 1e-9)
                    << "d " << d << " (" << u << "," << v << ")";
                EXPECT_EQ(p.observables, bulkObs[u * boundary + v])
                    << "d " << d << " (" << u << "," << v << ")";
            }
        }
    }
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
referenceMatch(const ShortestPaths& g, const std::vector<uint32_t>& events)
{
    const int m = static_cast<int>(events.size());
    ReferenceMatch r;
    if (m == 0)
        return r;
    auto ev = [&](int i) { return events[static_cast<size_t>(i)]; };
    std::vector<MatchEdge> edges;
    for (int i = 0; i < m; ++i) {
        for (int j = i + 1; j < m; ++j) {
            double w = matchingPair(g, ev(i), ev(j)).weight;
            if (std::isfinite(w))
                edges.push_back(MatchEdge{i, j, w});
        }
        double wb = matchingBoundary(g, ev(i)).weight;
        if (std::isfinite(wb))
            edges.push_back(MatchEdge{i, m + i, wb});
        for (int j = i + 1; j < m; ++j)
            edges.push_back(MatchEdge{m + i, m + j, 0.0});
    }
    std::vector<int> mate = minWeightPerfectMatching(2 * m, edges);
    for (int i = 0; i < m; ++i) {
        int j = mate[static_cast<size_t>(i)];
        if (j == m + i) {
            r.observables ^= matchingBoundary(g, ev(i)).observables;
            r.weight += matchingBoundary(g, ev(i)).weight;
        } else if (j > i && j < m) {
            r.observables ^= matchingPair(g, ev(i), ev(j)).observables;
            r.weight += matchingPair(g, ev(i), ev(j)).weight;
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
    uint32_t predicted = matchEvents(decoder.paths(), events, &weight);
    ReferenceMatch ref = referenceMatch(decoder.paths(), events);
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
    EXPECT_EQ(matchEvents(decoder.paths(), {0, 1, 2, 3}, &weight), 1u);
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
    EXPECT_EQ(matchEvents(decoder.paths(), {0, 2}, &weight), 1u);
    EXPECT_NEAR(weight, std::log(99.0) + std::log(49.0), 1e-5);
    EXPECT_EQ(matchEvents(decoder.paths(), {1, 2}), 0u);
}

TEST(MwpmDecoderTest, OddComponentWithoutBoundaryDies)
{
    // Neither a lone event nor an odd component of three may quietly
    // decode to "no correction" when nothing reaches the boundary.
    MwpmDecoder decoder(boundarylessChain());
    EXPECT_DEATH(matchEvents(decoder.paths(), {1}),
                 "no perfect matching");
    EXPECT_DEATH(matchEvents(decoder.paths(), {0, 1, 2}),
                 "no perfect matching");
}

TEST(MwpmDecoderTest, RejectsUnsortedEvents)
{
    // Pairs are read from row min(u, v) = events[i] of the oracle, so
    // the event list must ascend.
    MwpmDecoder decoder(lineModel({1, 5, 1, 5, 1}, 0));
    EXPECT_DEATH(matchEvents(decoder.paths(), {2, 0}),
                 "strictly ascending");
    EXPECT_DEATH(matchEvents(decoder.paths(), {1, 1}),
                 "strictly ascending");
}

} // namespace
} // namespace vlq
