#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/generator_common.h"
#include "decoder/decoder_factory.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/shortest_paths.h"
#include "decoder/union_find.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/memory_experiment.h"
#include "mc/monte_carlo.h"
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

/** Z-basis memory circuit of paper setup `setup` (Fig. 11 order). */
GeneratedCircuit
paperSetupCircuit(int setup, int d, double p)
{
    EvaluationSetup es = paperSetups()[static_cast<size_t>(setup)];
    return generateMemoryCircuit(es.embedding,
                                 configFor(d, p, es.schedule));
}

BitVec
syndromeOf(std::span<const uint32_t> detectors, uint32_t numDetectors)
{
    BitVec v(numDetectors);
    for (uint32_t d : detectors)
        v.flip(d);
    return v;
}

BitVec
syndromeOf(const std::vector<uint32_t>& detectors, uint32_t numDetectors)
{
    return syndromeOf(std::span<const uint32_t>(detectors), numDetectors);
}

/**
 * Enumerate every pairing of the events (event-event via shortest
 * paths, or event-boundary) and record its (weight, observable mask).
 * This is the exact search MWPM optimizes over, so it defines the
 * ground truth for "equal-weight correction" acceptance.
 */
void
enumeratePairings(const std::vector<uint32_t>& events,
                  const ShortestPaths& g, std::vector<bool>& used,
                  double w, uint32_t obs,
                  std::vector<std::pair<double, uint32_t>>& out)
{
    size_t i = 0;
    while (i < events.size() && used[i])
        ++i;
    if (i == events.size()) {
        out.push_back({w, obs});
        return;
    }
    used[i] = true;
    const ShortestPath b = matchingBoundary(g, events[i]);
    if (std::isfinite(b.weight))
        enumeratePairings(events, g, used, w + b.weight,
                          obs ^ b.observables, out);
    for (size_t j = i + 1; j < events.size(); ++j) {
        if (used[j])
            continue;
        const ShortestPath p = matchingPair(g, events[i], events[j]);
        if (!std::isfinite(p.weight))
            continue;
        used[j] = true;
        enumeratePairings(events, g, used, w + p.weight,
                          obs ^ p.observables, out);
        used[j] = false;
    }
    used[i] = false;
}

/**
 * Accept a union-find prediction when some pairing achieving it is
 * within `relTol` of the minimum pairing weight: either the decoders
 * agree, or the syndrome is (near-)degenerate and both corrections are
 * minimum-weight. The tolerance absorbs the UF weight quantization
 * (1/kGranularity per edge); genuinely wrong pairings differ by at
 * least one full edge weight and stay rejected.
 */
::testing::AssertionResult
ufPredictionIsMinWeight(uint32_t ufObs,
                        const std::vector<uint32_t>& events,
                        const ShortestPaths& g, double relTol = 0.05)
{
    std::vector<std::pair<double, uint32_t>> pairings;
    std::vector<bool> used(events.size(), false);
    enumeratePairings(events, g, used, 0.0, 0, pairings);
    if (pairings.empty())
        return ::testing::AssertionFailure() << "no pairing exists";
    double best = pairings[0].first;
    for (const auto& [w, o] : pairings)
        best = std::min(best, w);
    double bestForUf = -1.0;
    for (const auto& [w, o] : pairings)
        if (o == ufObs && (bestForUf < 0.0 || w < bestForUf))
            bestForUf = w;
    if (bestForUf < 0.0)
        return ::testing::AssertionFailure()
            << "no pairing yields uf obs " << ufObs;
    if (bestForUf > best * (1.0 + relTol) + 1e-9)
        return ::testing::AssertionFailure()
            << "uf obs " << ufObs << " costs " << bestForUf
            << " but optimum costs " << best;
    return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// DecodingGraph construction
// ---------------------------------------------------------------------------

TEST(DecodingGraphTest, HandBuiltAccumulation)
{
    DecodingGraph g(3);
    EXPECT_EQ(g.numDetectors(), 3u);
    EXPECT_EQ(g.numNodes(), 4u);
    EXPECT_EQ(g.boundaryNode(), 3u);

    g.addContribution(0, 1, 0.01, 5);
    g.addContribution(1, 0, 0.02, 7); // same edge, stronger, new obs
    g.addContribution(1, 2, 0.01, 0);
    g.addContribution(0, g.boundaryNode(), 0.03, 1);
    g.finalize();

    ASSERT_EQ(g.edges().size(), 3u);
    const DecodingEdge& e01 = g.edges()[0];
    EXPECT_EQ(e01.a, 0u);
    EXPECT_EQ(e01.b, 1u);
    EXPECT_NEAR(e01.probability, 0.01 + 0.02 - 2 * 0.01 * 0.02, 1e-12);
    EXPECT_EQ(e01.observables, 7u); // the stronger contribution wins
    EXPECT_EQ(g.stats().observableConflicts, 1u);

    EXPECT_EQ(g.incidentEdges(0).size(), 2u);
    EXPECT_EQ(g.incidentEdges(1).size(), 2u);
    EXPECT_EQ(g.incidentEdges(2).size(), 1u);
    EXPECT_EQ(g.incidentEdges(3).size(), 1u);
    EXPECT_EQ(g.otherEndpoint(0, 0u), 1u);
    EXPECT_EQ(g.otherEndpoint(0, 1u), 0u);

    // Weight = ln((1-p)/p); the boundary edge (p=0.03) is cheapest.
    double w03 = std::log((1.0 - 0.03) / 0.03);
    EXPECT_NEAR(g.minWeight(), w03, 1e-12);
}

TEST(DecodingGraphTest, DemBuildMatchesShortestPaths)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    DecodingGraph sparse = DecodingGraph::build(dem);
    ShortestPaths dense(sparse);

    EXPECT_EQ(sparse.numDetectors(), dem.numDetectors());
    EXPECT_GT(sparse.edges().size(), 0u);
    EXPECT_EQ(dense.graph().edges().size(), sparse.edges().size());
    EXPECT_EQ(dense.graph().stats().forcedPairings,
              sparse.stats().forcedPairings);

    // Every single edge is itself a shortest-path upper bound.
    for (const DecodingEdge& e : sparse.edges()) {
        double d = e.b == sparse.boundaryNode()
            ? matchingBoundary(dense, e.a).weight
            : matchingPair(dense, e.a, e.b).weight;
        EXPECT_LE(d, e.weight + 1e-5);
        EXPECT_GT(d, 0.0);
    }
}

// ---------------------------------------------------------------------------
// Union-find on hand-built graphs: growth, merging, peeling
// ---------------------------------------------------------------------------

/** Options forcing the growth+peel machinery (no exact fast path). */
UnionFindOptions
growthOnly()
{
    UnionFindOptions opt;
    opt.exactSyndromeThreshold = 0;
    return opt;
}

/**
 * Chain: B -(p=.03,obs 1)- 0 -(p=.01)- 1 -(p=.02,obs 2)- 2 -(p=.03)- B
 * Weights: 3.48 / 4.60 / 3.89 / 3.48.
 */
DecodingGraph
chainGraph()
{
    DecodingGraph g(3);
    g.addContribution(0, g.boundaryNode(), 0.03, 1);
    g.addContribution(0, 1, 0.01, 0);
    g.addContribution(1, 2, 0.02, 2);
    g.addContribution(2, g.boundaryNode(), 0.03, 0);
    g.finalize();
    return g;
}

TEST(UnionFindTest, EmptySyndromeNoCorrection)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    UnionFindDecoder::DecodeInfo info;
    EXPECT_EQ(uf.decode(BitVec(3), &info), 0u);
    EXPECT_EQ(info.growthRounds, 0u);
}

TEST(UnionFindTest, SingleDefectMatchesToNearestBoundary)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    EXPECT_EQ(uf.decode(syndromeOf({0}, 3)), 1u);
    EXPECT_EQ(uf.decode(syndromeOf({2}, 3)), 0u);
}

TEST(UnionFindTest, AdjacentDefectsMergeThroughDirectEdge)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    // 0-1 direct (4.60, grown from both ends) beats 0's boundary
    // (3.48, grown from one end only): the pair's mask is 0, while
    // sending both to the boundary would flip 1 ^ 2 = 3.
    EXPECT_EQ(uf.decode(syndromeOf({0, 1}, 3)), 0u);
    EXPECT_EQ(uf.decode(syndromeOf({1, 2}, 3)), 2u);
}

TEST(UnionFindTest, FarDefectsFreezeAtTheirBoundaries)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    // Boundary pairing (3.48 + 3.48, mask 1 ^ 0) beats the middle
    // path (8.49, mask 0 ^ 2): both clusters freeze on boundary
    // contact and resolve separately.
    EXPECT_EQ(uf.decode(syndromeOf({0, 2}, 3)), 1u);
}

TEST(UnionFindTest, MiddleDefectTakesCheaperBoundaryPath)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    // From 1: right path 3.89+3.48=7.37 beats left 4.60+3.48=8.07.
    EXPECT_EQ(uf.decode(syndromeOf({1}, 3)), 2u);
}

/**
 * Tree: 0 -(obs 1)- 1 -(obs 0)- 2, 1 -(obs 8)- 3 -(obs 4)- B,
 * uniform p=0.01. Exercises absorption of pristine vertices and
 * multi-edge peeling.
 */
DecodingGraph
treeGraph()
{
    DecodingGraph g(4);
    g.addContribution(0, 1, 0.01, 1);
    g.addContribution(1, 2, 0.01, 0);
    g.addContribution(1, 3, 0.01, 8);
    g.addContribution(3, g.boundaryNode(), 0.01, 4);
    g.finalize();
    return g;
}

TEST(UnionFindTest, ClustersGrowThroughPristineVertices)
{
    // treeGraph plus a boundary edge of 2's own (p = .005, obs 16).
    // On the bare tree both boundary paths share 1-3-B, so sending 0
    // and 2 to the boundary flips the same mask as pairing them; here
    // the answers differ: pair 0-1-2 is mask 1 (weight 9.19), the
    // boundary paths 0-1-3-B and 2-B are mask 13 ^ 16 = 29 (19.08).
    DecodingGraph g(4);
    g.addContribution(0, 1, 0.01, 1);
    g.addContribution(1, 2, 0.01, 0);
    g.addContribution(1, 3, 0.01, 8);
    g.addContribution(3, g.boundaryNode(), 0.01, 4);
    g.addContribution(2, g.boundaryNode(), 0.005, 16);
    g.finalize();
    UnionFindDecoder uf(g, growthOnly());
    UnionFindDecoder::DecodeInfo info;
    // Defects at 0 and 2 meet around vertex 1.
    EXPECT_EQ(uf.decode(syndromeOf({0, 2}, 4), &info), 1u);
    EXPECT_GT(info.growthRounds, 0u);
}

TEST(UnionFindTest, PeelingWalksWholeBoundaryPath)
{
    UnionFindDecoder uf(treeGraph(), growthOnly());
    // Lone defect at 0: only escape is 0-1-3-B, XOR 1^8^4 = 13.
    EXPECT_EQ(uf.decode(syndromeOf({0}, 4)), 13u);
}

TEST(UnionFindTest, EvenClusterOfFourResolvesInternally)
{
    UnionFindDecoder uf(treeGraph(), growthOnly());
    // All four defects: peeling pairs 0-1 and 2..3 along tree edges;
    // total correction is XOR of all tree edges used with odd defect
    // counts below them: 0-1 (obs 1), 1-2 (obs 0), 1-3 (obs 8)...
    // exact expectation: peel leaves 0,2,3: obs 1 ^ 0 ^ 8 = 9, leaving
    // vertex 1 defect-free (it absorbed three flips + its own).
    EXPECT_EQ(uf.decode(syndromeOf({0, 1, 2, 3}, 4)), 9u);
}

TEST(UnionFindTest, WeightQuantizationTracksRatios)
{
    UnionFindDecoder uf(chainGraph(), UnionFindOptions{});
    const auto& edges = uf.graph().edges();
    double minW = uf.graph().minWeight();
    for (uint32_t e = 0; e < edges.size(); ++e) {
        double exact = edges[e].weight / minW * 32.0;
        EXPECT_NEAR(uf.edgeCapacity(e), exact, 0.51) << "edge " << e;
    }
}

TEST(UnionFindTest, ExactSyndromeFastPathMatchesGrowthPath)
{
    // The default decoder short-circuits small syndromes into one
    // exact global matching; it must reproduce (or improve to an
    // equal-weight solution of) every hand-built growth-path answer.
    UnionFindDecoder grown(chainGraph(), growthOnly());
    UnionFindDecoder fast(chainGraph());
    for (const std::vector<uint32_t>& defects :
         std::vector<std::vector<uint32_t>>{
             {0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}) {
        BitVec det = syndromeOf(defects, 3);
        EXPECT_EQ(fast.decode(det), grown.decode(det))
            << "defect set size " << defects.size();
    }

    UnionFindDecoder grownTree(treeGraph(), growthOnly());
    UnionFindDecoder fastTree(treeGraph());
    EXPECT_EQ(fastTree.decode(syndromeOf({0}, 4)), 13u);
    EXPECT_EQ(fastTree.decode(syndromeOf({0, 1, 2, 3}, 4)), 9u);
}

// ---------------------------------------------------------------------------
// Agreement with MWPM on real detector error models
// ---------------------------------------------------------------------------

TEST(UnionFindAgreementTest, AllSingleFaultsAtDistanceThree)
{
    for (int embInt : {0, 1, 2}) {
        GeneratorConfig cfg = configFor(3, 2e-3,
                                        ExtractionSchedule::AllAtOnce);
        GeneratedCircuit gen = generateMemoryCircuit(
            static_cast<EmbeddingKind>(embInt), cfg);
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        MwpmDecoder mwpm(dem);
        UnionFindDecoder uf(dem);
        int checked = 0;
        for (const auto& ch : dem.channels()) {
            for (const auto& o : dem.outcomes(ch)) {
                BitVec det = syndromeOf(dem.detectors(o),
                                        dem.numDetectors());
                uint32_t predicted = uf.decode(det);
                if (predicted != mwpm.decode(det)) {
                    std::vector<uint32_t> events = det.onesIndices();
                    EXPECT_TRUE(ufPredictionIsMinWeight(
                        predicted, events, mwpm.paths()))
                        << "embedding " << embInt << " op "
                        << ch.opIndex;
                }
                ++checked;
            }
        }
        EXPECT_GT(checked, 100);
    }
}

TEST(UnionFindAgreementTest, AllFaultPairsAtDistanceThree)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder mwpm(dem);
    UnionFindDecoder uf(dem);

    const auto& chs = dem.channels();
    // The full cross product: cheap because the equal-weight
    // enumeration only runs on (rare) disagreements.
    int checked = 0;
    int disagreements = 0;
    for (size_t i = 0; i < chs.size(); ++i) {
        for (size_t j = i + 1; j < chs.size(); ++j) {
            const auto& oi = dem.outcomes(chs[i]).front();
            const auto& oj = dem.outcomes(chs[j]).front();
            BitVec det = syndromeOf(dem.detectors(oi), dem.numDetectors());
            for (uint32_t d : dem.detectors(oj))
                det.flip(d);
            uint32_t predicted = uf.decode(det);
            if (predicted != mwpm.decode(det)) {
                ++disagreements;
                std::vector<uint32_t> events = det.onesIndices();
                ASSERT_TRUE(ufPredictionIsMinWeight(predicted, events,
                                                    mwpm.paths()))
                    << "pair " << i << "," << j;
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 30000);
    // Disagreements must be rare degenerate ties, not the norm.
    EXPECT_LT(disagreements, checked / 10);
}

TEST(UnionFindAgreementTest, FaultPairsAtDistanceFive)
{
    GeneratorConfig cfg = configFor(5, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder mwpm(dem);
    UnionFindDecoder uf(dem);

    const auto& chs = dem.channels();
    int checked = 0;
    for (size_t i = 0; i < chs.size(); i += 37) {
        for (size_t j = i + 1; j < chs.size(); j += 53) {
            const auto& oi = dem.outcomes(chs[i]).front();
            const auto& oj = dem.outcomes(chs[j]).front();
            BitVec det = syndromeOf(dem.detectors(oi), dem.numDetectors());
            for (uint32_t d : dem.detectors(oj))
                det.flip(d);
            uint32_t predicted = uf.decode(det);
            if (predicted != mwpm.decode(det)) {
                std::vector<uint32_t> events = det.onesIndices();
                ASSERT_TRUE(ufPredictionIsMinWeight(predicted, events,
                                                    mwpm.paths()))
                    << "pair " << i << "," << j;
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 50);
}

TEST(UnionFindAgreementTest, SampledShotsMostlyAgreeWithMwpm)
{
    GeneratorConfig cfg = configFor(3, 5e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    MwpmDecoder mwpm(dem);
    UnionFindDecoder uf(dem);

    Rng root(0x5eedf00d);
    const int shots = 400;
    int agree = 0;
    BitVec det(dem.numDetectors());
    uint32_t obsFlips = 0;
    for (int i = 0; i < shots; ++i) {
        Rng rng = root.split(static_cast<uint64_t>(i));
        sampler.sampleInto(rng, det, obsFlips);
        if (uf.decode(det) == mwpm.decode(det))
            ++agree;
    }
    EXPECT_GE(agree, shots * 9 / 10) << agree << "/" << shots;
}

TEST(UnionFindAgreementTest, LargeClusterGetsMinimumWeightMatching)
{
    // Two seeded shots (d = 7, setup 0, p = 3e-3, trials 13730 and
    // 18225 of seed 0x5eed), each one grown cluster of 7 defects. MWPM
    // corrects both; a BFS spanning-forest peel of the cluster picks
    // an unweighted tree path and flips the logical. Clusters above
    // the branch-and-bound size must get the blossom's answer.
    GeneratedCircuit gen = paperSetupCircuit(0, 7, 3e-3);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    MwpmDecoder mwpm(dem);
    UnionFindDecoder uf(dem, growthOnly());
    for (const std::vector<uint32_t>& events :
         std::vector<std::vector<uint32_t>>{
             {81, 84, 89, 93, 101, 108, 113},
             {58, 61, 85, 90, 110, 114, 118}}) {
        BitVec det = syndromeOf(events, dem.numDetectors());
        EXPECT_EQ(mwpm.decode(det), 0u);
        EXPECT_EQ(uf.decode(det), mwpm.decode(det))
            << "first event " << events[0];
    }
}

// ---------------------------------------------------------------------------
// Factory and registry
// ---------------------------------------------------------------------------

TEST(DecoderFactoryTest, RegistryHasBuiltins)
{
    ASSERT_EQ(decoderRegistry().size(), 2u);
    EXPECT_STREQ(decoderKindName(DecoderKind::Mwpm), "mwpm");
    EXPECT_STREQ(decoderKindName(DecoderKind::UnionFind), "union-find");
    EXPECT_EQ(decoderKindList(), "mwpm, union-find");
}

TEST(DecoderFactoryTest, ParsesNamesAndAliases)
{
    EXPECT_EQ(parseDecoderKind("mwpm"), DecoderKind::Mwpm);
    EXPECT_EQ(parseDecoderKind("MWPM"), DecoderKind::Mwpm);
    EXPECT_EQ(parseDecoderKind("blossom"), DecoderKind::Mwpm);
    EXPECT_EQ(parseDecoderKind("union-find"), DecoderKind::UnionFind);
    EXPECT_EQ(parseDecoderKind("UnionFind"), DecoderKind::UnionFind);
    EXPECT_EQ(parseDecoderKind("uf"), DecoderKind::UnionFind);
    // Only exact matchers are registered: the greedy matcher is gone.
    EXPECT_FALSE(parseDecoderKind("greedy").has_value());
    EXPECT_FALSE(parseDecoderKind("bogus").has_value());
    EXPECT_FALSE(parseDecoderKind("").has_value());
}

TEST(DecoderFactoryTest, MakesEveryRegisteredBackend)
{
    GeneratorConfig cfg = configFor(3, 2e-3,
                                    ExtractionSchedule::AllAtOnce);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    BitVec empty(dem.numDetectors());
    for (const DecoderRegistration& entry : decoderRegistry()) {
        std::unique_ptr<Decoder> dec = makeDecoder(entry.kind, dem);
        ASSERT_NE(dec, nullptr) << entry.name;
        EXPECT_EQ(dec->decode(empty), 0u) << entry.name;
    }
    EXPECT_NE(makeDecoder("uf", dem), nullptr);
    EXPECT_EQ(makeDecoder("greedy", dem), nullptr);
    EXPECT_EQ(makeDecoder("bogus", dem), nullptr);
}

TEST(DecoderFactoryTest, EnvKnobSelectsBackend)
{
    ::setenv("VLQ_DECODER_TESTVAR", "Union-Find", 1);
    EXPECT_EQ(decoderKindFromEnv(DecoderKind::Mwpm,
                                 "VLQ_DECODER_TESTVAR"),
              DecoderKind::UnionFind);
    ::setenv("VLQ_DECODER_TESTVAR", "mwpm", 1);
    EXPECT_EQ(decoderKindFromEnv(DecoderKind::UnionFind,
                                 "VLQ_DECODER_TESTVAR"),
              DecoderKind::Mwpm);
    // A typo'd or removed value must be a hard error listing the
    // valid keys, never a silent fallback to some default backend.
    for (const char* bad : {"nonsense", "greedy"}) {
        ::setenv("VLQ_DECODER_TESTVAR", bad, 1);
        EXPECT_EXIT(decoderKindFromEnv(DecoderKind::UnionFind,
                                       "VLQ_DECODER_TESTVAR"),
                    ::testing::ExitedWithCode(1),
                    "VLQ_DECODER_TESTVAR=" + std::string(bad)
                        + " is not a registered decoder \\(valid: "
                          "mwpm, union-find\\)");
    }
    ::unsetenv("VLQ_DECODER_TESTVAR");
    EXPECT_EQ(decoderKindFromEnv(DecoderKind::UnionFind,
                                 "VLQ_DECODER_TESTVAR"),
              DecoderKind::UnionFind);
}

// ---------------------------------------------------------------------------
// End to end through Monte-Carlo
// ---------------------------------------------------------------------------

/**
 * Decode one seeded Z-basis shot set with MWPM and with union-find
 * (default options) and require UF's failures to stay within 1.15x
 * MWPM's, plus a one-sided margin of three standard deviations of a
 * binomial count with that mean. Both decoders see the same shots, so
 * their failures are strongly correlated and the independent-count
 * margin is conservative. The shot counts give the gate power:
 * resolving clusters of more than six defects by a spanning-forest
 * peel reads 1.7-3.7x MWPM's failures here and fails every point.
 */
void
expectUnionFindWithinMwpm(int setup, int d, uint64_t shots)
{
    GeneratedCircuit gen = paperSetupCircuit(setup, d, 3e-3);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    MwpmDecoder mwpm(dem);
    UnionFindDecoder uf(dem);

    const Rng root(0x5eed);
    ShotBatch batch;
    std::vector<uint32_t> mwpmPred;
    std::vector<uint32_t> ufPred;
    uint64_t mwpmFailures = 0;
    uint64_t ufFailures = 0;
    for (uint64_t begin = 0; begin < shots; begin += 256) {
        const auto count =
            static_cast<uint32_t>(std::min<uint64_t>(256, shots - begin));
        batch.reset(dem.numDetectors(), dem.numObservables(), count,
                    begin);
        sampler.sampleBatchInto(root, batch);
        mwpmPred.resize(count);
        ufPred.resize(count);
        mwpm.decodeBatch(batch, mwpmPred);
        uf.decodeBatch(batch, ufPred);
        for (uint32_t s = 0; s < count; ++s) {
            mwpmFailures += mwpmPred[s] != batch.observables(s);
            ufFailures += ufPred[s] != batch.observables(s);
        }
    }
    // With too few MWPM failures the gate could not fail.
    EXPECT_GE(mwpmFailures, 10u) << "setup " << setup << " d " << d;
    const double bound = 1.15 * static_cast<double>(mwpmFailures);
    EXPECT_LE(static_cast<double>(ufFailures),
              bound + 3.0 * std::sqrt(bound))
        << "setup " << setup << " d " << d << ": uf " << ufFailures
        << " mwpm " << mwpmFailures << " of " << shots;
}

// One test per point keeps each well inside the per-test timeout
// under the sanitizer builds (d=9 compact is ~12 s under TSan).
TEST(UnionFindMcTest, FailuresWithinMwpmSetup0D7)
{
    expectUnionFindWithinMwpm(0, 7, 20000);
}

TEST(UnionFindMcTest, FailuresWithinMwpmSetup4D7)
{
    expectUnionFindWithinMwpm(4, 7, 20000);
}

TEST(UnionFindMcTest, FailuresWithinMwpmSetup0D9)
{
    expectUnionFindWithinMwpm(0, 9, 6000);
}

TEST(UnionFindMcTest, FailuresWithinMwpmSetup4D9)
{
    expectUnionFindWithinMwpm(4, 9, 6000);
}

// ---------------------------------------------------------------------------
// Erasure-aware decoding (zero-weight cluster seeding)
// ---------------------------------------------------------------------------

// chainGraph edge indices follow insertion order:
// 0 = (0,B) obs 1, 1 = (0,1) obs 0, 2 = (1,2) obs 2, 3 = (2,B) obs 0.

TEST(UnionFindErasureTest, ErasedEdgeSeedsClusterAtZeroWeight)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    UnionFindDecoder::DecodeInfo info;
    // Defects 0 and 1 with the 0-1 edge erased: the edge is pre-grown
    // to full support before any growth round, so the pair resolves
    // with zero rounds even though 0's boundary edge is cheaper.
    EXPECT_EQ(uf.decodeErasedEdges(syndromeOf({0, 1}, 3), {1}, &info),
              0u);
    EXPECT_EQ(info.growthRounds, 0u);
}

TEST(UnionFindErasureTest, ErasedBoundaryEdgeIsAFreeExit)
{
    UnionFindDecoder uf(chainGraph(), growthOnly());
    UnionFindDecoder::DecodeInfo info;
    // Lone defect at 0, its boundary edge erased: the defect leaves
    // through the free exit without growing at all.
    EXPECT_EQ(uf.decodeErasedEdges(syndromeOf({0}, 3), {0}, &info), 1u);
    EXPECT_EQ(info.growthRounds, 0u);

    // Erasing an edge the syndrome never touches changes nothing.
    EXPECT_EQ(uf.decodeErasedEdges(syndromeOf({0}, 3), {2}), 1u);
}

TEST(UnionFindErasureTest, ErasedBoundaryExitBeatsGlobalTable)
{
    // 1's own boundary edge is so unlikely (p = 0.001) that every
    // weighted path routes 1 -> 0 -> B (obs 4 ^ 1 = 5). Erasing the
    // 1-B edge must override that: the erased edge is free NOW, no
    // matter what the precomputed distance table says.
    DecodingGraph g(2);
    g.addContribution(0, g.boundaryNode(), 0.2, 1);  // edge 0
    g.addContribution(0, 1, 0.2, 4);                 // edge 1
    g.addContribution(1, g.boundaryNode(), 0.001, 2); // edge 2
    g.finalize();

    UnionFindDecoder uf(g, growthOnly());
    EXPECT_EQ(uf.decode(syndromeOf({1}, 2)), 5u);
    EXPECT_EQ(uf.decodeErasedEdges(syndromeOf({1}, 2), {2}), 2u);
    // The exact-matching fast path must reach the same answer (it has
    // to be bypassed whenever erasures are present).
    UnionFindDecoder fast(g);
    EXPECT_EQ(fast.decodeErasedEdges(syndromeOf({1}, 2), {2}), 2u);
}

TEST(UnionFindErasureTest, ErasureOnlyShotsDecodeExactly)
{
    GeneratorConfig cfg = configFor(3, 5e-3,
                                    ExtractionSchedule::AllAtOnce);
    cfg.noise.erasure.fraction = 1.0;
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    ASSERT_GT(dem.numErasureSites(), 0u);
    UnionFindDecoder uf(dem);

    // Delfosse-Nickerson peeling is exact on erased supports: for every
    // outcome of every heralded channel, decoding its syndrome with the
    // herald raised recovers the exact observable flip.
    int checked = 0;
    for (const auto& ch : dem.channels()) {
        if (ch.erasureSite < 0)
            continue;
        BitVec erasures(dem.numErasureSites());
        erasures.set(static_cast<size_t>(ch.erasureSite), true);
        for (const auto& o : dem.outcomes(ch)) {
            if (dem.detectors(o).empty())
                continue;
            BitVec det = syndromeOf(dem.detectors(o), dem.numDetectors());
            EXPECT_EQ(uf.decode(det, erasures),
                      o.observables)
                << "op " << ch.opIndex << " site " << ch.erasureSite;
            ++checked;
        }
    }
    EXPECT_GT(checked, 100);
}

TEST(UnionFindErasureTest, BatchDecodeMatchesScalarWithErasures)
{
    GeneratorConfig cfg = configFor(3, 8e-3,
                                    ExtractionSchedule::AllAtOnce);
    cfg.noise.erasure.fraction = 0.6;
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    UnionFindDecoder uf(dem);

    const uint32_t shots = 96;
    Rng root(0xe7a5eb17);
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), shots, 0,
                dem.numErasureSites());
    sampler.sampleBatchInto(root, batch);
    std::vector<uint32_t> predictions(shots);
    uf.decodeBatch(batch, predictions);

    // Erasure-mask propagation: decoding each shot's extracted
    // detector column with the heralds recorded in the batch's
    // transposed erasure rows must reproduce the batched predictions
    // shot for shot.
    BitVec det(dem.numDetectors());
    size_t heraldsSeen = 0;
    for (uint32_t s = 0; s < shots; ++s) {
        batch.extractShot(s, det);
        BitVec era(dem.numErasureSites());
        for (uint32_t site = 0; site < dem.numErasureSites(); ++site)
            if (batch.erased(s, site))
                era.set(site, true);
        heraldsSeen += era.popcount();
        EXPECT_EQ(predictions[s], uf.decode(det, era))
            << "shot " << s;
    }
    // The config is chosen so heralds actually fire in this batch.
    EXPECT_GT(heraldsSeen, 0u);

    // The scalar sampling path raises heralds too (the two paths draw
    // different streams but the same distribution).
    BitVec era(dem.numErasureSites());
    uint32_t obs = 0;
    size_t scalarHeralds = 0;
    for (uint32_t s = 0; s < shots; ++s) {
        Rng rng = root.split(s);
        sampler.sampleInto(rng, det, obs, era);
        scalarHeralds += era.popcount();
    }
    EXPECT_GT(scalarHeralds, 0u);
}

TEST(UnionFindErasureTest, DecodeIsIndependentOfThreadHistory)
{
    // The decoder's scratch is per thread and outlives a shot. Erasure
    // seeding grows defect-free clusters too; none of their state may
    // leak into a later shot, or counts would depend on which worker
    // thread decoded which trials before.
    GeneratorConfig cfg = configFor(5, 8e-3,
                                    ExtractionSchedule::AllAtOnce);
    cfg.noise.erasure.fraction = 1.0;
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    UnionFindDecoder uf(dem);

    const uint32_t shots = 256;
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), shots, 0,
                dem.numErasureSites());
    sampler.sampleBatchInto(Rng(0x5eed), batch);
    std::vector<uint32_t> predictions(shots);
    uf.decodeBatch(batch, predictions);

    BitVec det(dem.numDetectors());
    for (uint32_t s = 0; s < shots; ++s) {
        batch.extractShot(s, det);
        BitVec era(dem.numErasureSites());
        for (uint32_t site = 0; site < dem.numErasureSites(); ++site)
            if (batch.erased(s, site))
                era.set(site, true);
        uint32_t fresh = 0;
        std::thread([&] { fresh = uf.decode(det, era); })
            .join();
        EXPECT_EQ(predictions[s], fresh) << "shot " << s;
    }
}

TEST(UnionFindErasureTest, HeraldedErasureLowersLogicalError)
{
    // Same total error budget, d = 5: converting every fault to
    // heralded erasure must beat the pure-Pauli rate (the decoder pays
    // nothing to span heralded faults). Deterministic under the fixed
    // seed.
    GeneratorConfig pauli = configFor(5, 5e-3,
                                      ExtractionSchedule::AllAtOnce);
    GeneratorConfig erased = pauli;
    erased.noise.erasure.fraction = 1.0;
    McOptions opts;
    opts.trials = 800;
    opts.seed = 0x5eed;
    opts.decoder = DecoderKind::UnionFind;
    double pauliRate = estimateLogicalError(EmbeddingKind::Baseline2D,
                                            pauli, opts)
                           .combinedRate();
    double erasedRate = estimateLogicalError(EmbeddingKind::Baseline2D,
                                             erased, opts)
                            .combinedRate();
    EXPECT_LT(erasedRate, pauliRate)
        << "erased " << erasedRate << " pauli " << pauliRate;
}

} // namespace
} // namespace vlq
