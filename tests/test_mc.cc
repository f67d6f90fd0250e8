#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "mc/memory_experiment.h"
#include "mc/monte_carlo.h"
#include "mc/threshold.h"

namespace vlq {
namespace {

GeneratorConfig
mcConfig(int d, double p)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.cavityDepth = 10;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

TEST(MonteCarlo, ZeroNoiseZeroErrors)
{
    GeneratorConfig cfg = mcConfig(3, 0.0);
    cfg.noise.idleScale = 0.0;
    McOptions opt;
    opt.trials = 200;
    LogicalErrorPoint pt =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, opt);
    EXPECT_EQ(pt.basisZ.successes, 0u);
    EXPECT_EQ(pt.basisX.successes, 0u);
    EXPECT_EQ(pt.combinedRate(), 0.0);
}

TEST(MonteCarlo, Deterministic)
{
    GeneratorConfig cfg = mcConfig(3, 5e-3);
    McOptions opt;
    opt.trials = 500;
    opt.seed = 77;
    LogicalErrorPoint a =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, opt);
    LogicalErrorPoint b =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, opt);
    EXPECT_EQ(a.basisZ.successes, b.basisZ.successes);
    EXPECT_EQ(a.basisX.successes, b.basisX.successes);
}

TEST(MonteCarlo, IndependentOfThreadCount)
{
    GeneratorConfig cfg = mcConfig(3, 5e-3);
    McOptions opt;
    opt.trials = 400;
    opt.seed = 99;
    opt.threads = 1;
    LogicalErrorPoint a =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, opt);
    opt.threads = 4;
    LogicalErrorPoint b =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, opt);
    EXPECT_EQ(a.basisZ.successes, b.basisZ.successes);
    EXPECT_EQ(a.basisX.successes, b.basisX.successes);
}

TEST(MonteCarlo, HighNoiseProducesErrors)
{
    GeneratorConfig cfg = mcConfig(3, 3e-2);
    McOptions opt;
    opt.trials = 400;
    LogicalErrorPoint pt =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, opt);
    EXPECT_GT(pt.combinedRate(), 0.01);
}

TEST(MonteCarlo, LargerDistanceBetterBelowThreshold)
{
    // Well below threshold, d=5 must beat d=3 (statistical smoke test).
    McOptions opt;
    opt.trials = 3000;
    LogicalErrorPoint d3 = estimateLogicalError(
        EmbeddingKind::Baseline2D, mcConfig(3, 2e-3), opt);
    LogicalErrorPoint d5 = estimateLogicalError(
        EmbeddingKind::Baseline2D, mcConfig(5, 2e-3), opt);
    EXPECT_LT(d5.combinedRate(), d3.combinedRate() + 0.01);
    EXPECT_GT(d3.combinedRate(), 0.0);
}

TEST(MonteCarlo, CombinedRateFormula)
{
    LogicalErrorPoint pt;
    pt.basisZ = BinomialEstimate{10, 100};
    pt.basisX = BinomialEstimate{20, 100};
    EXPECT_NEAR(pt.combinedRate(), 1.0 - 0.9 * 0.8, 1e-12);
}

TEST(MonteCarlo, RectangularCompactSmoke)
{
    // d=3 rectangular Monte-Carlo end to end through the registry
    // backend: a 3 x 5 compact-rect patch at a moderate rate must run
    // all trials and land at a sane logical error rate.
    GeneratorConfig cfg = mcConfig(3, 5e-3);
    cfg.distanceX = 3;
    cfg.distanceZ = 5;
    cfg.cavityDepth = 4;
    McOptions opt;
    opt.trials = 300;
    LogicalErrorPoint pt =
        estimateLogicalError(EmbeddingKind::CompactRect, cfg, opt);
    EXPECT_EQ(pt.basisZ.trials, 300u);
    EXPECT_EQ(pt.basisX.trials, 300u);
    EXPECT_LT(pt.combinedRate(), 0.5);

    // And with zero noise the rectangle is exactly quiet.
    GeneratorConfig quiet = mcConfig(3, 0.0);
    quiet.noise.idleScale = 0.0;
    quiet.distanceX = 3;
    quiet.distanceZ = 5;
    McOptions few;
    few.trials = 50;
    LogicalErrorPoint zero =
        estimateLogicalError(EmbeddingKind::CompactRect, quiet, few);
    EXPECT_EQ(zero.combinedRate(), 0.0);
}

TEST(MonteCarlo, RectangularProtectsTheTallBasis)
{
    // On a 3 x 7 patch the memory-Z experiment (distance 7 = rows)
    // must fail far less often than memory-X (distance 3 = columns).
    GeneratorConfig cfg = mcConfig(3, 8e-3);
    cfg.distanceX = 3;
    cfg.distanceZ = 7;
    cfg.cavityDepth = 4;
    McOptions opt;
    opt.trials = 1200;
    LogicalErrorPoint pt =
        estimateLogicalError(EmbeddingKind::CompactRect, cfg, opt);
    EXPECT_LT(pt.basisZ.rate(), pt.basisX.rate());
    EXPECT_GT(pt.basisX.successes, 0u);
}

// The compute selector is a deprecated no-op, but its names and
// aliases must keep parsing and a typo must stay a hard error.
TEST(ComputeRegistry, RoundTripsNamesAliasesAndKinds)
{
    EXPECT_EQ(parseComputeKind("scalar"), ComputeKind::Scalar);
    EXPECT_EQ(parseComputeKind("simd"), ComputeKind::Simd);
    EXPECT_EQ(parseComputeKind("SIMD"), ComputeKind::Simd);
    EXPECT_EQ(parseComputeKind("Scalar"), ComputeKind::Scalar);
    EXPECT_EQ(parseComputeKind("ref"), ComputeKind::Scalar);
    EXPECT_EQ(parseComputeKind("reference"), ComputeKind::Scalar);
    EXPECT_EQ(parseComputeKind("vector"), ComputeKind::Simd);
    EXPECT_EQ(parseComputeKind("word-parallel"), ComputeKind::Simd);
    EXPECT_FALSE(parseComputeKind("gpu").has_value());
    EXPECT_FALSE(parseComputeKind("").has_value());
    EXPECT_EQ(computeKindList(), "scalar, simd");
}

TEST(ComputeRegistry, EnvKnobSelectsBackendOrDiesOnTypos)
{
    ::setenv("VLQ_COMPUTE_TESTVAR", "simd", 1);
    EXPECT_EQ(computeKindFromEnv(ComputeKind::Scalar,
                                 "VLQ_COMPUTE_TESTVAR"),
              ComputeKind::Simd);
    ::unsetenv("VLQ_COMPUTE_TESTVAR");
    EXPECT_EQ(computeKindFromEnv(ComputeKind::Scalar,
                                 "VLQ_COMPUTE_TESTVAR"),
              ComputeKind::Scalar);
    // A typo'd value must be a hard error listing the valid names,
    // never a silent fallback.
    ::setenv("VLQ_COMPUTE_TESTVAR", "smid", 1);
    EXPECT_EXIT(computeKindFromEnv(ComputeKind::Scalar,
                                   "VLQ_COMPUTE_TESTVAR"),
                ::testing::ExitedWithCode(1),
                "not a compute backend name \\(valid, deprecated and "
                "without effect: scalar, simd\\)");
    ::unsetenv("VLQ_COMPUTE_TESTVAR");
}

TEST(Setups, PaperListAndNames)
{
    auto setups = paperSetups();
    ASSERT_EQ(setups.size(), 5u);
    EXPECT_EQ(setups[0].name(), "Baseline");
    EXPECT_EQ(setups[1].name(), "Natural, All-at-once");
    EXPECT_EQ(setups[2].name(), "Natural, Interleaved");
    EXPECT_EQ(setups[3].name(), "Compact, All-at-once");
    EXPECT_EQ(setups[4].name(), "Compact, Interleaved");
}

TEST(Threshold, CrossingEstimator)
{
    // Synthetic curves crossing at p = 0.01.
    auto makeCurve = [](int d, double slope) {
        ThresholdCurve c;
        c.distance = d;
        for (double p : {0.004, 0.008, 0.016, 0.032}) {
            c.physicalPs.push_back(p);
            LogicalErrorPoint pt;
            pt.distance = d;
            pt.physicalP = p;
            // rate = (p/0.01)^slope * 0.1, so curves with different
            // slopes cross exactly at p = 0.01.
            double rate = 0.1 * std::pow(p / 0.01, slope);
            uint64_t n = 1000000;
            pt.basisZ = BinomialEstimate{
                static_cast<uint64_t>(rate * n), n};
            pt.basisX = BinomialEstimate{0, n};
            c.points.push_back(pt);
        }
        return c;
    };
    std::vector<ThresholdCurve> curves{makeCurve(3, 1.0),
                                       makeCurve(5, 2.0),
                                       makeCurve(7, 3.0)};
    double pth = estimateThresholdFromCurves(curves);
    EXPECT_NEAR(pth, 0.01, 0.0005);
}

TEST(Threshold, NoCrossingGivesNegative)
{
    auto flat = [](int d, double level) {
        ThresholdCurve c;
        c.distance = d;
        for (double p : {0.001, 0.002}) {
            c.physicalPs.push_back(p);
            LogicalErrorPoint pt;
            pt.basisZ = BinomialEstimate{
                static_cast<uint64_t>(level * 1000), 1000};
            c.points.push_back(pt);
        }
        return c;
    };
    std::vector<ThresholdCurve> curves{flat(3, 0.1), flat(5, 0.2)};
    EXPECT_LT(estimateThresholdFromCurves(curves), 0.0);
}

TEST(Threshold, SuppressionFactorOnSyntheticCurves)
{
    auto makeCurve = [](int d, double rate) {
        ThresholdCurve c;
        c.distance = d;
        c.physicalPs = {1e-3};
        LogicalErrorPoint pt;
        pt.basisZ = BinomialEstimate{
            static_cast<uint64_t>(rate * 1000000), 1000000};
        c.points.push_back(pt);
        return c;
    };
    // Each distance step suppresses by 4x.
    std::vector<ThresholdCurve> curves{
        makeCurve(3, 0.16), makeCurve(5, 0.04), makeCurve(7, 0.01)};
    EXPECT_NEAR(suppressionFactor(curves, 1e-3), 4.0, 0.05);
    // Zero rates give no estimate.
    std::vector<ThresholdCurve> zero{makeCurve(3, 0.0),
                                     makeCurve(5, 0.0)};
    EXPECT_LT(suppressionFactor(zero, 1e-3), 0.0);
}

TEST(Threshold, SuppressionFactorPicksNearestP)
{
    auto curve = [](int d, double r1, double r2) {
        ThresholdCurve c;
        c.distance = d;
        c.physicalPs = {1e-3, 1e-2};
        for (double r : {r1, r2}) {
            LogicalErrorPoint pt;
            pt.basisZ = BinomialEstimate{
                static_cast<uint64_t>(r * 1000000), 1000000};
            c.points.push_back(pt);
        }
        return c;
    };
    std::vector<ThresholdCurve> curves{curve(3, 0.2, 0.4),
                                       curve(5, 0.1, 0.4)};
    EXPECT_NEAR(suppressionFactor(curves, 1.2e-3), 2.0, 0.01);
    EXPECT_NEAR(suppressionFactor(curves, 9e-3), 1.0, 0.01);
}

TEST(Threshold, ScanSmoke)
{
    // A tiny end-to-end scan: 2 distances, 2 p values, few trials.
    EvaluationSetup setup{EmbeddingKind::Baseline2D,
                          ExtractionSchedule::AllAtOnce};
    ThresholdScanConfig cfg;
    cfg.distances = {3, 5};
    cfg.physicalPs = {5e-3, 2e-2};
    cfg.mc.trials = 150;
    ThresholdResult result = scanThreshold(setup, cfg);
    ASSERT_EQ(result.curves.size(), 2u);
    ASSERT_EQ(result.curves[0].points.size(), 2u);
    EXPECT_EQ(result.curves[0].distance, 3);
    // At p=2e-2 (above threshold) error rates must be substantial.
    EXPECT_GT(result.curves[0].points[1].combinedRate(), 0.05);
}

TEST(MonteCarlo, CompactDistanceScalingBelowThreshold)
{
    // The paper's core fault-tolerance claim for the 2.5D machine:
    // below threshold, distance helps in the Compact embedding too.
    McOptions opt;
    opt.trials = 2500;
    GeneratorConfig c3 = mcConfig(3, 2e-3);
    c3.schedule = ExtractionSchedule::Interleaved;
    GeneratorConfig c5 = mcConfig(5, 2e-3);
    c5.schedule = ExtractionSchedule::Interleaved;
    LogicalErrorPoint d3 =
        estimateLogicalError(EmbeddingKind::Compact, c3, opt);
    LogicalErrorPoint d5 =
        estimateLogicalError(EmbeddingKind::Compact, c5, opt);
    EXPECT_LT(d5.combinedRate(), d3.combinedRate() + 0.01);
}

TEST(MonteCarlo, AboveThresholdDistanceHurts)
{
    McOptions opt;
    opt.trials = 1000;
    LogicalErrorPoint d3 = estimateLogicalError(
        EmbeddingKind::Baseline2D, mcConfig(3, 2.5e-2), opt);
    LogicalErrorPoint d7 = estimateLogicalError(
        EmbeddingKind::Baseline2D, mcConfig(7, 2.5e-2), opt);
    EXPECT_GT(d7.combinedRate(), d3.combinedRate());
}

TEST(MonteCarlo, GapModelAffectsMemoryVariantsOnly)
{
    McOptions opt;
    opt.trials = 800;
    GeneratorConfig cfg = mcConfig(3, 5e-3);
    cfg.schedule = ExtractionSchedule::Interleaved;
    cfg.gapModel = PagingGapModel::BlockOnce;
    LogicalErrorPoint blockOnce =
        estimateLogicalError(EmbeddingKind::Natural, cfg, opt);
    cfg.gapModel = PagingGapModel::PerRound;
    LogicalErrorPoint perRound =
        estimateLogicalError(EmbeddingKind::Natural, cfg, opt);
    // Strict accounting must not *reduce* the error rate.
    EXPECT_GE(perRound.combinedRate() + 0.01, blockOnce.combinedRate());

    // The baseline is untouched by the gap model.
    cfg.gapModel = PagingGapModel::BlockOnce;
    LogicalErrorPoint b1 =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, opt);
    cfg.gapModel = PagingGapModel::PerRound;
    LogicalErrorPoint b2 =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, opt);
    EXPECT_EQ(b1.basisZ.successes, b2.basisZ.successes);
}

} // namespace
} // namespace vlq
