#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/generator_common.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/union_find.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/monte_carlo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/events.h"
#include "service/job.h"
#include "service/job_service.h"
#include "util/threadpool.h"

/**
 * Concurrency stress harness. These tests pass under any build, but
 * they exist to give ThreadSanitizer short racy windows to inspect:
 * control-plane requests (submit/cancel/requeue/shutdown) hammered
 * against a service mid-drain, metrics-shard churn from short-lived
 * threads racing snapshotMetrics(), batch commits + checkpoint saves
 * issued from pool worker threads, and MWPM and union-find batches
 * decoded through one shared decoder from several threads, also while
 * its shortest-path rows are still being filled. CI runs the tier-1 suite --
 * including this file -- under -fsanitize=thread (the `tsan` preset);
 * a data race here is a bug, never a
 * suppression (see docs/ARCHITECTURE.md, "Static analysis &
 * sanitizers").
 */

namespace vlq {
namespace {

using service::EventSink;
using service::JobService;
using service::JobServiceConfig;
using service::ScanJob;

ScanJob
stressJob(const std::string& id, uint64_t trials)
{
    ScanJob job;
    job.id = id;
    job.setup = 2;
    job.distances = {3};
    job.physicalPs = {8e-3};
    job.trials = trials;
    job.batchSize = 32;
    job.seed = 29;
    return job;
}

void
removeJobState(const JobService& svc, const std::string& id)
{
    std::remove(svc.checkpointPath(id).c_str());
    std::remove((svc.checkpointPath(id) + ".tmp").c_str());
}

/**
 * Control-plane churn: one thread drains the queue while two hammer
 * threads fire the full request grammar -- submits, requeues of
 * queued/running/terminal ids, cancels, and garbage lines -- at the
 * live service. The scheduler quantum is tiny so the long job gets
 * preempted into and out of the queue while the hammers rotate it.
 */
TEST(TsanStress, ControlPlaneChurnWhileDraining)
{
    std::ostringstream out;
    EventSink sink(&out);
    JobServiceConfig cfg;
    cfg.stateDir = testing::TempDir();
    cfg.quantumTrials = 96;
    cfg.progressEveryTrials = 64;
    cfg.threads = 2;
    JobService svc(cfg, sink);

    std::vector<std::string> ids = {"ts-long", "ts-a", "ts-b"};
    removeJobState(svc, "ts-long");
    ASSERT_TRUE(svc.submit(stressJob("ts-long", 2400)));
    for (const char* id : {"ts-a", "ts-b"}) {
        removeJobState(svc, id);
        ASSERT_TRUE(svc.submit(stressJob(id, 600)));
    }

    std::thread runner([&] { svc.runUntilDrained(); });

    auto hammer = [&](int t) {
        for (int i = 0; i < 24; ++i) {
            std::string id = "ts-h" + std::to_string(t) + "-"
                + std::to_string(i);
            if (i % 3 == 0) {
                removeJobState(svc, id);
                svc.submitLine(stressJob(id, 200).requestLine());
                if (i % 6 == 0)
                    svc.submitLine("cancel id=" + id);
            }
            // Rotations race the scheduler pop: each either succeeds
            // (job still queued) or errors (running/terminal) -- both
            // must be race-free and emit exactly one event.
            svc.submitLine("requeue id=" + ids[i % ids.size()]);
            svc.submitLine("requeue id=never-submitted");
            svc.submitLine("bogus-verb id=x");
            std::this_thread::yield();
        }
    };
    std::thread h1(hammer, 1);
    std::thread h2(hammer, 2);
    h1.join();
    h2.join();
    runner.join();

    // Drain whatever the hammers enqueued after the runner exited.
    svc.runUntilDrained();

    // The stream survived the churn: parseable, strictly ordered.
    uint64_t prevSeq = 0;
    size_t preemptions = 0;
    std::istringstream is(out.str());
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::string lintErr;
        ASSERT_TRUE(obs::jsonLint(line, &lintErr))
            << line << "\n" << lintErr;
        std::string needle = "\"seq\":";
        size_t at = line.find(needle);
        ASSERT_NE(at, std::string::npos) << line;
        uint64_t seq = std::stoull(line.substr(at + needle.size()));
        EXPECT_GT(seq, prevSeq) << "seq must strictly increase";
        prevSeq = seq;
        if (line.find("\"event\":\"preempted\"") != std::string::npos)
            ++preemptions;
    }
    EXPECT_GE(preemptions, 1u)
        << "quantum 96 with queued peers must preempt the long job";
}

/**
 * Shard churn: waves of short-lived writer threads (raw std::thread
 * and fresh ThreadPool workers) exit -- retiring their thread-local
 * shards -- while the main thread scrapes snapshots mid-wave. The
 * final joined snapshot must account for every single increment.
 */
TEST(TsanStress, MetricsShardChurnRacesSnapshots)
{
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    const uint64_t before =
        obs::snapshotMetrics().counter("tsan.stress.increments");

    constexpr int kWaves = 6;
    constexpr int kThreadsPerWave = 4;
    constexpr uint64_t kAddsPerThread = 2048;
    for (int wave = 0; wave < kWaves; ++wave) {
        std::vector<std::thread> writers;
        writers.reserve(kThreadsPerWave);
        for (int t = 0; t < kThreadsPerWave; ++t) {
            writers.emplace_back([] {
                obs::Counter counter =
                    obs::Counter::get("tsan.stress.increments");
                obs::Histogram histo =
                    obs::Histogram::get("tsan.stress.latency");
                for (uint64_t i = 0; i < kAddsPerThread; ++i) {
                    counter.add(1);
                    histo.record(i & 1023);
                }
            });
        }
        // ThreadPool workers are born and joined inside parallelFor:
        // their shards retire while the raw writers are still alive.
        ThreadPool pool(3);
        pool.parallelFor(
            kAddsPerThread,
            [](uint64_t begin, uint64_t end, unsigned) {
                obs::Counter counter =
                    obs::Counter::get("tsan.stress.increments");
                for (uint64_t i = begin; i < end; ++i)
                    counter.add(1);
            });
        // Scrape while writers run and shards retire underneath us.
        for (int s = 0; s < 8; ++s)
            (void)obs::snapshotMetrics();
        for (std::thread& writer : writers)
            writer.join();
    }

    const uint64_t after =
        obs::snapshotMetrics().counter("tsan.stress.increments");
    EXPECT_EQ(after - before,
              uint64_t{kWaves} * (kThreadsPerWave + 1) * kAddsPerThread)
        << "retired shards must fold in without losing increments";
    obs::setMetricsEnabled(wasEnabled);
}

GeneratorConfig
stressPoint()
{
    GeneratorConfig cfg;
    cfg.distance = 3;
    cfg.cavityDepth = 10;
    cfg.noise = NoiseModel::atPhysicalRate(
        8e-3, HardwareParams::transmonsWithMemory());
    return cfg;
}

/**
 * Cross-thread checkpoint commits: four pool workers drive batches
 * through the sequencer, which commits in trial order and saves the
 * checkpoint every 128 trials from whichever worker holds the commit
 * lock; the progress and preempt callbacks run on those workers too.
 * Preempting mid-run and resuming must reproduce the uninterrupted
 * counts bit-identically -- the determinism contract TSan guards the
 * locking of.
 */
TEST(TsanStress, CrossThreadCheckpointCommitsResumeBitIdentically)
{
    const std::string path =
        testing::TempDir() + "tsan-stress-ckpt.txt";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());

    McOptions opt;
    opt.trials = 1500;
    opt.seed = 31;
    opt.threads = 4;
    opt.batchSize = 32;
    opt.decoder = DecoderKind::UnionFind;

    BinomialEstimate solo = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, stressPoint(), opt);

    McOptions first = opt;
    first.checkpointPath = path;
    first.checkpointEveryTrials = 128;
    std::atomic<uint64_t> committed{0};
    first.progress = [&](const McProgress& p) {
        committed.store(p.trialsDone, std::memory_order_relaxed);
    };
    bool preempted = false;
    first.preempt = [&] {
        return committed.load(std::memory_order_relaxed) >= 600;
    };
    first.preempted = &preempted;
    (void)estimateLogicalErrorBasis(EmbeddingKind::Baseline2D,
                                    stressPoint(), first);
    ASSERT_TRUE(preempted) << "the preempt hook must fire mid-run";

    McOptions second = opt;
    second.checkpointPath = path;
    second.checkpointEveryTrials = 128;
    BinomialEstimate resumed = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, stressPoint(), second);

    EXPECT_EQ(resumed.trials, solo.trials);
    EXPECT_EQ(resumed.successes, solo.successes)
        << "preempt/resume across worker threads changed the counts";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

/**
 * Concurrent MWPM batches: three threads decode the same shared batch
 * through one decoder, each on its own per-thread matching scratch and
 * blossom solver, and must reproduce the single-threaded predictions.
 */
TEST(TsanStress, ConcurrentMwpmBatchesShareOneDecoder)
{
    GeneratorConfig cfg = stressPoint();
    cfg.distance = 5;
    cfg.schedule = ExtractionSchedule::Interleaved;
    GeneratedCircuit gen = generateCompactMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    const MwpmDecoder decoder(dem);

    const uint32_t shots = 192;
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), shots, 0);
    sampler.sampleBatchInto(Rng(41), batch);
    std::vector<uint32_t> expected(shots);
    BitVec det(dem.numDetectors());
    for (uint32_t s = 0; s < shots; ++s) {
        batch.extractShot(s, det);
        expected[s] = decoder.decode(det);
    }

    constexpr int kThreads = 3;
    std::vector<std::vector<uint32_t>> got(
        kThreads, std::vector<uint32_t>(shots));
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int rep = 0; rep < 4; ++rep)
                decoder.decodeBatch(batch, got[static_cast<size_t>(t)]);
        });
    }
    for (std::thread& w : workers)
        w.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[static_cast<size_t>(t)], expected) << "thread " << t;
}

/**
 * Cold shortest-path rows: three threads decode the same batch through
 * one freshly built decoder, so they race to fill the oracle's rows
 * (each exactly once, under its call_once) while reading the rows
 * other threads filled. Every thread must reproduce a one-thread run
 * on a separate decoder.
 */
TEST(TsanStress, ConcurrentColdRowFillsMatchOneThread)
{
    GeneratorConfig cfg = stressPoint();
    cfg.distance = 5;
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    const uint32_t shots = 256;
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), shots, 0);
    sampler.sampleBatchInto(Rng(43), batch);

    auto check = [&](const Decoder& solo, const Decoder& shared,
                     const char* name) {
        std::vector<uint32_t> expected(shots);
        solo.decodeBatch(batch, expected);
        constexpr int kThreads = 3;
        std::vector<std::vector<uint32_t>> got(
            kThreads, std::vector<uint32_t>(shots));
        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t)
            workers.emplace_back([&, t] {
                shared.decodeBatch(batch, got[static_cast<size_t>(t)]);
            });
        for (std::thread& w : workers)
            w.join();
        for (int t = 0; t < kThreads; ++t)
            EXPECT_EQ(got[static_cast<size_t>(t)], expected)
                << name << " thread " << t;
    };
    check(UnionFindDecoder(dem), UnionFindDecoder(dem), "union-find");
    check(MwpmDecoder(dem), MwpmDecoder(dem), "mwpm");
}

} // namespace
} // namespace vlq
