// perfbench_driver: runs one benchmark workload against the vlq library
// through its public entry points and prints one JSON object of raw
// measurements on stdout. perfbench/run.py builds this program, turns
// the raw measurements into the benchmark's metrics and checks them.
//
//   perfbench_driver --workload <uf-scan|mwpm-compact|service-preempt>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --work <dir> [--size full|small]
//
// Untraced (--trace 0): until --seconds have passed, set up every
// distinct pipeline of the workload once (single-threaded, timed per
// call), then run the workload with a fixed trial budget per point and
// no early stop.
// Traced (--trace 1): one or more untraced repetitions, one repetition
// with the library's metrics registry on, and -- for the scans -- a
// replay of every point's pipeline from this file with in-memory spans
// around each library call, written to <work>/trace.jsonl at the end.
// The library's vlq-metrics-report/1 document of the metrics repetition
// is written to <work>/metrics-report.json.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/generator_common.h"
#include "decoder/decoder_factory.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/checkpoint.h"
#include "mc/memory_experiment.h"
#include "mc/threshold.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "service/events.h"
#include "service/job.h"
#include "service/job_service.h"
#include "util/rng.h"

extern char** environ;

namespace {

using namespace vlq;
using Clock = std::chrono::steady_clock;
using obs::jsonNumber;
using obs::jsonQuote;

/**
 * Engine threads, pinned. One thread: on a shared host, vCPU steal time
 * grows with the number of busy threads (measured ~17% at 4 threads vs
 * <5% at 1), and with it the run-to-run spread of every timing.
 */
constexpr unsigned kEngineThreads = 1;

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch)
            .count());
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec)
            + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
splitmix64(uint64_t& state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

template <typename T, typename F>
std::string
jsonList(const std::vector<T>& items, F render)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + render(items[i]);
    return out + "]";
}

/** Drop every VLQ_* variable so no ambient knob reaches the library. */
void
clearVlqEnvironment()
{
    std::vector<std::string> names;
    for (char** e = environ; e && *e; ++e) {
        std::string entry(*e);
        if (entry.rfind("VLQ_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string& n : names)
        unsetenv(n.c_str());
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

/** A (distance, p, basis) point of a scan grid, in scan order. */
struct GridPoint
{
    int distance = 0;
    double p = 0.0;
    CheckBasis basis = CheckBasis::Z;

    std::string key() const
    {
        std::ostringstream os;
        os << "d=" << distance << " p=" << p << " "
           << (basis == CheckBasis::X ? 'X' : 'Z');
        return os.str();
    }
};

/** One distinct pipeline: what the engine builds per grid point. */
struct Pipeline
{
    EmbeddingKind embedding = EmbeddingKind::Baseline2D;
    GeneratorConfig config;
    DecoderKind decoder = DecoderKind::UnionFind;
};

/** The GeneratorConfig scanThreshold builds for one grid point. */
GeneratorConfig
pointConfig(const EvaluationSetup& setup, const ThresholdScanConfig& cfg,
            const GridPoint& point)
{
    GeneratorConfig gc;
    gc.distance = point.distance;
    gc.cavityDepth = cfg.cavityDepth;
    gc.schedule = setup.schedule;
    gc.gapModel = cfg.gapModel;
    gc.noise = NoiseModel::atPhysicalRate(point.p, cfg.hardware,
                                          cfg.scaleCoherence);
    gc.memoryBasis = point.basis;
    return gc;
}

std::vector<GridPoint>
gridPoints(const ThresholdScanConfig& cfg)
{
    std::vector<GridPoint> points;
    for (int d : cfg.distances)
        for (double p : cfg.physicalPs)
            for (CheckBasis b : {CheckBasis::Z, CheckBasis::X})
                points.push_back(GridPoint{d, p, b});
    return points;
}

struct ScanWorkload
{
    EvaluationSetup setup;
    ThresholdScanConfig config;
};

/**
 * The two scan workloads share one grid: d in {3,5,7,9} and p at about
 * a quarter and a half of the paper's ~8e-3 threshold, both bases.
 */
ScanWorkload
scanWorkload(const std::string& name, uint64_t seed, bool small)
{
    ScanWorkload w;
    const bool uf = name == "uf-scan";
    w.setup = paperSetups()[uf ? 0 : 4];
    w.config.distances = {3, 5, 7, 9};
    w.config.physicalPs = {2e-3, 4e-3};
    w.config.mc.decoder = uf ? DecoderKind::UnionFind : DecoderKind::Mwpm;
    w.config.mc.compute = ComputeKind::Scalar;
    w.config.mc.threads = kEngineThreads;
    w.config.mc.targetFailures = 0;
    if (uf)
        w.config.mc.trials = small ? 2048 : 12288;
    else
        w.config.mc.trials = small ? 256 : 1536;
    uint64_t s = seed ^ (uf ? 0x0f5ca11ULL : 0xc0ac7ULL);
    w.config.mc.seed = splitmix64(s);
    return w;
}

std::vector<Pipeline>
scanPipelines(const ScanWorkload& w)
{
    std::vector<Pipeline> out;
    for (const GridPoint& pt : gridPoints(w.config))
        out.push_back(Pipeline{w.setup.embedding,
                               pointConfig(w.setup, w.config, pt),
                               w.config.mc.decoder});
    return out;
}

/**
 * The service job mix: a closed batch of union-find jobs over setups 0
 * and 4 with d drawn from {3,5,7}. Ten job shapes are replicated once
 * per priority level, so every level carries the same work; the seed
 * picks each job's MC seed and, through submissionOrder(), the order in
 * which each repetition submits the jobs. The total work is thus the
 * same for every seed, and only its order and samples vary.
 */
std::vector<service::ScanJob>
serviceJobs(uint64_t seed, bool small)
{
    struct Shape
    {
        int setup;
        std::vector<int> distances;
        std::vector<double> ps;
        uint64_t trials;
    };
    static const std::vector<Shape> kShapes = {
        {0, {3, 5, 7}, {2e-3, 4e-3}, 1024}, {0, {3}, {4e-3}, 2048},
        {0, {5}, {2e-3}, 2048},             {0, {3, 5}, {2e-3}, 1024},
        {0, {7}, {4e-3}, 1024},             {4, {3}, {2e-3, 4e-3}, 1024},
        {4, {5}, {4e-3}, 2048},             {4, {3, 7}, {2e-3}, 1024},
        {4, {5, 7}, {4e-3}, 1024},          {4, {3, 5}, {2e-3, 4e-3}, 1024},
    };
    const int levels = small ? 1 : 4;
    uint64_t s = seed ^ 0x5e41ce0b5ULL;
    std::vector<service::ScanJob> jobs;
    for (int level = 0; level < levels; ++level) {
        for (size_t k = 0; k < kShapes.size(); ++k) {
            const Shape& shape = kShapes[k];
            service::ScanJob job;
            job.setup = shape.setup;
            job.distances = shape.distances;
            job.physicalPs = shape.ps;
            job.trials = small ? shape.trials / 8 : shape.trials;
            job.priority = small ? static_cast<int>(k % 4) : level;
            job.decoder = "union-find";
            job.compute = "scalar";
            job.id = "j" + std::to_string(jobs.size());
            job.seed = splitmix64(s);
            jobs.push_back(job);
        }
    }
    return jobs;
}

/**
 * The order in which repetition `rep` submits the jobs: a Fisher-Yates
 * shuffle on (seed, rep). Where a job's turn falls within its priority
 * level's round robin moves its turnaround by up to one round, so each
 * repetition takes another order and a run's medians average over
 * orders rather than depend on one.
 */
std::vector<service::ScanJob>
submissionOrder(std::vector<service::ScanJob> jobs, uint64_t seed, int rep)
{
    uint64_t s = seed ^ 0x0de75000ULL ^ (static_cast<uint64_t>(rep) << 32);
    for (size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[splitmix64(s) % i]);
    return jobs;
}

/** Quantum (trials per slice) of the service workload. */
constexpr uint64_t kServiceQuantum = 2048;

std::vector<Pipeline>
servicePipelines(const std::vector<service::ScanJob>& jobs)
{
    std::vector<Pipeline> out;
    std::set<std::string> seen;
    for (const service::ScanJob& job : jobs) {
        EvaluationSetup setup = service::jobSetup(job);
        ThresholdScanConfig cfg = service::jobScanConfig(job);
        for (const GridPoint& pt : gridPoints(cfg)) {
            std::string id = std::to_string(static_cast<int>(
                                 setup.embedding))
                + "/" + std::to_string(static_cast<int>(setup.schedule))
                + "/" + pt.key();
            if (!seen.insert(id).second)
                continue;
            out.push_back(Pipeline{setup.embedding,
                                   pointConfig(setup, cfg, pt),
                                   cfg.mc.decoder});
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Setup: the four public calls the engine makes per point
// ---------------------------------------------------------------------

struct SetupTimes
{
    double generate = 0, demBuild = 0, samplerInit = 0, decoderInit = 0;
    double total() const
    {
        return generate + demBuild + samplerInit + decoderInit;
    }
};

SetupTimes
setupSweep(const std::vector<Pipeline>& pipelines)
{
    SetupTimes t;
    for (const Pipeline& pl : pipelines) {
        auto t0 = Clock::now();
        GeneratedCircuit gen =
            generateMemoryCircuit(pl.embedding, pl.config);
        auto t1 = Clock::now();
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        auto t2 = Clock::now();
        FaultSampler sampler(dem);
        auto t3 = Clock::now();
        std::unique_ptr<Decoder> decoder = makeDecoder(pl.decoder, dem);
        auto t4 = Clock::now();
        using D = std::chrono::duration<double>;
        t.generate += D(t1 - t0).count();
        t.demBuild += D(t2 - t1).count();
        t.samplerInit += D(t3 - t2).count();
        t.decoderInit += D(t4 - t3).count();
    }
    return t;
}

std::string
setupJson(const SetupTimes& t)
{
    return "{\"total_s\":" + jsonNumber(t.total()) + ",\"generate_s\":"
        + jsonNumber(t.generate) + ",\"dem_build_s\":"
        + jsonNumber(t.demBuild)
        + ",\"sampler_init_s\":" + jsonNumber(t.samplerInit)
        + ",\"decoder_init_s\":" + jsonNumber(t.decoderInit) + "}";
}

// ---------------------------------------------------------------------
// Library metrics (the vlq-metrics-report/1 document)
// ---------------------------------------------------------------------

/** Write the library's metrics report to `path`; exits on failure. */
std::string
writeMetricsReport(const std::string& path)
{
    std::string err;
    if (!obs::writeReportJson(path, &err)) {
        std::cerr << "perfbench: " << err << "\n";
        std::exit(2);
    }
    return path;
}

// ---------------------------------------------------------------------
// Scans: engine repetitions
// ---------------------------------------------------------------------

struct PointCount
{
    std::string key;
    uint64_t trials = 0, failures = 0;
};

std::string
pointsJson(const std::vector<PointCount>& pts)
{
    return jsonList(pts, [](const PointCount& p) {
        return "{\"key\":" + jsonQuote(p.key) + ",\"trials\":"
            + std::to_string(p.trials) + ",\"failures\":"
            + std::to_string(p.failures) + "}";
    });
}

struct ScanRep
{
    double wall = 0, cpu = 0;
    uint64_t committed = 0;
    std::vector<double> turnaround; // per (d, p) point, from rep start
    std::vector<PointCount> points;
};

ScanRep
runScanRep(const ScanWorkload& w)
{
    ScanRep rep;
    ThresholdScanConfig cfg = w.config;
    const auto t0 = Clock::now();
    cfg.pointProgress = [&](const LogicalErrorPoint&) {
        rep.turnaround.push_back(secondsSince(t0));
    };
    const double c0 = processCpuSeconds();
    ThresholdResult result = scanThreshold(w.setup, cfg);
    rep.wall = secondsSince(t0);
    rep.cpu = processCpuSeconds() - c0;
    for (const ThresholdCurve& curve : result.curves) {
        for (const LogicalErrorPoint& pt : curve.points) {
            for (CheckBasis b : {CheckBasis::Z, CheckBasis::X}) {
                const BinomialEstimate& est =
                    b == CheckBasis::Z ? pt.basisZ : pt.basisX;
                GridPoint gp{curve.distance, pt.physicalP, b};
                rep.points.push_back({gp.key(), est.trials,
                                      est.successes});
                rep.committed += est.trials;
            }
        }
    }
    return rep;
}

std::string
scanRepJson(const ScanRep& rep)
{
    return "{\"wall_s\":" + jsonNumber(rep.wall)
        + ",\"cpu_s\":" + jsonNumber(rep.cpu) + ",\"committed\":" + std::to_string(rep.committed)
        + ",\"turnaround_s\":" + jsonList(rep.turnaround, jsonNumber)
        + ",\"points\":" + pointsJson(rep.points) + "}";
}

// ---------------------------------------------------------------------
// Scans: traced replay
// ---------------------------------------------------------------------

/** One timed call, kept in memory until the run ends. */
struct Span
{
    const char* name = "";
    int rep = 0;
    uint64_t start = 0, end = 0;
};

void
writeSpans(const std::vector<Span>& spans, const std::string& path)
{
    std::ofstream out(path);
    for (const Span& s : spans)
        out << "{\"name\":\"" << s.name << "\",\"rep\":" << s.rep
            << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
            << "}\n";
}

struct ReplayResult
{
    double wall = 0;
    uint64_t shots = 0, nontrivial = 0;
    std::vector<PointCount> points;
};

/**
 * Replay the engine's per-point pipeline with spans around each public
 * call: generate -> DEM -> sampler -> decoder, then per batch
 * sampleBatchInto / decodeBatch / count, on the engine's one thread.
 * Trial i of basis B samples from Rng(seed ^ basisSalt(B)).split(i), as
 * the engine does, so the counts must match the engine's exactly.
 */
ReplayResult
replayScan(const ScanWorkload& w, int rep, std::vector<Span>& spans)
{
    ReplayResult res;
    const uint32_t batchSize = std::max<uint32_t>(1, w.config.mc.batchSize);
    const uint64_t trials = w.config.mc.trials;
    const auto t0 = Clock::now();
    for (const GridPoint& gp : gridPoints(w.config)) {
        Span point{"point", rep, nowNs(), 0};
        auto timed = [&](const char* name, auto&& fn) {
            Span s{name, rep, nowNs(), 0};
            auto r = fn();
            s.end = nowNs();
            spans.push_back(s);
            return r;
        };
        const GeneratorConfig gc = pointConfig(w.setup, w.config, gp);
        GeneratedCircuit gen = timed("core.generate", [&] {
            return generateMemoryCircuit(w.setup.embedding, gc);
        });
        DetectorErrorModel dem = timed("dem.build", [&] {
            return DetectorErrorModel::build(gen.circuit);
        });
        auto sampler = timed("dem.sampler_init", [&] {
            return std::make_unique<FaultSampler>(dem);
        });
        std::unique_ptr<Decoder> decoder = timed("decoder.init", [&] {
            return makeDecoder(w.config.mc.decoder, dem);
        });

        const Rng root(w.config.mc.seed
                       ^ (gp.basis == CheckBasis::X
                              ? 0xbadc0ffee0ddf00dULL : 0));
        ShotBatch batch;
        std::vector<uint32_t> predictions;
        uint64_t failures = 0;
        for (uint64_t begin = 0; begin < trials; begin += batchSize) {
            Span bs{"mc.batch", rep, nowNs(), 0};
            const uint32_t count = static_cast<uint32_t>(
                std::min<uint64_t>(batchSize, trials - begin));
            Span ss{"dem.sample", rep, nowNs(), 0};
            batch.reset(dem.numDetectors(), dem.numObservables(), count,
                        begin, dem.numErasureSites());
            sampler->sampleBatchInto(root, batch);
            ss.end = nowNs();
            predictions.resize(count);
            Span ds{"decoder.decode", rep, nowNs(), 0};
            decoder->decodeBatch(batch, std::span<uint32_t>(predictions));
            ds.end = nowNs();
            for (uint32_t s = 0; s < count; ++s)
                failures += predictions[s] != batch.observables(s);
            for (uint32_t wd = 0; wd < batch.wordsPerRow(); ++wd)
                res.nontrivial += static_cast<uint64_t>(
                    __builtin_popcountll(batch.nonTrivialMask(wd)));
            bs.end = nowNs();
            spans.push_back(ss);
            spans.push_back(ds);
            spans.push_back(bs);
        }
        point.end = nowNs();
        spans.push_back(point);
        res.points.push_back({gp.key(), trials, failures});
        res.shots += trials;
    }
    res.wall = secondsSince(t0);
    return res;
}

/** Median microseconds of McCheckpoint::save on a checkpoint file. */
double
checkpointSaveUs(McCheckpoint& ckpt, int repeats)
{
    std::vector<double> us;
    for (int i = 0; i < repeats; ++i) {
        auto t0 = Clock::now();
        std::string err = ckpt.save();
        us.push_back(secondsSince(t0) * 1e6);
        if (!err.empty()) {
            std::cerr << "perfbench: checkpoint save failed: " << err
                      << "\n";
            std::exit(2);
        }
    }
    std::sort(us.begin(), us.end());
    return us[us.size() / 2];
}

// ---------------------------------------------------------------------
// Service: one closed batch through JobService
// ---------------------------------------------------------------------

struct ServiceRep
{
    double wall = 0, cpu = 0;
    int failedJobs = 0;
    std::string eventsFile;
};

ServiceRep
runServiceRep(const std::vector<service::ScanJob>& jobs,
              const std::string& stateDir, const std::string& eventsFile)
{
    std::filesystem::remove_all(stateDir);
    std::filesystem::create_directories(stateDir);
    ServiceRep rep;
    std::ofstream events(eventsFile);
    // Every event carries "t", seconds since the sink was built.
    const auto t0 = Clock::now();
    service::EventSink sink(&events);
    service::JobServiceConfig cfg;
    cfg.stateDir = stateDir;
    cfg.quantumTrials = kServiceQuantum;
    cfg.threads = kEngineThreads;
    service::JobService svc(cfg, sink);
    const double c0 = processCpuSeconds();
    for (const service::ScanJob& job : jobs)
        svc.submit(job);
    rep.failedJobs = svc.runUntilDrained();
    rep.wall = secondsSince(t0);
    rep.cpu = processCpuSeconds() - c0;
    rep.eventsFile = eventsFile;
    return rep;
}

std::string
serviceRepJson(const ServiceRep& rep)
{
    return "{\"wall_s\":" + jsonNumber(rep.wall)
        + ",\"cpu_s\":" + jsonNumber(rep.cpu) + ",\"failed_jobs\":" + std::to_string(rep.failedJobs)
        + ",\"events_file\":" + jsonQuote(rep.eventsFile) + "}";
}

/** Counts of a solo scanThreshold run with the job's knobs. */
std::string
soloCountsJson(const service::ScanJob& job)
{
    ThresholdScanConfig cfg = service::jobScanConfig(job);
    cfg.mc.threads = kEngineThreads;
    ThresholdResult result = scanThreshold(service::jobSetup(job), cfg);
    std::vector<std::string> rows;
    int index = 0;
    for (const ThresholdCurve& curve : result.curves)
        for (const LogicalErrorPoint& pt : curve.points)
            for (const BinomialEstimate* est : {&pt.basisZ, &pt.basisX})
                rows.push_back("[" + std::to_string(index++) + ","
                               + std::to_string(est->trials) + ","
                               + std::to_string(est->successes) + "]");
    return jsonList(rows, [](const std::string& r) { return r; });
}

/** Save timings of the jobs' own state files, in microseconds. */
double
serviceCheckpointSaveUs(const std::vector<service::ScanJob>& jobs,
                        const std::string& stateDir)
{
    std::vector<double> us;
    for (const service::ScanJob& job : jobs) {
        ThresholdScanConfig cfg = service::jobScanConfig(job);
        McCheckpoint ckpt;
        std::string err = ckpt.open(
            stateDir + "/job-" + job.id + ".ckpt",
            thresholdScanFingerprint(service::jobSetup(job), cfg));
        if (!err.empty()) {
            std::cerr << "perfbench: " << err << "\n";
            std::exit(2);
        }
        us.push_back(checkpointSaveUs(ckpt, 3));
    }
    std::sort(us.begin(), us.end());
    return us[us.size() / 2];
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work = ".";
    bool small = false;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload <uf-scan|"
                 "mwpm-compact|service-preempt> --seed <n> --seconds <s>"
                 " --trace <0|1> --work <dir>"
                 " [--size full|small]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = v == "1";
            else if (k == "--work")
                a.work = v;
            else if (k == "--size")
                a.small = v == "small";
            else
                usage("unknown argument " + k);
        } catch (const std::exception&) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload != "uf-scan" && a.workload != "mwpm-compact"
        && a.workload != "service-preempt")
        usage("unknown workload '" + a.workload + "'");
    return a;
}

/** Repeat `rep` until `seconds` have passed (at least `minReps`). */
template <typename F>
void
repeatFor(double seconds, int minReps, F rep)
{
    const auto t0 = Clock::now();
    double last = 0;
    for (int n = 0;; ++n) {
        const double elapsed = secondsSince(t0);
        if (n >= minReps && elapsed + 0.5 * last >= seconds)
            break;
        const auto r0 = Clock::now();
        rep();
        last = secondsSince(r0);
    }
}

int
runScan(const Args& a)
{
    const ScanWorkload w = scanWorkload(a.workload, a.seed, a.small);
    const std::vector<Pipeline> pipelines = scanPipelines(w);
    std::ostringstream out;
    out << "{\"workload\":" << jsonQuote(a.workload)
        << ",\"threads\":" << kEngineThreads << ",\"mc_seed\":"
        << w.config.mc.seed << ",\"trials_per_point\":"
        << w.config.mc.trials << ",\"batch_size\":"
        << w.config.mc.batchSize;

    // A setup sweep before each repetition spreads the setup samples
    // over the whole run, like the repetitions themselves.
    std::vector<std::string> sweeps;
    std::vector<ScanRep> reps;
    repeatFor(a.trace ? a.seconds / 3 : a.seconds, a.trace ? 1 : 3, [&] {
        sweeps.push_back(setupJson(setupSweep(pipelines)));
        reps.push_back(runScanRep(w));
    });
    out << ",\"setup_sweeps\":" << jsonList(sweeps, [](auto& s) {
        return s;
    }) << ",\"reps\":" << jsonList(reps, scanRepJson);

    if (a.trace) {
        obs::setMetricsEnabled(true);
        ScanRep metricsRep = runScanRep(w);
        obs::setMetricsEnabled(false);
        out << ",\"metrics_rep\":{\"rep\":" << scanRepJson(metricsRep)
            << ",\"report_file\":"
            << jsonQuote(writeMetricsReport(a.work + "/metrics-report.json"))
            << "}";

        std::vector<Span> spans;
        std::vector<ReplayResult> replays;
        repeatFor(a.seconds / 3, 1, [&] {
            const int r = static_cast<int>(replays.size());
            replays.push_back(replayScan(w, r, spans));
        });
        const std::string traceFile = a.work + "/trace.jsonl";
        writeSpans(spans, traceFile);
        out << ",\"trace_file\":" << jsonQuote(traceFile) << ",\"replays\":"
            << jsonList(replays, [](const ReplayResult& r) {
                   return "{\"wall_s\":" + jsonNumber(r.wall) + ",\"shots\":"
                       + std::to_string(r.shots) + ",\"nontrivial\":"
                       + std::to_string(r.nontrivial) + ",\"points\":"
                       + pointsJson(r.points) + "}";
               });

        // Checkpoint cost at this scan's size: the engine's file for
        // the whole grid, saved with every point's final counts.
        McCheckpoint ckpt;
        ThresholdScanConfig cfg = w.config;
        std::string err = ckpt.open(a.work + "/scan.ckpt",
                                    thresholdScanFingerprint(w.setup, cfg));
        if (!err.empty()) {
            std::cerr << "perfbench: " << err << "\n";
            return 2;
        }
        const std::vector<GridPoint> grid = gridPoints(cfg);
        for (size_t i = 0; i < grid.size(); ++i)
            ckpt.update(checkpointPointKey(
                            w.setup.embedding,
                            pointConfig(w.setup, cfg, grid[i])),
                        {reps[0].points[i].trials,
                         reps[0].points[i].failures, true});
        out << ",\"checkpoint_save_us\":"
            << jsonNumber(checkpointSaveUs(ckpt, 5));
    }
    out << ",\"peak_rss_mb\":" << jsonNumber(peakRssMb()) << "}";
    std::cout << out.str() << std::endl;
    return 0;
}

int
runService(const Args& a)
{
    const std::vector<service::ScanJob> jobs = serviceJobs(a.seed, a.small);
    std::ostringstream out;
    out << "{\"workload\":" << jsonQuote(a.workload)
        << ",\"threads\":" << kEngineThreads << ",\"quantum\":"
        << kServiceQuantum << ",\"jobs\":"
        << jsonList(jobs, [](const service::ScanJob& j) {
               return "{\"id\":" + jsonQuote(j.id) + ",\"request\":"
                   + jsonQuote(j.requestLine()) + "}";
           });

    const std::vector<Pipeline> pipelines = servicePipelines(jobs);
    std::vector<std::string> sweeps;
    std::vector<ServiceRep> reps;
    int n = 0;
    auto rep = [&] {
        sweeps.push_back(setupJson(setupSweep(pipelines)));
        const std::string tag = "rep" + std::to_string(n);
        reps.push_back(runServiceRep(submissionOrder(jobs, a.seed, n),
                                     a.work + "/state-" + tag,
                                     a.work + "/events-" + tag + ".jsonl"));
        std::filesystem::remove_all(a.work + "/state-" + tag);
        ++n;
    };
    repeatFor(a.trace ? a.seconds / 2 : a.seconds, a.trace ? 1 : 3, rep);
    out << ",\"setup_sweeps\":" << jsonList(sweeps, [](auto& s) {
        return s;
    }) << ",\"reps\":" << jsonList(reps, serviceRepJson);

    if (a.trace) {
        const std::string stateDir = a.work + "/state-traced";
        obs::setMetricsEnabled(true);
        ServiceRep traced =
            runServiceRep(submissionOrder(jobs, a.seed, n), stateDir,
                          a.work + "/events-traced.jsonl");
        obs::setMetricsEnabled(false);
        out << ",\"metrics_rep\":{\"rep\":" << serviceRepJson(traced)
            << ",\"report_file\":"
            << jsonQuote(writeMetricsReport(a.work + "/metrics-report.json"))
            << "},\"checkpoint_save_us\":"
            << jsonNumber(serviceCheckpointSaveUs(jobs, stateDir));
        std::filesystem::remove_all(stateDir);
    }

    // Correctness reference: each job's counts from a solo scan.
    out << ",\"solo\":{";
    for (size_t i = 0; i < jobs.size(); ++i)
        out << (i ? "," : "") << jsonQuote(jobs[i].id) << ":"
            << soloCountsJson(jobs[i]);
    out << "},\"peak_rss_mb\":" << jsonNumber(peakRssMb()) << "}";
    std::cout << out.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    clearVlqEnvironment();
    const Args a = parseArgs(argc, argv);
    std::filesystem::create_directories(a.work);
    return a.workload == "service-preempt" ? runService(a) : runScan(a);
}
