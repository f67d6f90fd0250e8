#include "decoder/mwpm_decoder.h"

#include <algorithm>
#include <cmath>

#include "decoder/blossom.h"
#include "dem/shot_batch.h"
#include "util/logging.h"

namespace vlq {

MwpmDecoder::MwpmDecoder(const DetectorErrorModel& dem)
    : graph_(MatchingGraph::build(dem))
{
}

uint32_t
MwpmDecoder::decode(const BitVec& detectorFlips) const
{
    return decodeEvents(detectorFlips.onesIndices());
}

void
MwpmDecoder::decodeBatch(const ShotBatch& batch,
                         std::span<uint32_t> predictions) const
{
    decodeBatchEvents(batch, predictions,
                      [this](const std::vector<uint32_t>& events) {
                          return decodeEvents(events);
                      });
}

uint32_t
MwpmDecoder::decodeEvents(const std::vector<uint32_t>& events) const
{
    const int m = static_cast<int>(events.size());
    if (m == 0)
        return 0;

    // Nodes 0..m-1: events; m..2m-1: private boundary copies. The edge
    // buffer keeps its capacity across shots of a batch.
    static thread_local std::vector<MatchEdge> edges;
    edges.clear();
    edges.reserve(static_cast<size_t>(m) * m + m);
    for (int i = 0; i < m; ++i) {
        for (int j = i + 1; j < m; ++j) {
            double w = graph_.distance(events[static_cast<size_t>(i)],
                                       events[static_cast<size_t>(j)]);
            if (std::isfinite(w))
                edges.push_back(MatchEdge{i, j, w});
        }
        double wb =
            graph_.boundaryDistance(events[static_cast<size_t>(i)]);
        if (std::isfinite(wb))
            edges.push_back(MatchEdge{i, m + i, wb});
        for (int j = i + 1; j < m; ++j)
            edges.push_back(MatchEdge{m + i, m + j, 0.0});
    }

    std::vector<int> mate = minWeightPerfectMatching(2 * m, edges);

    uint32_t obs = 0;
    for (int i = 0; i < m; ++i) {
        int j = mate[static_cast<size_t>(i)];
        if (j == m + i) {
            obs ^= graph_.boundaryObservables(
                events[static_cast<size_t>(i)]);
        } else if (j > i && j < m) {
            obs ^= graph_.pathObservables(events[static_cast<size_t>(i)],
                                          events[static_cast<size_t>(j)]);
        }
    }
    return obs;
}

GreedyDecoder::GreedyDecoder(const DetectorErrorModel& dem)
    : graph_(MatchingGraph::build(dem))
{
}

uint32_t
GreedyDecoder::decode(const BitVec& detectorFlips) const
{
    return decodeEvents(detectorFlips.onesIndices());
}

void
GreedyDecoder::decodeBatch(const ShotBatch& batch,
                           std::span<uint32_t> predictions) const
{
    decodeBatchEvents(batch, predictions,
                      [this](const std::vector<uint32_t>& events) {
                          return decodeEvents(events);
                      });
}

uint32_t
GreedyDecoder::decodeEvents(const std::vector<uint32_t>& events) const
{
    const size_t m = events.size();
    if (m == 0)
        return 0;

    struct Cand
    {
        double w;
        uint32_t i;
        uint32_t j; // j == i means boundary
    };
    static thread_local std::vector<Cand> cands;
    cands.clear();
    for (uint32_t i = 0; i < m; ++i) {
        for (uint32_t j = i + 1; j < m; ++j) {
            double w = graph_.distance(events[i], events[j]);
            if (std::isfinite(w))
                cands.push_back(Cand{w, i, j});
        }
        double wb = graph_.boundaryDistance(events[i]);
        if (std::isfinite(wb))
            cands.push_back(Cand{wb, i, i});
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) { return a.w < b.w; });

    static thread_local std::vector<uint8_t> used;
    used.assign(m, 0);
    uint32_t obs = 0;
    for (const auto& c : cands) {
        if (used[c.i] || (c.j != c.i && used[c.j]))
            continue;
        used[c.i] = 1;
        if (c.j == c.i) {
            obs ^= graph_.boundaryObservables(events[c.i]);
        } else {
            used[c.j] = 1;
            obs ^= graph_.pathObservables(events[c.i], events[c.j]);
        }
    }
    return obs;
}

} // namespace vlq
