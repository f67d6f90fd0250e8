#include "decoder/mwpm_decoder.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "decoder/blossom.h"
#include "util/logging.h"

namespace vlq {

namespace {

/** The weight of matchingPair() from its three unrounded parts. */
double
matchingWeight(double bulk, double bu, double bv)
{
    return static_cast<float>(std::min(bulk, bu + bv));
}

} // namespace

ShortestPath
matchingPair(const ShortestPaths& paths, uint32_t u, uint32_t v)
{
    const ShortestPath bulk = paths.pair(u, v);
    const ShortestPath bu = paths.boundary(u);
    const ShortestPath bv = paths.boundary(v);
    return ShortestPath{
        matchingWeight(bulk.weight, bu.weight, bv.weight),
        bulk.weight <= bu.weight + bv.weight
            ? bulk.observables
            : bu.observables ^ bv.observables};
}

ShortestPath
matchingBoundary(const ShortestPaths& paths, uint32_t u)
{
    const ShortestPath b = paths.boundary(u);
    return ShortestPath{static_cast<float>(b.weight), b.observables};
}

MwpmDecoder::MwpmDecoder(const DetectorErrorModel& dem)
    : paths_(DecodingGraph::build(dem))
{
}

uint32_t
MwpmDecoder::decodeShot(const std::vector<uint32_t>& events,
                        const std::vector<uint32_t>& /*erasureSites*/) const
{
    return matchEvents(paths_, events);
}

namespace {

/** Per-thread scratch of matchEvents, reused across calls. */
struct MatchScratch
{
    std::vector<ShortestPath> boundary; // b(i) per event
    std::vector<double> pair;    // d(i, j) for i < j, row-major m x m
    std::vector<int> parent;     // union-find over events
    std::vector<int> compStart;  // CSR of components over `members`
    std::vector<int> members;    // event indices, ascending per comp
    std::vector<int> fill;
    std::vector<MatchEdge> edges;
    std::vector<int> mate;

    int
    find(int v)
    {
        while (parent[static_cast<size_t>(v)] != v) {
            int& p = parent[static_cast<size_t>(v)];
            p = parent[static_cast<size_t>(p)];
            v = p;
        }
        return v;
    }
};

} // namespace

uint32_t
matchEvents(const ShortestPaths& paths, const std::vector<uint32_t>& events,
            double* weight)
{
    if (weight)
        *weight = 0.0;
    const int m = static_cast<int>(events.size());
    if (m == 0)
        return 0;
    // The component split reads pair (i, j) from row events[i].
    VLQ_ASSERT(std::adjacent_find(events.begin(), events.end(),
                                  std::greater_equal<>())
                   == events.end(),
               "matchEvents needs strictly ascending events");

    static thread_local MatchScratch s;
    const auto um = static_cast<size_t>(m);
    s.boundary.resize(um);
    s.pair.resize(um * um);
    s.parent.resize(um);
    for (size_t i = 0; i < um; ++i) {
        s.boundary[i] = matchingBoundary(paths, events[i]);
        s.parent[i] = static_cast<int>(i);
    }

    // Component split: events i and j share a component only when
    // pairing them can beat sending both to the boundary. Any optimal
    // pair failing that test swaps for two boundary matches at no
    // cost, so components match independently. Events ascend, so
    // each pair is read straight from row events[i] of the oracle.
    for (size_t i = 0; i + 1 < um; ++i) {
        const uint32_t u = events[i];
        const double* row = paths.rowWeights(u);
        const double bu = paths.boundary(u).weight;
        for (size_t j = i + 1; j < um; ++j) {
            const uint32_t v = events[j];
            const double d = matchingWeight(
                row[v - u - 1], bu, paths.boundary(v).weight);
            s.pair[i * um + j] = d;
            if (d < s.boundary[i].weight + s.boundary[j].weight) {
                int ri = s.find(static_cast<int>(i));
                int rj = s.find(static_cast<int>(j));
                if (ri != rj)
                    s.parent[static_cast<size_t>(std::max(ri, rj))] =
                        std::min(ri, rj);
            }
        }
    }

    // Group events by component root (the component's smallest
    // event), ascending within each component.
    s.compStart.assign(um + 1, 0);
    for (int i = 0; i < m; ++i)
        ++s.compStart[static_cast<size_t>(s.find(i)) + 1];
    for (size_t r = 0; r < um; ++r)
        s.compStart[r + 1] += s.compStart[r];
    s.members.resize(um);
    s.fill.assign(s.compStart.begin(), s.compStart.end() - 1);
    for (int i = 0; i < m; ++i)
        s.members[static_cast<size_t>(
            s.fill[static_cast<size_t>(s.find(i))]++)] = i;

    double total = 0.0;
    uint32_t obs = 0;
    for (size_t r = 0; r < um; ++r) {
        const int* comp = s.members.data() + s.compStart[r];
        const int k = s.compStart[r + 1] - s.compStart[r];
        if (k == 0)
            continue;
        if (k == 1) {
            const auto a = static_cast<size_t>(comp[0]);
            VLQ_ASSERT(std::isfinite(s.boundary[a].weight),
                       "graph admits no perfect matching");
            total += s.boundary[a].weight;
            obs ^= s.boundary[a].observables;
            continue;
        }
        if (k == 2) {
            const auto a = static_cast<size_t>(comp[0]);
            const auto b = static_cast<size_t>(comp[1]);
            total += s.pair[a * um + b];
            obs ^= matchingPair(paths, events[a], events[b]).observables;
            continue;
        }

        // k events, plus one boundary vertex (index k) when k is odd.
        // A pair's edge weighs min(d(i,j), b(i)+b(j)), the second term
        // standing for both events matching the boundary. The table's
        // d(i,j) may already run through the boundary, so that term
        // wins only by float rounding of the stored distances; keeping
        // it gives exactly the boundary-copy formulation's options.
        s.edges.clear();
        for (int x = 0; x < k; ++x) {
            const auto a = static_cast<size_t>(comp[x]);
            for (int y = x + 1; y < k; ++y) {
                const auto b = static_cast<size_t>(comp[y]);
                double w = std::min(s.pair[a * um + b],
                                    s.boundary[a].weight
                                        + s.boundary[b].weight);
                if (std::isfinite(w))
                    s.edges.push_back(MatchEdge{x, y, w});
            }
            if ((k & 1) && std::isfinite(s.boundary[a].weight))
                s.edges.push_back(MatchEdge{x, k, s.boundary[a].weight});
        }
        minWeightPerfectMatching(k + (k & 1), s.edges, s.mate);

        for (int x = 0; x < k; ++x) {
            const int y = s.mate[static_cast<size_t>(x)];
            const auto a = static_cast<size_t>(comp[x]);
            if (y == k) {
                total += s.boundary[a].weight;
                obs ^= s.boundary[a].observables;
                continue;
            }
            if (y < x)
                continue;
            const auto b = static_cast<size_t>(comp[y]);
            const double viaBoundary =
                s.boundary[a].weight + s.boundary[b].weight;
            if (viaBoundary < s.pair[a * um + b]) {
                total += viaBoundary;
                obs ^= s.boundary[a].observables
                     ^ s.boundary[b].observables;
            } else {
                total += s.pair[a * um + b];
                obs ^= matchingPair(paths, events[a], events[b])
                           .observables;
            }
        }
    }
    if (weight)
        *weight = total;
    return obs;
}

} // namespace vlq
