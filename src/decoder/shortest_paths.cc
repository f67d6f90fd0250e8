#include "decoder/shortest_paths.h"

#include <limits>
#include <queue>
#include <utility>

namespace vlq {

ShortestPaths::ShortestPaths(DecodingGraph graph)
    : graph_(std::move(graph))
{
    const uint32_t n = graph_.numDetectors();
    boundary_ = dijkstra(graph_.boundaryNode());
    boundary_.resize(n);
    // Uninitialised on purpose: pages of never-filled rows stay
    // untouched.
    const size_t cells = n > 0 ? static_cast<size_t>(n) * (n - 1) / 2 : 0;
    rowWeight_ = std::make_unique_for_overwrite<double[]>(cells);
    rowObs_ = std::make_unique_for_overwrite<uint32_t[]>(cells);
    rowOnce_ = std::make_unique<std::once_flag[]>(n);
    rowReady_ = std::make_unique<std::atomic<bool>[]>(n);
}

void
ShortestPaths::fillRow(uint32_t u) const
{
    std::call_once(rowOnce_[u], [&] {
        const std::vector<ShortestPath> row = dijkstra(u);
        const size_t begin = rowStart(u);
        for (uint32_t v = u + 1; v < graph_.numDetectors(); ++v) {
            rowWeight_[begin + (v - u - 1)] = row[v].weight;
            rowObs_[begin + (v - u - 1)] = row[v].observables;
        }
        rowReady_[u].store(true);
    });
}

std::vector<ShortestPath>
ShortestPaths::dijkstra(uint32_t src) const
{
    const uint32_t boundary = graph_.boundaryNode();
    const DecodingGraph::SoA& g = graph_.soa();
    std::vector<ShortestPath> path(
        graph_.numNodes(),
        ShortestPath{std::numeric_limits<double>::infinity(), 0});
    std::vector<uint8_t> done(graph_.numNodes(), 0);
    using QItem = std::pair<double, uint32_t>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>>
        pq;
    path[src].weight = 0.0;
    pq.push({0.0, src});
    while (!pq.empty()) {
        auto [d, x] = pq.top();
        pq.pop();
        if (done[x])
            continue;
        done[x] = 1;
        for (uint32_t si = g.vertexBegin[x]; si < g.vertexBegin[x + 1];
             ++si) {
            const uint32_t to = g.slotOther[si];
            if (to == boundary)
                continue;
            const uint32_t e = g.slotEdge[si];
            const double nd = d + g.edgeWeight[e];
            if (nd < path[to].weight) {
                path[to] = ShortestPath{nd, path[x].observables
                                                ^ g.edgeObs[e]};
                pq.push({nd, to});
            }
        }
    }
    return path;
}

} // namespace vlq
