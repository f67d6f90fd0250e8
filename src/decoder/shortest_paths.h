#ifndef VLQ_DECODER_SHORTEST_PATHS_H
#define VLQ_DECODER_SHORTEST_PATHS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "decoder/decoding_graph.h"

namespace vlq {

/**
 * Weight (infinite when there is no path) and observable mask (XOR
 * along the path) of one path.
 */
struct ShortestPath
{
    double weight;
    uint32_t observables;
};

/**
 * The decoders' one shortest-path oracle over a decoding graph it owns.
 *
 * Two tables, both filled by the same Dijkstra routine, which never
 * steps into the boundary node unless it starts there:
 *  - boundary(v), the shortest path from detector v to the boundary,
 *    comes from one Dijkstra out of the boundary node at construction;
 *  - pair(u, v), the shortest bulk path between two detectors (it
 *    never passes through the boundary; pairing both ends with the
 *    boundary is each decoder's separate option), comes from lazily
 *    filled rows. The first query touching row min(u, v) runs one
 *    Dijkstra from that detector and stores the row's entries v > u.
 *
 * Each row is filled once under its own std::call_once and is
 * read-only afterwards, so any number of threads share the rows
 * without locks. A pair is always read from row min(u, v), so every
 * value is a pure function of the graph: it does not depend on which
 * rows were filled first, or by which thread. The rows form one flat
 * upper-triangular matrix (weights and observables in two parallel
 * arrays, so weight-only scans touch half the memory), allocated
 * uninitialised at construction: rows that are never queried cost
 * address space, not memory.
 */
class ShortestPaths
{
  public:
    explicit ShortestPaths(DecodingGraph graph);

    const DecodingGraph& graph() const { return graph_; }

    /** Number of detector nodes (excludes the boundary). */
    uint32_t numDetectors() const { return graph_.numDetectors(); }

    /** Shortest path from detector v to the boundary. */
    ShortestPath boundary(uint32_t v) const { return boundary_[v]; }

    /**
     * Shortest bulk path between detectors u and v (infinite weight
     * when none exists; weight 0 when u == v). Thread-safe; fills row
     * min(u, v) on first use.
     */
    ShortestPath pair(uint32_t u, uint32_t v) const
    {
        if (u == v)
            return ShortestPath{0.0, 0};
        if (u > v)
            std::swap(u, v);
        if (!rowReady_[u].load())
            fillRow(u);
        const size_t at = rowStart(u) + (v - u - 1);
        return ShortestPath{rowWeight_[at], rowObs_[at]};
    }

    /**
     * Row u's bulk weights: entry v - u - 1 is pair(u, v).weight for
     * every v > u. Fills the row on first use.
     */
    const double* rowWeights(uint32_t u) const
    {
        if (!rowReady_[u].load())
            fillRow(u);
        return rowWeight_.get() + rowStart(u);
    }

  private:
    /** Offset of row u (entries v = u+1 .. n-1) in the triangle. */
    size_t rowStart(uint32_t u) const
    {
        const size_t n = graph_.numDetectors();
        return u * (2 * n - u - 1) / 2;
    }

    void fillRow(uint32_t u) const;

    /** Single-source Dijkstra: the path from src to every node. */
    std::vector<ShortestPath> dijkstra(uint32_t src) const;

    DecodingGraph graph_;
    std::vector<ShortestPath> boundary_;
    std::unique_ptr<double[]> rowWeight_;
    std::unique_ptr<uint32_t[]> rowObs_;
    std::unique_ptr<std::once_flag[]> rowOnce_;
    // Set by the row's call_once after the fill: reads of a published
    // row skip call_once's per-call overhead (it sits on every pair
    // lookup of the decoders' hot loops).
    std::unique_ptr<std::atomic<bool>[]> rowReady_;
};

} // namespace vlq

#endif // VLQ_DECODER_SHORTEST_PATHS_H
