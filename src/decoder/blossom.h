#ifndef VLQ_DECODER_BLOSSOM_H
#define VLQ_DECODER_BLOSSOM_H

#include <cstdint>
#include <vector>

namespace vlq {

/** An undirected weighted edge for matching problems. */
struct MatchEdge
{
    int u = 0;
    int v = 0;
    double weight = 0.0;
};

/**
 * Exact maximum-weight matching in general graphs.
 *
 * Implementation of Galil's O(V^3) blossom algorithm (the formulation
 * popularized by van Rantwijk and used by networkx). Weights are scaled
 * to even integers internally so that all dual-variable arithmetic is
 * exact; results are deterministic. Each thread keeps one solver whose
 * buffers are re-initialised per call, so repeated calls allocate only
 * when an instance outgrows every earlier one.
 *
 * @param numVertices vertex count (vertices are 0..numVertices-1).
 * @param edges       edge list; parallel edges and self-loops are
 *                    rejected.
 * @param maxCardinality when true, only maximum-cardinality matchings
 *                    are considered (needed to force perfect matchings).
 * @return mate[v] = matched partner of v, or -1 when unmatched.
 */
std::vector<int> maxWeightMatching(int numVertices,
                                   const std::vector<MatchEdge>& edges,
                                   bool maxCardinality);

/**
 * Exact minimum-weight perfect matching: complement weights and run
 * max-cardinality maximum-weight matching. The graph must admit a
 * perfect matching (checked: aborts otherwise). Writes mate[v] for
 * every vertex into `mate`, reusing its capacity.
 */
void minWeightPerfectMatching(int numVertices,
                              const std::vector<MatchEdge>& edges,
                              std::vector<int>& mate);

/** Convenience form of minWeightPerfectMatching returning the mates. */
std::vector<int> minWeightPerfectMatching(
    int numVertices, const std::vector<MatchEdge>& edges);

} // namespace vlq

#endif // VLQ_DECODER_BLOSSOM_H
