#include "decoder/union_find.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "decoder/mwpm_decoder.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace vlq {

namespace {

/**
 * Per-thread workspace. Sized to the graph on first contact (vectors
 * keep their capacity between shots, so steady-state decoding does not
 * allocate) and shared safely across decoder instances because decode()
 * never yields mid-use.
 *
 * Stamps (stamp, EdgeState::claimStamp) compare against a
 * monotonically increasing per-thread counter instead of being cleared
 * per shot, and the peel's `visited` marks are cleared by the peel
 * itself: the exact-matching fast path therefore touches only
 * O(events) scratch state per shot. Only the growth path pays the full
 * per-shot reset of the cluster arenas.
 */
struct Scratch
{
    // Cluster state, indexed by node; parity/btouch are valid at roots.
    std::vector<uint32_t> parent;
    std::vector<uint8_t> parity;
    std::vector<uint8_t> btouch;
    std::vector<uint8_t> absorbed;
    std::vector<uint8_t> defect;
    std::vector<std::vector<uint32_t>> frontier;
    std::vector<uint64_t> stamp;
    std::vector<uint32_t> active;
    std::vector<uint32_t> nextActive;

    // Edge growth state, consolidated into one 16-byte record so the
    // latency-bound frontier scan pays one cache line per edge visit
    // instead of five (support/grown/stamp/mult/capacity lived in
    // separate arrays before; the claim loop was ~5x slower for it).
    // `claimStamp` doubles as a lazy per-shot reset: any stamp older
    // than the shot's base stamp means support/grown/capacity are
    // stale and are reloaded, so no O(numEdges) clear runs per shot
    // and the record never outlives its decoder.
    struct EdgeState
    {
        uint64_t claimStamp = 0;
        uint16_t support = 0;
        uint16_t capacity = 0; // the decoder's, reloaded per shot
        uint8_t mult = 0;
        uint8_t grown = 0;
        uint8_t pad[2] = {0, 0};
    };
    std::vector<EdgeState> edge;
    std::vector<uint32_t> grownList;
    std::vector<uint32_t> roundEdges;
    std::vector<uint32_t> mergeQueue;
    // Erasure state: per-edge flag (set/cleared per shot through the
    // erased list) and the (vertex, edge) pairs of erased
    // boundary-incident edges -- a cluster holding one has a free
    // boundary exit for its leftover defect.
    std::vector<uint8_t> erasedEdge;
    std::vector<std::pair<uint32_t, uint32_t>> erasedBoundary;

    // Per-cluster resolution state.
    std::vector<std::vector<uint32_t>> clusterDefects; // by root
    std::vector<std::vector<uint32_t>> clusterEdges;   // by root, erased shots
    std::vector<uint32_t> roots;
    // Erased-cluster forest peel.
    std::vector<uint8_t> visited; // BFS marks, cleared after each peel
    std::vector<std::vector<uint32_t>> treeAdj; // by vertex
    std::vector<uint32_t> bfsVerts;
    std::vector<uint32_t> order;
    std::vector<uint32_t> parentEdge;
    // Exact-matching workspace (persists across shots of a batch).
    std::vector<double> pairW;
    std::vector<uint32_t> pairObs;
    std::vector<double> bndW;
    std::vector<uint32_t> bndObs;
    std::vector<double> defLB;
    uint64_t counter = 0; // stamp source; never reset

    /** Size arrays for a graph; clears nothing (fast-path entry). */
    void ensure(uint32_t numNodes, uint32_t numEdges)
    {
        if (parent.size() < numNodes) {
            size_t old = parent.size();
            parent.resize(numNodes);
            for (size_t i = old; i < numNodes; ++i)
                parent[i] = static_cast<uint32_t>(i);
            parity.resize(numNodes, 0);
            btouch.resize(numNodes, 0);
            absorbed.resize(numNodes, 0);
            defect.resize(numNodes, 0);
            frontier.resize(numNodes);
            stamp.resize(numNodes, 0);
            clusterDefects.resize(numNodes);
            clusterEdges.resize(numNodes);
            treeAdj.resize(numNodes);
            parentEdge.resize(numNodes);
            visited.resize(numNodes, 0);
        }
        if (edge.size() < numEdges) {
            edge.resize(numEdges);
            erasedEdge.resize(numEdges, 0);
        }
    }

    /** Per-shot reset of the node-side cluster arenas (growth-path
     *  entry). The stamp and edge-growth arrays are deliberately left
     *  alone -- they are maintained by the monotonic-counter and
     *  claimStamp protocols. */
    void reset(uint32_t numNodes)
    {
        for (uint32_t i = 0; i < numNodes; ++i)
            parent[i] = i;
        std::fill_n(parity.begin(), numNodes, uint8_t{0});
        std::fill_n(btouch.begin(), numNodes, uint8_t{0});
        std::fill_n(absorbed.begin(), numNodes, uint8_t{0});
        std::fill_n(defect.begin(), numNodes, uint8_t{0});
        for (uint32_t i = 0; i < numNodes; ++i)
            frontier[i].clear();
        active.clear();
        nextActive.clear();
        grownList.clear();
        roundEdges.clear();
        mergeQueue.clear();
        roots.clear();
        bfsVerts.clear();
        order.clear();
    }

    uint32_t find(uint32_t x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    }
};

Scratch&
scratch()
{
    static thread_local Scratch s;
    return s;
}

/** Shared empty erased-edge list for the non-erasure entry points. */
const std::vector<uint32_t> kNoErasedEdges;

} // namespace

UnionFindDecoder::UnionFindDecoder(const DetectorErrorModel& dem,
                                   UnionFindOptions options)
    : UnionFindDecoder(DecodingGraph::build(dem), options)
{
    // Map each heralded-erasure site to the graph edges its outcomes
    // land on, so a raised herald can seed exactly those edges at zero
    // weight. Outcomes with empty signatures (the I branch, or Paulis
    // the detectors cannot see) have no edge to seed and are skipped.
    erasureSiteEdges_.resize(dem.numErasureSites());
    const DecodingGraph& graph = paths_.graph();
    const uint32_t boundary = graph.boundaryNode();
    for (const auto& ch : dem.channels()) {
        if (ch.erasureSite < 0)
            continue;
        auto& edges =
            erasureSiteEdges_[static_cast<uint32_t>(ch.erasureSite)];
        for (const FaultOutcome& o : dem.outcomes(ch)) {
            std::span<const uint32_t> dets = dem.detectors(o);
            int32_t e = -1;
            if (dets.size() == 1)
                e = graph.findEdge(dets[0], boundary);
            else if (dets.size() == 2)
                e = graph.findEdge(dets[0], dets[1]);
            if (e < 0)
                continue;
            uint32_t eu = static_cast<uint32_t>(e);
            if (std::find(edges.begin(), edges.end(), eu) == edges.end())
                edges.push_back(eu);
        }
    }
}

UnionFindDecoder::UnionFindDecoder(DecodingGraph graph,
                                   UnionFindOptions options)
    : paths_(std::move(graph)),
      exactSyndromeThreshold_(
          std::min<uint32_t>(options.exactSyndromeThreshold, 16))
{
    const std::vector<DecodingEdge>& edges = paths_.graph().edges();
    const double minW = paths_.graph().minWeight();
    capacity_.resize(edges.size());
    for (size_t i = 0; i < capacity_.size(); ++i) {
        double ticks = minW > 0.0
            ? edges[i].weight / minW * static_cast<double>(kGranularity)
            : static_cast<double>(kGranularity);
        capacity_[i] = static_cast<uint16_t>(
            std::clamp<long long>(std::llround(ticks), 1, 60000));
    }
}

uint32_t
UnionFindDecoder::decode(const BitVec& detectorFlips,
                         DecodeInfo* info) const
{
    return decodeEvents(detectorFlips.onesIndices(), kNoErasedEdges,
                        info);
}

uint32_t
UnionFindDecoder::decodeErasedEdges(
    const BitVec& detectorFlips,
    const std::vector<uint32_t>& erasedEdges, DecodeInfo* info) const
{
    return decodeEvents(detectorFlips.onesIndices(), erasedEdges, info);
}

uint32_t
UnionFindDecoder::decodeShot(const std::vector<uint32_t>& events,
                             const std::vector<uint32_t>& erasureSites) const
{
    if (erasureSites.empty())
        return decodeEvents(events, kNoErasedEdges, nullptr);
    obs::StageTimer seedTimer("uf.erasure_seed");
    thread_local std::vector<uint32_t> edges;
    edges.clear();
    for (uint32_t site : erasureSites) {
        // Graph-built decoders have no site map; heralds are then
        // decoded as ordinary syndromes.
        if (site >= erasureSiteEdges_.size())
            continue;
        const auto& se = erasureSiteEdges_[site];
        edges.insert(edges.end(), se.begin(), se.end());
    }
    return decodeEvents(events, edges, nullptr);
}

uint32_t
UnionFindDecoder::decodeEvents(const std::vector<uint32_t>& events,
                               const std::vector<uint32_t>& erasedEdges,
                               DecodeInfo* info) const
{
    if (info)
        *info = DecodeInfo{};
    // With no detection events there is nothing to correct: erased
    // clusters without defects peel to the empty correction anyway.
    if (events.empty())
        return 0;
    const bool hasErasures = !erasedEdges.empty();

    const DecodingGraph& graph = paths_.graph();
    const uint32_t n = graph.numNodes();
    const uint32_t numEdges = static_cast<uint32_t>(graph.edges().size());
    const uint32_t boundary = graph.boundaryNode();
    const DecodingGraph::SoA& g = graph.soa();

    Scratch& s = scratch();
    s.ensure(n, numEdges);

    constexpr double kInf = std::numeric_limits<double>::infinity();
    uint32_t obs = 0;
    auto& pairW = s.pairW;
    auto& pairObs = s.pairObs;
    auto& bndW = s.bndW;
    auto& bndObs = s.bndObs;
    auto& defLB = s.defLB;

    /**
     * Exact minimum-weight matching of one defect set (boundary
     * optional) over global shortest-path distances from the oracle,
     * by branch-and-bound. Used for whole small syndromes (fast path)
     * and for small grown clusters, where it is cheaper than the
     * blossom core. Pair paths never route through the boundary node --
     * boundary pairing is a separate option, exactly as in the
     * blossom formulation.
     */
    auto matchDefectsExact = [&](const std::vector<uint32_t>& defects) {
        const size_t k = defects.size();
        // Lone defect: its boundary path is the matching.
        if (k == 1) {
            const ShortestPath b = paths_.boundary(defects[0]);
            if (std::isfinite(b.weight))
                obs ^= b.observables;
            return;
        }
        // Defect pair: one compare, no arrays. Ties prefer the
        // boundary, matching the branch-and-bound's order.
        if (k == 2) {
            const ShortestPath p = paths_.pair(defects[0], defects[1]);
            const ShortestPath b0 = paths_.boundary(defects[0]);
            const ShortestPath b1 = paths_.boundary(defects[1]);
            const double b = b0.weight + b1.weight;
            if (p.weight < b)
                obs ^= p.observables;
            else if (std::isfinite(b))
                obs ^= b0.observables ^ b1.observables;
            else if (std::isfinite(p.weight))
                obs ^= p.observables;
            return;
        }
        pairW.assign(k * k, kInf);
        pairObs.assign(k * k, 0);
        bndW.resize(k);
        bndObs.resize(k);
        for (size_t i = 0; i < k; ++i) {
            const ShortestPath b = paths_.boundary(defects[i]);
            bndW[i] = b.weight;
            bndObs[i] = b.observables;
            for (size_t j = i + 1; j < k; ++j) {
                const ShortestPath p = paths_.pair(defects[i], defects[j]);
                pairW[i * k + j] = pairW[j * k + i] = p.weight;
                pairObs[i * k + j] = pairObs[j * k + i] = p.observables;
            }
        }

        // Exact minimum-weight matching of the defects (boundary
        // optional), by branch-and-bound over pairings. Each defect
        // must pay at least min(boundary, cheapest pair / 2) in any
        // completion; the sum of those per-defect floors over the
        // unmatched set is an admissible bound that prunes most of
        // the pairing tree at the larger defect counts.
        defLB.resize(k);
        for (size_t i = 0; i < k; ++i) {
            double floor_i = bndW[i];
            for (size_t j = 0; j < k; ++j)
                if (j != i)
                    floor_i = std::min(floor_i, 0.5 * pairW[i * k + j]);
            defLB[i] = std::isfinite(floor_i) ? floor_i : 0.0;
        }
        // A greedy nearest-available pairing seeds the incumbent, so
        // the branch-and-bound starts with a near-optimal bound and
        // spends its time proving optimality, not finding it. When the
        // greedy weight already equals the optimum, keeping its answer
        // is a legitimate minimum-weight (degenerate) solution.
        double bestW = kInf;
        uint32_t bestObs = 0;
        if (k >= 5) {
            uint32_t gUsed = 0;
            double gW = 0.0;
            uint32_t gObs = 0;
            bool feasible = true;
            for (size_t i = 0; i < k && feasible; ++i) {
                if ((gUsed >> i) & 1u)
                    continue;
                double best = bndW[i];
                int bj = -1;
                for (size_t j = i + 1; j < k; ++j)
                    if (!((gUsed >> j) & 1u)
                        && pairW[i * k + j] < best) {
                        best = pairW[i * k + j];
                        bj = static_cast<int>(j);
                    }
                if (!std::isfinite(best)) {
                    feasible = false;
                    break;
                }
                gUsed |= 1u << i;
                if (bj >= 0) {
                    gUsed |= 1u << bj;
                    gObs ^= pairObs[i * k + static_cast<size_t>(bj)];
                } else {
                    gObs ^= bndObs[i];
                }
                gW += best;
            }
            if (feasible) {
                bestW = gW;
                bestObs = gObs;
            }
        }
        auto search = [&](auto&& self, uint32_t used, double w,
                          double lbRemaining, uint32_t o) -> void {
            if (w + lbRemaining >= bestW)
                return;
            size_t i = 0;
            while (i < k && ((used >> i) & 1u))
                ++i;
            if (i == k) {
                bestW = w;
                bestObs = o;
                return;
            }
            uint32_t mi = used | (1u << i);
            if (std::isfinite(bndW[i]))
                self(self, mi, w + bndW[i], lbRemaining - defLB[i],
                     o ^ bndObs[i]);
            for (size_t j = i + 1; j < k; ++j) {
                if ((used >> j) & 1u)
                    continue;
                double wij = pairW[i * k + j];
                if (std::isfinite(wij))
                    self(self, mi | (1u << j), w + wij,
                         lbRemaining - defLB[i] - defLB[j],
                         o ^ pairObs[i * k + j]);
            }
        };
        double lb0 = 0.0;
        for (size_t i = 0; i < k; ++i)
            lb0 += defLB[i];
        search(search, 0, 0.0, lb0, 0);
        if (std::isfinite(bestW))
            obs ^= bestObs;
    };

    // Fast path: a small syndrome is matched exactly as one global
    // problem -- identical to the blossom formulation, so the result
    // is MWPM-exact -- with no growth and no arena reset. Erased
    // shots must take the growth path: the global distances know
    // nothing about the (free) erased edges.
    if (!hasErasures && events.size() <= exactSyndromeThreshold_) {
        if (obs::metricsEnabled()) {
            static const obs::Counter fastPath =
                obs::Counter::get("uf.decode.exact_fastpath");
            fastPath.add(1);
        }
        matchDefectsExact(events);
        return obs;
    }

    if (obs::metricsEnabled()) {
        static const obs::Counter growth =
            obs::Counter::get("uf.decode.growth");
        growth.add(1);
        if (hasErasures) {
            static const obs::Counter erasureShots =
                obs::Counter::get("uf.decode.erasure_shots");
            erasureShots.add(1);
        }
    }
    s.reset(n);
    s.btouch[boundary] = 1;
    s.absorbed[boundary] = 1;

    // Any edge whose claimStamp predates this shot still carries the
    // previous shot's growth state; fetching it through freshEdge
    // re-zeroes support/grown lazily (bit-identical to an eager
    // per-shot clear, without the O(numEdges) sweep).
    const uint64_t shotBase = ++s.counter;
    auto freshEdge = [&](uint32_t e) -> Scratch::EdgeState& {
        Scratch::EdgeState& es = s.edge[e];
        if (es.claimStamp < shotBase) {
            es.claimStamp = shotBase;
            es.support = 0;
            es.capacity = capacity_[e];
            es.grown = 0;
        }
        return es;
    };

    for (uint32_t v : events) {
        s.parity[v] = 1;
        s.defect[v] = 1;
        s.absorbed[v] = 1;
        s.frontier[v].assign(
            g.slotEdge.begin() + g.vertexBegin[v],
            g.slotEdge.begin() + g.vertexBegin[v + 1]);
        s.active.push_back(v);
    }

    // A vertex first reached by cluster growth contributes its incident
    // edges so the cluster keeps expanding past it. The boundary never
    // grows (absorbed from the start).
    auto ensureAbsorbed = [&](uint32_t v) {
        if (s.absorbed[v])
            return;
        s.absorbed[v] = 1;
        auto& f = s.frontier[v];
        for (uint32_t si = g.vertexBegin[v]; si < g.vertexBegin[v + 1];
             ++si) {
            uint32_t e = g.slotEdge[si];
            if (!freshEdge(e).grown)
                f.push_back(e);
        }
    };

    auto mergeEdge = [&](uint32_t e) {
        const uint32_t ea = g.edgeA[e];
        const uint32_t eb = g.edgeB[e];
        ensureAbsorbed(ea);
        ensureAbsorbed(eb);
        uint32_t u = s.find(ea);
        uint32_t v = s.find(eb);
        if (u == v)
            return; // cycle within one cluster: not a forest edge
        // Boundary contact freezes a cluster but does NOT union it
        // into the boundary component: two clusters that each reached
        // the boundary before reaching each other are strictly better
        // off matching to the boundary separately, so keeping them
        // apart is exact -- and it stops the shared boundary node from
        // chaining unrelated clusters into one giant matching problem.
        if (u == boundary || v == boundary) {
            s.btouch[u == boundary ? v : u] = 1;
            return;
        }
        if (s.frontier[u].size() < s.frontier[v].size())
            std::swap(u, v);
        s.parent[v] = u;
        s.parity[u] ^= s.parity[v];
        s.btouch[u] |= s.btouch[v];
        auto& fu = s.frontier[u];
        auto& fv = s.frontier[v];
        fu.insert(fu.end(), fv.begin(), fv.end());
        fv.clear();
    };

    // Zero-weight erasure seeding (Delfosse-Nickerson): every erased
    // edge is grown to full support at time zero -- traversing it
    // costs nothing -- and its endpoint clusters merge before ordinary
    // weighted growth starts. Erased boundary edges freeze their
    // cluster (free boundary exit) and are remembered so peeling can
    // discharge a leftover defect through them.
    if (hasErasures) {
        s.erasedBoundary.clear();
        for (uint32_t e : erasedEdges) {
            VLQ_ASSERT(e < numEdges, "erased edge index out of range");
            if (s.erasedEdge[e])
                continue; // two heralds over one edge seed it once
            s.erasedEdge[e] = 1;
            if (g.edgeA[e] == boundary || g.edgeB[e] == boundary)
                s.erasedBoundary.push_back(
                    {g.edgeA[e] == boundary ? g.edgeB[e] : g.edgeA[e],
                     e});
            Scratch::EdgeState& es = freshEdge(e);
            es.support = es.capacity;
            es.grown = 1;
            s.grownList.push_back(e);
            mergeEdge(e);
        }
        // Pre-merging can move roots off the defect vertices, pair
        // defects into even clusters, or freeze clusters at the
        // boundary -- rebuild the active list from the merged state.
        const uint64_t seedId = ++s.counter;
        s.nextActive.clear();
        for (uint32_t v : events) {
            uint32_t r = s.find(v);
            if (s.stamp[r] == seedId)
                continue;
            s.stamp[r] = seedId;
            if (s.parity[r] && !s.btouch[r])
                s.nextActive.push_back(r);
        }
        s.active.swap(s.nextActive);
    }

    // Growth is event-driven: each round, every active cluster claims
    // its frontier edges (an edge claimed from both endpoints grows at
    // twice the rate), then time advances by the smallest number of
    // ticks that fills some claimed edge. Rounds therefore scale with
    // merge/freeze events, not with the weight quantization.
    uint32_t rounds = 0;
    while (!s.active.empty()) {
        ++rounds;
        const uint64_t roundId = ++s.counter;
        s.roundEdges.clear();
        uint32_t delta = UINT32_MAX;
        for (uint32_t root : s.active) {
            auto& fr = s.frontier[root];
            size_t keep = 0;
            for (size_t i = 0; i < fr.size(); ++i) {
                // The scan is latency-bound on the random EdgeState
                // loads; prefetching a few iterations ahead overlaps
                // the misses (the indices are already in fr).
                if (i + 4 < fr.size())
                    __builtin_prefetch(&s.edge[fr[i + 4]], 1, 1);
                uint32_t e = fr[i];
                Scratch::EdgeState& es = freshEdge(e);
                if (es.grown)
                    continue;
                uint32_t remaining =
                    static_cast<uint32_t>(es.capacity - es.support);
                if (es.claimStamp != roundId) {
                    es.claimStamp = roundId;
                    es.mult = 1;
                    s.roundEdges.push_back(e);
                    delta = std::min(delta, remaining);
                } else {
                    // Claimed again (other endpoint or a duplicate
                    // list entry): fills proportionally faster.
                    uint32_t m = ++es.mult;
                    delta = std::min(delta, (remaining + m - 1) / m);
                }
                fr[keep++] = e;
            }
            fr.resize(keep);
        }
        if (s.roundEdges.empty())
            break; // odd clusters with nowhere left to grow
        s.mergeQueue.clear();
        for (uint32_t e : s.roundEdges) {
            Scratch::EdgeState& es = s.edge[e];
            uint32_t grownTo = es.support
                + static_cast<uint32_t>(es.mult) * delta;
            if (grownTo >= es.capacity) {
                es.support = es.capacity;
                es.grown = 1;
                s.grownList.push_back(e);
                s.mergeQueue.push_back(e);
            } else {
                es.support = static_cast<uint16_t>(grownTo);
            }
        }
        for (uint32_t e : s.mergeQueue)
            mergeEdge(e);

        s.nextActive.clear();
        for (uint32_t root : s.active) {
            uint32_t r = s.find(root);
            if (s.stamp[r] == roundId)
                continue;
            s.stamp[r] = roundId;
            if (s.parity[r] && !s.btouch[r])
                s.nextActive.push_back(r);
        }
        s.active.swap(s.nextActive);
    }

    // Group defects by cluster root (ascending within each cluster,
    // since events ascend); each cluster resolves independently with
    // an exact minimum-weight matching of its defects on global
    // shortest-path distances -- branch-and-bound for small clusters,
    // the blossom core for large ones -- which is what makes the
    // result agree with MWPM up to the cluster split and genuine
    // weight degeneracy. Only clusters holding erased edges need their
    // grown edges, for the forest peel.
    for (uint32_t v : events) {
        uint32_t r = s.find(v);
        if (s.clusterDefects[r].empty())
            s.roots.push_back(r);
        s.clusterDefects[r].push_back(v);
    }
    if (hasErasures) {
        for (uint32_t e : s.grownList) {
            if (g.edgeA[e] == boundary || g.edgeB[e] == boundary)
                continue; // boundary exits use the precomputed table
            uint32_t r = s.find(g.edgeA[e]);
            // Erasure seeding can grow defect-free clusters. They need
            // no correction, and their roots are never peeled (or
            // cleared), so their edges must not reach the per-thread
            // lists.
            if (!s.clusterDefects[r].empty())
                s.clusterEdges[r].push_back(e);
        }
    }

    // Clusters up to this size keep the branch-and-bound, which beats
    // the blossom core there; its cost grows exponentially beyond.
    constexpr size_t kBranchAndBoundMax = 6;

    // Classic union-find peeling for one erased cluster: build a BFS
    // spanning tree of the cluster's grown edges, peel it leaves-first
    // XOR-ing a tree edge whenever the child side carries a defect,
    // and send any leftover root defect to the boundary -- through the
    // cluster's erased boundary edge when it has one (the free exit,
    // exact for erasure-only shots), otherwise via the global table.
    // Erased edges sit in the tree like any grown edge, which is what
    // makes peeling exact on pure-erasure clusters.
    auto peelForest = [&](uint32_t r,
                          const std::vector<uint32_t>& defects,
                          bool hasExit, uint32_t exitVertex,
                          uint32_t exitObs) {
        for (uint32_t e : s.clusterEdges[r]) {
            for (uint32_t v : {g.edgeA[e], g.edgeB[e]}) {
                if (s.treeAdj[v].empty())
                    s.bfsVerts.push_back(v);
            }
            s.treeAdj[g.edgeA[e]].push_back(e);
            s.treeAdj[g.edgeB[e]].push_back(e);
        }
        // Rooting at the erased boundary exit makes the leftover
        // defect (if any) land exactly where the free exit is.
        uint32_t root = hasExit ? exitVertex : defects[0];
        s.order.clear();
        s.order.push_back(root);
        s.visited[root] = 1;
        for (size_t qi = 0; qi < s.order.size(); ++qi) {
            uint32_t v = s.order[qi];
            for (uint32_t e : s.treeAdj[v]) {
                uint32_t to = g.edgeA[e] == v ? g.edgeB[e] : g.edgeA[e];
                if (!s.visited[to]) {
                    s.visited[to] = 1;
                    s.parentEdge[to] = e;
                    s.order.push_back(to);
                }
            }
        }
        for (size_t qi = s.order.size(); qi-- > 1;) {
            uint32_t v = s.order[qi];
            if (!s.defect[v])
                continue;
            const uint32_t pe = s.parentEdge[v];
            uint32_t u = g.edgeA[pe] == v ? g.edgeB[pe] : g.edgeA[pe];
            obs ^= g.edgeObs[pe];
            s.defect[v] = 0;
            s.defect[u] ^= 1;
        }
        if (s.defect[root]) {
            s.defect[root] = 0;
            if (hasExit)
                obs ^= exitObs;
            else if (const ShortestPath b = paths_.boundary(root);
                     std::isfinite(b.weight))
                obs ^= b.observables;
        }
        for (uint32_t v : s.order)
            s.visited[v] = 0;
        for (uint32_t v : s.bfsVerts)
            s.treeAdj[v].clear();
        s.bfsVerts.clear();
    };

    for (uint32_t r : s.roots) {
        const auto& defects = s.clusterDefects[r];
        // A cluster holding erased edges peels on its spanning forest:
        // the forest includes the free erased edges, which the global
        // distances of the exact matcher cannot see. An erased
        // boundary edge additionally gives the cluster a free exit.
        bool erased = false;
        bool hasExit = false;
        uint32_t exitVertex = 0;
        uint32_t exitObs = 0;
        if (hasErasures) {
            for (uint32_t e : s.clusterEdges[r]) {
                if (s.erasedEdge[e]) {
                    erased = true;
                    break;
                }
            }
            for (const auto& [v, e] : s.erasedBoundary) {
                if (s.find(v) == r) {
                    hasExit = true;
                    exitVertex = v;
                    exitObs = g.edgeObs[e];
                    break;
                }
            }
        }
        if (erased || hasExit)
            peelForest(r, defects, hasExit, exitVertex, exitObs);
        else if (defects.size() > kBranchAndBoundMax)
            obs ^= matchEvents(paths_, defects);
        else
            matchDefectsExact(defects);
        s.clusterEdges[r].clear();
        s.clusterDefects[r].clear();
    }

    if (hasErasures) {
        for (uint32_t e : erasedEdges)
            s.erasedEdge[e] = 0;
        s.erasedBoundary.clear();
    }

    if (info)
        info->growthRounds = rounds;
    return obs;
}

} // namespace vlq
