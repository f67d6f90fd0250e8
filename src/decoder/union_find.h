#ifndef VLQ_DECODER_UNION_FIND_H
#define VLQ_DECODER_UNION_FIND_H

#include <cstdint>
#include <vector>

#include "decoder/decoder.h"
#include "decoder/decoding_graph.h"
#include "decoder/shortest_paths.h"
#include "dem/detector_model.h"

namespace vlq {

/** Tuning knobs of the union-find decoder. */
struct UnionFindOptions
{
    /**
     * Syndromes with at most this many detection events skip cluster
     * growth entirely and get one exact minimum-weight matching of
     * all defects over global shortest-path distances -- the same
     * formulation as the blossom decoder, solved by branch-and-bound,
     * so small syndromes (the bulk of every below-threshold shot) are
     * decoded MWPM-exactly at a fraction of the growth path's cost.
     * 0 disables the fast path (tests of the growth machinery do
     * this); values are clamped to 16 to bound the branch-and-bound.
     */
    uint32_t exactSyndromeThreshold = 10;
};

/**
 * Weighted union-find decoder (Delfosse & Nickerson style).
 *
 * Edge weights are quantized into integer growth ticks (kGranularity
 * ticks for the minimum-weight edge). Every defect
 * (detection event) starts as its own cluster; growth is event-driven:
 * each round, every *active* cluster -- odd defect parity and no
 * boundary contact -- claims its frontier edges (an edge claimed from
 * both endpoints fills twice as fast) and time advances by the
 * smallest tick count that fills some edge. A filled ("grown") edge
 * merges its endpoint clusters (union by frontier size, find with path
 * compression); newly absorbed vertices contribute their incident
 * edges to the frontier. Contact with the virtual boundary node
 * freezes a cluster without unioning into it: two clusters that each
 * reached the boundary before reaching each other are strictly better
 * off matching to the boundary separately, so keeping them apart is
 * exact and stops the shared boundary node from chaining unrelated
 * clusters together. Growth stops when no active cluster remains.
 *
 * Each finished cluster then gets an exact minimum-weight matching of
 * its defects over global shortest-path distances, read from the
 * decoder's ShortestPaths oracle: the defect-to-boundary option from
 * its boundary table, defect pairs from its bulk rows, each filled
 * once on first use and then shared by every thread (global distances
 * do not depend on the shot, so the shared rows preserve
 * reproducibility). Small clusters -- the bulk of the work below
 * threshold -- are solved by branch-and-bound; large ones by the
 * blossom core MWPM uses (matchEvents): grow locally, then match
 * exactly, as sparse blossom does. Only clusters holding erased
 * edges peel a spanning forest of their grown edges (see decodeShot).
 * The XOR of observable masks along the chosen paths is the
 * correction. No global blossom search: the fast backend for
 * large-distance Monte-Carlo scans, agreeing with MWPM up to the
 * cluster split and genuine weight degeneracy.
 *
 * Syndromes below UnionFindOptions::exactSyndromeThreshold events
 * short-circuit growth altogether (see the option's doc): the scratch
 * arenas use monotonic stamps, so that fast path touches only
 * O(events) state per shot -- the property the batched Monte-Carlo
 * engine leans on.
 */
class UnionFindDecoder : public Decoder
{
  public:
    /**
     * Growth ticks assigned to the minimum-weight edge; larger values
     * track relative edge weights more faithfully at the cost of more
     * (cheap) growth rounds.
     */
    static constexpr uint32_t kGranularity = 32;

    /** Diagnostics of one decode call (tests and tuning). */
    struct DecodeInfo
    {
        uint32_t growthRounds = 0;
    };

    explicit UnionFindDecoder(const DetectorErrorModel& dem,
                              UnionFindOptions options = {});

    /** Decode over a pre-built (possibly hand-built) graph. */
    explicit UnionFindDecoder(DecodingGraph graph,
                              UnionFindOptions options = {});

    using Decoder::decode;

    /** decode() variant that also reports diagnostics. */
    uint32_t decode(const BitVec& detectorFlips, DecodeInfo* info) const;

    /**
     * Lower-level erasure decode on explicit edge indices (hand-built
     * graph tests).
     */
    uint32_t decodeErasedEdges(const BitVec& detectorFlips,
                               const std::vector<uint32_t>& erasedEdges,
                               DecodeInfo* info = nullptr) const;

    const DecodingGraph& graph() const { return paths_.graph(); }

    /** Growth ticks of edge e (the quantized weight). */
    uint32_t edgeCapacity(uint32_t e) const { return capacity_[e]; }

  protected:
    /**
     * Erasure-aware decode of one shot: the edges of the fired
     * erasure sites are grown to full support at time zero -- erasure
     * costs nothing, the Delfosse-Nickerson zero-weight seeding --
     * before ordinary weighted growth, and clusters containing erased
     * edges peel on their spanning forests (exact for erasure-only
     * shots). A decoder built from a bare graph has no site-to-edge
     * map and decodes heralded shots as ordinary syndromes.
     */
    uint32_t decodeShot(const std::vector<uint32_t>& events,
                        const std::vector<uint32_t>& erasureSites)
        const override;

  private:
    /**
     * The decode core, on a pre-extracted ascending event list.
     * `erasedEdges` (possibly with duplicates) is pre-grown at zero
     * weight; pass an empty list for ordinary decoding.
     */
    uint32_t decodeEvents(const std::vector<uint32_t>& events,
                          const std::vector<uint32_t>& erasedEdges,
                          DecodeInfo* info) const;

    ShortestPaths paths_;
    /** Edge indices seeded by each heralded-erasure site. */
    std::vector<std::vector<uint32_t>> erasureSiteEdges_;
    uint32_t exactSyndromeThreshold_ = 0;
    std::vector<uint16_t> capacity_;
};

} // namespace vlq

#endif // VLQ_DECODER_UNION_FIND_H
