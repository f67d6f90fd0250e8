#ifndef VLQ_DECODER_MWPM_DECODER_H
#define VLQ_DECODER_MWPM_DECODER_H

#include <cstdint>
#include <vector>

#include "decoder/decoder.h"
#include "decoder/matching_graph.h"
#include "dem/detector_model.h"
#include "pauli/bitvec.h"

namespace vlq {

/**
 * Minimum-weight perfect-matching decoder (the paper's "maximum
 * likelihood perfect matching").
 *
 * Each detection event either pairs with another event, at the
 * precomputed shortest-path distance d(i,j) in the decoding graph, or
 * goes to the boundary at its boundary distance b(i). A pair with
 * d(i,j) >= b(i) + b(j) can always be swapped for two boundary matches
 * at no cost (d may itself be a path through the boundary), so the
 * events split into independent components joined only by pairs with
 * d(i,j) < b(i) + b(j):
 *  - a lone event goes to the boundary;
 *  - two events take their direct path;
 *  - k >= 3 events are one exact blossom instance on k vertices (plus
 *    one boundary vertex when k is odd), with pair weights
 *    min(d(i,j), b(i) + b(j)); a pair matched through the boundary
 *    term contributes both events' boundary observables.
 * The XOR of the observable masks along the matched paths is the
 * correction's effect on the logicals. The total weight equals that of
 * the textbook formulation (every event plus a private boundary copy,
 * copies joined at zero weight) on 2m vertices, up to the blossom's
 * 2^-20 weight rounding; test_decoder keeps that formulation as the
 * reference.
 */
class MwpmDecoder : public Decoder
{
  public:
    explicit MwpmDecoder(const DetectorErrorModel& dem);

    uint32_t decode(const BitVec& detectorFlips) const override;

    /**
     * Batched decode: event lists come from one sparse sweep over the
     * batch, and the per-shot scratch (distances, components, edge
     * list, blossom buffers) is per-thread and reused across shots.
     */
    void decodeBatch(const ShotBatch& batch,
                     std::span<uint32_t> predictions) const override;

    const MatchingGraph& graph() const { return graph_; }

    /**
     * Decode one shot's ascending event list. When `weight` is given
     * it receives the total weight of the minimum-weight matching.
     * Aborts when the events admit no perfect matching (an event with
     * no finite path to any partner or to the boundary).
     */
    uint32_t matchEvents(const std::vector<uint32_t>& events,
                         double* weight = nullptr) const;

  private:
    MatchingGraph graph_;
};

/**
 * Greedy matching decoder: repeatedly matches the closest available
 * pair (or event-boundary). Used as a decoder-quality ablation; it is
 * strictly weaker than MWPM and lowers the threshold.
 */
class GreedyDecoder : public Decoder
{
  public:
    explicit GreedyDecoder(const DetectorErrorModel& dem);

    uint32_t decode(const BitVec& detectorFlips) const override;

    /** Batched decode reusing the candidate-pair buffer per shot. */
    void decodeBatch(const ShotBatch& batch,
                     std::span<uint32_t> predictions) const override;

    const MatchingGraph& graph() const { return graph_; }

  private:
    uint32_t decodeEvents(const std::vector<uint32_t>& events) const;

    MatchingGraph graph_;
};

} // namespace vlq

#endif // VLQ_DECODER_MWPM_DECODER_H
