#ifndef VLQ_DECODER_MWPM_DECODER_H
#define VLQ_DECODER_MWPM_DECODER_H

#include <cstdint>
#include <vector>

#include "decoder/decoder.h"
#include "decoder/shortest_paths.h"
#include "dem/detector_model.h"

namespace vlq {

/**
 * The matching decoders' pair path between detectors u and v: the
 * oracle's bulk path or the two boundary paths, whichever is shorter
 * (ties keep the bulk path), with the weight rounded through float
 * once. The rounding is kept from the all-pairs float table these
 * decoders read before the shared oracle: over setups 0-4, d 3-9,
 * p in {2e-3, 4e-3} and both bases this view reproduces every weight,
 * path observable and boundary entry of that table exactly, so seeded
 * counts stayed bit-identical.
 */
ShortestPath matchingPair(const ShortestPaths& paths, uint32_t u,
                          uint32_t v);

/** The matching decoders' boundary path of detector u (float-rounded). */
ShortestPath matchingBoundary(const ShortestPaths& paths, uint32_t u);

/**
 * The exact matching core: the minimum-weight matching of one event
 * list over `paths`, returning the XOR of the matched paths'
 * observables (see MwpmDecoder for the formulation). The events must
 * ascend strictly (checked). When `weight` is given it receives the
 * total weight of the matching. Aborts when the events admit no
 * perfect matching (an event with no finite path to any partner or to
 * the boundary). MwpmDecoder runs it on a whole shot; union-find runs
 * it on each large grown cluster.
 */
uint32_t matchEvents(const ShortestPaths& paths,
                     const std::vector<uint32_t>& events,
                     double* weight = nullptr);

/**
 * Minimum-weight perfect-matching decoder (the paper's "maximum
 * likelihood perfect matching").
 *
 * Each detection event either pairs with another event, at the
 * shortest-path distance d(i,j) = matchingPair() read from the shared
 * ShortestPaths oracle (no all-pairs table: rows fill on first use),
 * or goes to the boundary at its boundary distance b(i). A pair with
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

    const ShortestPaths& paths() const { return paths_; }

  protected:
    /** matchEvents on the shot's events; heralds are not used. */
    uint32_t decodeShot(const std::vector<uint32_t>& events,
                        const std::vector<uint32_t>& erasureSites)
        const override;

  private:
    ShortestPaths paths_;
};

} // namespace vlq

#endif // VLQ_DECODER_MWPM_DECODER_H
