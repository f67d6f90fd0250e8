#ifndef VLQ_DECODER_DECODER_H
#define VLQ_DECODER_DECODER_H

#include <cstdint>
#include <span>
#include <vector>

#include "pauli/bitvec.h"

namespace vlq {

class ShotBatch;

/**
 * Interface shared by the decoders (enables decoder ablations).
 *
 * A backend implements one per-shot hook, decodeShot(); the scalar
 * decode() calls and the batch loop all go through it, so the batched
 * Monte-Carlo engine's reproducibility contract (decodeBatch agrees
 * with decode() shot for shot) holds by construction. Backends keep
 * their per-shot scratch (cluster arenas, edge buffers, blossom
 * buffers) per thread, so it stays hot across a batch.
 */
class Decoder
{
  public:
    virtual ~Decoder() = default;

    /**
     * Predict the observable flips explaining a detection-event set.
     * @param detectorFlips one bit per detector.
     * @return predicted observable bitmask.
     */
    uint32_t decode(const BitVec& detectorFlips) const;

    /**
     * decode() with heralds: `erasures` holds one bit per DEM erasure
     * site (FaultSampler::Shot::erasures). Backends that do not use
     * heralds decode the detectors alone.
     */
    uint32_t decode(const BitVec& detectorFlips,
                    const BitVec& erasures) const;

    /**
     * Decode every shot of a batch: predictions[s] receives the
     * predicted observable bitmask for shot s. `predictions` must
     * hold at least batch.numShots() entries. Event lists (and, when
     * the batch carries erasure rows, fired erasure sites) are
     * gathered with one sparse sweep into per-thread scratch, then
     * each shot goes through decodeShot().
     */
    void decodeBatch(const ShotBatch& batch,
                     std::span<uint32_t> predictions) const;

  protected:
    /**
     * Decode one shot: `events` are its detection events and
     * `erasureSites` its fired erasure sites, both ascending.
     * @return predicted observable bitmask.
     */
    virtual uint32_t
    decodeShot(const std::vector<uint32_t>& events,
               const std::vector<uint32_t>& erasureSites) const = 0;
};

} // namespace vlq

#endif // VLQ_DECODER_DECODER_H
