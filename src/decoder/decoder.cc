#include "decoder/decoder.h"

#include "dem/shot_batch.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace vlq {

namespace {

const std::vector<uint32_t> kNoErasureSites;

} // namespace

uint32_t
Decoder::decode(const BitVec& detectorFlips) const
{
    return decodeShot(detectorFlips.onesIndices(), kNoErasureSites);
}

uint32_t
Decoder::decode(const BitVec& detectorFlips, const BitVec& erasures) const
{
    return decodeShot(detectorFlips.onesIndices(), erasures.onesIndices());
}

void
Decoder::decodeBatch(const ShotBatch& batch,
                     std::span<uint32_t> predictions) const
{
    VLQ_ASSERT(predictions.size() >= batch.numShots(),
               "decodeBatch predictions span too small");
    obs::StageTimer obsTimer("decode.batch");
    static thread_local std::vector<std::vector<uint32_t>> events;
    static thread_local std::vector<std::vector<uint32_t>> sites;
    const bool heralded = batch.numErasureSites() > 0;
    {
        obs::StageTimer gatherTimer("decode.gather");
        batch.gatherEvents(events);
        if (heralded)
            batch.gatherErasures(sites);
    }
    uint32_t trivial = 0;
    for (uint32_t s = 0; s < batch.numShots(); ++s) {
        if (events[s].empty())
            ++trivial;
        predictions[s] =
            decodeShot(events[s], heralded ? sites[s] : kNoErasureSites);
    }
    if (obs::metricsEnabled()) {
        static const obs::Counter batches =
            obs::Counter::get("decode.batches");
        static const obs::Counter decoded =
            obs::Counter::get("decode.shots");
        static const obs::Counter trivialShots =
            obs::Counter::get("decode.trivial_shots");
        batches.add(1);
        decoded.add(batch.numShots());
        trivialShots.add(trivial);
    }
}

} // namespace vlq
