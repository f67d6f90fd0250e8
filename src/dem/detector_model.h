#ifndef VLQ_DEM_DETECTOR_MODEL_H
#define VLQ_DEM_DETECTOR_MODEL_H

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.h"

namespace vlq {

/**
 * One possible outcome of a fault channel: with `probability`, the
 * observables in the mask and the detectors in [detBegin, detEnd) of
 * the model's shared detector array flip. Read the detectors through
 * DetectorErrorModel::detectors(); they are sorted and deduplicated.
 */
struct FaultOutcome
{
    double probability = 0.0;
    uint32_t observables = 0; // bitmask over observables
    uint32_t detBegin = 0;
    uint32_t detEnd = 0;
};

/**
 * An independent physical fault mechanism (one noise channel of the
 * circuit): the outcomes in [outBegin, outEnd) of the model's outcome
 * array, read through DetectorErrorModel::outcomes(). Outcomes are
 * mutually exclusive; probabilities sum to at most 1 (the remainder is
 * "no error"). Outcomes whose signature is empty are dropped -- they
 * are indistinguishable from no error -- except for heralded channels,
 * which keep them so the herald fires with the channel's full physical
 * probability.
 */
struct FaultChannel
{
    /** Index of the originating operation in the source circuit. */
    uint32_t opIndex = 0;

    uint32_t outBegin = 0;
    uint32_t outEnd = 0;

    /** True for heralded-erasure channels: firing raises a herald. */
    bool heralded = false;

    /**
     * Dense index of this channel among heralded channels (the bit it
     * sets in a shot's erasure mask), or -1 when not heralded.
     */
    int32_t erasureSite = -1;
};

/** Metadata of one detector, copied from the circuit. */
struct DetectorMeta
{
    CheckBasis basis = CheckBasis::Z;
    float x = 0.0f;
    float y = 0.0f;
    float t = 0.0f;
};

/**
 * Detector error model: the complete map from physical fault mechanisms
 * to detector/observable flips for a given noisy circuit.
 *
 * Built by backward sensitivity propagation: walking the circuit in
 * reverse while maintaining, per qubit, the set of detectors an X or Z
 * error at that point would flip. This is O(ops x detectors/64) -- far
 * cheaper than forward-propagating every fault -- and exact for
 * Clifford+Pauli circuits. The forward Pauli-frame simulator provides an
 * independent implementation used to cross-validate this builder in the
 * test suite.
 *
 * The model is three flat arrays: channel records (in circuit order),
 * outcome records and one shared detector-index array. A channel's
 * outcomes and an outcome's detectors are contiguous ranges, read
 * through the span accessors below. The outcome and detector arrays
 * are stored in build (reverse circuit) order; only the ranges give
 * them meaning.
 */
class DetectorErrorModel
{
  public:
    /** Build the model for a circuit with detectors/observables. */
    static DetectorErrorModel build(const Circuit& circuit);

    uint32_t numDetectors() const { return numDetectors_; }
    uint32_t numObservables() const { return numObservables_; }

    /** Number of heralded-erasure sites (bits in a shot erasure mask). */
    uint32_t numErasureSites() const { return numErasureSites_; }

    /** Fault channels, ordered by opIndex. */
    std::span<const FaultChannel> channels() const { return channels_; }

    /**
     * The outcomes of one channel of this model (from channels()), in
     * emission order.
     */
    std::span<const FaultOutcome> outcomes(const FaultChannel& ch) const
    {
        return std::span<const FaultOutcome>(outcomes_).subspan(
            ch.outBegin, ch.outEnd - ch.outBegin);
    }

    /** The detectors one outcome of this model flips, ascending. */
    std::span<const uint32_t> detectors(const FaultOutcome& o) const
    {
        return std::span<const uint32_t>(detectors_).subspan(
            o.detBegin, o.detEnd - o.detBegin);
    }

    /**
     * The whole outcome and detector arrays that the channel and
     * outcome ranges index into, in storage order: for bulk copies and
     * order-independent scans over every outcome.
     */
    const std::vector<FaultOutcome>& outcomeArray() const
    {
        return outcomes_;
    }
    const std::vector<uint32_t>& detectorArray() const
    {
        return detectors_;
    }

    /**
     * Total probability that any recorded outcome of `ch` fires.
     * Outcomes of one channel are mutually exclusive, so this is their
     * plain sum (independent channels sharing a signature are instead
     * combined with the XOR rule downstream, in the decoding graph).
     */
    double totalProbability(const FaultChannel& ch) const;

    const std::vector<DetectorMeta>& detectorMeta() const { return meta_; }

    /** Sum over channels of their total probability (diagnostics). */
    double totalFaultMass() const;

  private:
    uint32_t numDetectors_ = 0;
    uint32_t numObservables_ = 0;
    uint32_t numErasureSites_ = 0;
    std::vector<FaultChannel> channels_;
    std::vector<FaultOutcome> outcomes_;
    std::vector<uint32_t> detectors_;
    std::vector<DetectorMeta> meta_;
};

} // namespace vlq

#endif // VLQ_DEM_DETECTOR_MODEL_H
