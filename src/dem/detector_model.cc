#include "dem/detector_model.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace vlq {

double
DetectorErrorModel::totalProbability(const FaultChannel& ch) const
{
    // Outcomes of one channel are mutually exclusive physical events, so
    // exclusive summation is exact here. The XOR combination rule
    // p = p1(1-p2) + p2(1-p1) applies only across *independent* channels
    // and lives in DecodingGraph, where contributions from different
    // channels meet on a shared edge.
    double p = 0.0;
    for (const FaultOutcome& o : outcomes(ch))
        p += o.probability;
    VLQ_ASSERT(p <= 1.0 + 1e-9, "fault channel mass exceeds 1");
    return p;
}

namespace {

/** Upper bound on the outcomes one operation can contribute. */
size_t
maxOutcomes(OpCode code)
{
    switch (code) {
      case OpCode::MEASURE_Z:
      case OpCode::X_ERROR:
      case OpCode::Y_ERROR:
      case OpCode::Z_ERROR:
        return 1;
      case OpCode::DEPOLARIZE1:
      case OpCode::PAULI_CHANNEL_1:
        return 3;
      case OpCode::HERALDED_ERASE:
        return 4;
      case OpCode::DEPOLARIZE2:
        return 15;
      default:
        return 0;
    }
}

/** All-ones when `on`, else zero: selects a row in a branch-free XOR. */
constexpr uint64_t
wordMask(bool on)
{
    return on ? ~uint64_t{0} : 0;
}

} // namespace

DetectorErrorModel
DetectorErrorModel::build(const Circuit& circuit)
{
    DetectorErrorModel dem;
    const uint32_t numDet = static_cast<uint32_t>(circuit.detectors().size());
    dem.numDetectors_ = numDet;
    dem.numObservables_ =
        static_cast<uint32_t>(circuit.observables().size());
    VLQ_ASSERT(dem.numObservables_ <= 32, "too many observables");

    dem.meta_.reserve(numDet);
    for (const auto& d : circuit.detectors())
        dem.meta_.push_back(DetectorMeta{d.basis, d.x, d.y, d.t});

    // Signatures are bit rows over detectors then observables.
    const uint32_t width = numDet + dem.numObservables_;
    const size_t words = (size_t{width} + 63) / 64;
    const uint32_t nQubits = circuit.numQubits();
    auto flipBit = [](uint64_t* row, uint32_t bit) {
        row[bit / 64] ^= uint64_t{1} << (bit % 64);
    };

    // measSig row m: which detectors/observables contain measurement m.
    std::vector<uint64_t> measSig(size_t{circuit.numMeasurements()} * words);
    for (uint32_t d = 0; d < numDet; ++d)
        for (uint32_t m : circuit.detectors()[d].measurements)
            flipBit(measSig.data() + m * words, d);
    for (uint32_t o = 0; o < dem.numObservables_; ++o)
        for (uint32_t m : circuit.observables()[o].measurements)
            flipBit(measSig.data() + m * words, numDet + o);

    // Backward sensitivity sets, one contiguous numQubits x 2 x words
    // array: rows xRow[q] and zRow[q] hold the detectors flipped by an
    // X or Z error on q at the current (reverse) position. H and SWAP
    // permute the row indices instead of moving words.
    std::vector<uint64_t> sens(size_t{2} * nQubits * words);
    std::vector<uint32_t> xRow(nQubits);
    std::vector<uint32_t> zRow(nQubits);
    for (uint32_t q = 0; q < nQubits; ++q) {
        xRow[q] = q;
        zRow[q] = nQubits + q;
    }
    auto dx = [&](uint32_t q) { return sens.data() + xRow[q] * words; };
    auto dz = [&](uint32_t q) { return sens.data() + zRow[q] * words; };
    auto xorInto = [words](uint64_t* dst, const uint64_t* src) {
        for (size_t w = 0; w < words; ++w)
            dst[w] ^= src[w];
    };

    const auto& ops = circuit.ops();
    size_t outcomeBound = 0;
    for (const Operation& op : ops)
        outcomeBound += maxOutcomes(op.code);
    dem.outcomes_.reserve(outcomeBound);

    // Append one outcome whose signature word w is sigWord(w), writing
    // its set bits straight into the flat arrays. Empty signatures are
    // dropped unless keepEmpty (heralded channels).
    auto emit = [&](double p, bool keepEmpty, auto&& sigWord) {
        FaultOutcome o;
        o.probability = p;
        o.detBegin = static_cast<uint32_t>(dem.detectors_.size());
        for (size_t w = 0; w < words; ++w) {
            for (uint64_t bits = sigWord(w); bits != 0; bits &= bits - 1) {
                const uint32_t bit = static_cast<uint32_t>(
                    w * 64 + static_cast<size_t>(std::countr_zero(bits)));
                if (bit < numDet)
                    dem.detectors_.push_back(bit);
                else
                    o.observables |= 1u << (bit - numDet);
            }
        }
        o.detEnd = static_cast<uint32_t>(dem.detectors_.size());
        if (keepEmpty || o.detEnd != o.detBegin || o.observables != 0)
            dem.outcomes_.push_back(o);
    };

    for (size_t idx = ops.size(); idx-- > 0;) {
        const Operation& op = ops[idx];
        const uint32_t outBegin = static_cast<uint32_t>(dem.outcomes_.size());
        bool heralded = false;
        switch (op.code) {
          case OpCode::MEASURE_Z: {
            // An X error before the measurement flips the record (and
            // persists). Record-flip noise is its own channel.
            const uint64_t* sig = measSig.data()
                + static_cast<uint32_t>(op.meas) * words;
            xorInto(dx(op.q0), sig);
            if (op.p > 0.0)
                emit(op.p, false, [&](size_t w) { return sig[w]; });
            break;
          }
          case OpCode::RESET:
            std::fill_n(dx(op.q0), words, 0);
            std::fill_n(dz(op.q0), words, 0);
            break;
          case OpCode::H:
            std::swap(xRow[op.q0], zRow[op.q0]);
            break;
          case OpCode::S:
            // X before S becomes Y after: sensitive to both sets.
            xorInto(dx(op.q0), dz(op.q0));
            break;
          case OpCode::X:
          case OpCode::Y:
          case OpCode::Z:
            break; // Pauli gates do not change Pauli-frame sensitivity
          case OpCode::CNOT:
            // Forward: X(c) -> X(c)X(t), Z(t) -> Z(c)Z(t).
            xorInto(dx(op.q0), dx(op.q1));
            xorInto(dz(op.q1), dz(op.q0));
            break;
          case OpCode::SWAP:
            std::swap(xRow[op.q0], xRow[op.q1]);
            std::swap(zRow[op.q0], zRow[op.q1]);
            break;
          case OpCode::DEPOLARIZE1: {
            const uint64_t* x = dx(op.q0);
            const uint64_t* z = dz(op.q0);
            const double p3 = op.p / 3.0;
            emit(p3, false, [&](size_t w) { return x[w]; });        // X
            emit(p3, false, [&](size_t w) { return x[w] ^ z[w]; }); // Y
            emit(p3, false, [&](size_t w) { return z[w]; });        // Z
            break;
          }
          case OpCode::DEPOLARIZE2: {
            const uint64_t* x0 = dx(op.q0);
            const uint64_t* z0 = dz(op.q0);
            const uint64_t* x1 = dx(op.q1);
            const uint64_t* z1 = dz(op.q1);
            const double p15 = op.p / 15.0;
            for (int code = 1; code < 16; ++code) {
                const int pa = code >> 2;
                const int pb = code & 3;
                const uint64_t mx0 = wordMask(pa & 1);
                const uint64_t mz0 = wordMask(pa & 2);
                const uint64_t mx1 = wordMask(pb & 1);
                const uint64_t mz1 = wordMask(pb & 2);
                emit(p15, false, [&](size_t w) {
                    return (x0[w] & mx0) ^ (z0[w] & mz0) ^ (x1[w] & mx1)
                        ^ (z1[w] & mz1);
                });
            }
            break;
          }
          case OpCode::X_ERROR:
          case OpCode::Y_ERROR:
          case OpCode::Z_ERROR: {
            const uint64_t* x = dx(op.q0);
            const uint64_t* z = dz(op.q0);
            const uint64_t mx = wordMask(op.code != OpCode::Z_ERROR);
            const uint64_t mz = wordMask(op.code != OpCode::X_ERROR);
            emit(op.p, false,
                 [&](size_t w) { return (x[w] & mx) ^ (z[w] & mz); });
            break;
          }
          case OpCode::PAULI_CHANNEL_1: {
            const uint64_t* x = dx(op.q0);
            const uint64_t* z = dz(op.q0);
            if (op.p > 0.0)
                emit(op.p, false, [&](size_t w) { return x[w]; });
            if (op.py > 0.0)
                emit(op.py, false,
                     [&](size_t w) { return x[w] ^ z[w]; });
            if (op.pz > 0.0)
                emit(op.pz, false, [&](size_t w) { return z[w]; });
            break;
          }
          case OpCode::HERALDED_ERASE: {
            // The erased qubit is replaced by the maximally mixed state:
            // uniform I/X/Y/Z, each p/4. Empty signatures (always the I
            // branch, possibly more) are KEPT so the channel fires --
            // and the herald raises -- with the full probability p.
            const uint64_t* x = dx(op.q0);
            const uint64_t* z = dz(op.q0);
            const double p4 = op.p / 4.0;
            heralded = true;
            emit(p4, true, [](size_t) { return uint64_t{0}; });     // I
            emit(p4, true, [&](size_t w) { return x[w]; });         // X
            emit(p4, true, [&](size_t w) { return x[w] ^ z[w]; });  // Y
            emit(p4, true, [&](size_t w) { return z[w]; });         // Z
            break;
          }
        }
        const uint32_t outEnd = static_cast<uint32_t>(dem.outcomes_.size());
        if (outEnd > outBegin)
            dem.channels_.push_back(FaultChannel{
                static_cast<uint32_t>(idx), outBegin, outEnd, heralded,
                -1});
    }

    // Reverse the channel records to circuit order (keeps opIndex
    // ascending; the ranges stay valid), then number the heralded
    // channels in that final order.
    std::reverse(dem.channels_.begin(), dem.channels_.end());
    for (auto& ch : dem.channels_)
        if (ch.heralded)
            ch.erasureSite =
                static_cast<int32_t>(dem.numErasureSites_++);
    return dem;
}

double
DetectorErrorModel::totalFaultMass() const
{
    double mass = 0.0;
    for (const auto& ch : channels_)
        mass += totalProbability(ch);
    return mass;
}

} // namespace vlq
