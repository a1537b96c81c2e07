/**
 * @file
 * The contention probe: a fixed kernel timed between grid points.
 */
#include "hostbench.h"

namespace hb {

namespace {

/** 8 MiB of 32-bit cells: far beyond a core's L2. */
constexpr std::size_t kProbeCells = std::size_t{1} << 21;

/** Updates per run(); about 0.8 ms on the quiet reference machine. */
constexpr unsigned kProbeSteps = 40000;

} // namespace

ContentionProbe::ContentionProbe() : cells_(kProbeCells)
{
    for (std::size_t i = 0; i < cells_.size(); ++i)
        cells_[i] = static_cast<std::uint32_t>(i * 2654435761u);
}

double
ContentionProbe::run()
{
    double t0 = monoNow();
    std::uint64_t s = state_;
    const std::size_t mask = cells_.size() - 1;
    for (unsigned i = 0; i < kProbeSteps; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        std::uint32_t &v = cells_[s & mask];
        if (v & 1)
            v += static_cast<std::uint32_t>(s);
        else if (v & 2)
            v ^= static_cast<std::uint32_t>(s >> 32);
        else
            v = v * 3 + 1;
    }
    state_ = s;
    return monoNow() - t0;
}

} // namespace hb
