// Fixture: `stealthFactor` is injected — it reaches neither
// experimentKey()/resolveExperimentConfig() nor the protocol transfer.
// The selftest requires the key-coverage pass to flag it twice (key,
// transfer).
#pragma once

#include <cstdint>

namespace bh {

struct ExperimentConfig {
    unsigned nRh = 1000;
    std::uint64_t seed = 1;
    unsigned stealthFactor = 0;
};

} // namespace bh
