// Fixture: minimal ExperimentConfig whose every field reaches the key
// and the protocol transfer. bh_audit --selftest pins the key-coverage
// pass to report nothing here.
#pragma once

#include <cstdint>

namespace bh {

struct ExperimentConfig {
    unsigned nRh = 1000;
    std::uint64_t seed = 1;
};

} // namespace bh
