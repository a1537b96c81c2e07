#include "mitigation/para.h"

#include <cmath>

#include "common/log.h"

namespace bh {

double
Para::deriveProbability(unsigned n_rh, double fail_probability)
{
    BH_ASSERT(n_rh > 0, "PARA needs a positive threshold");
    double p = 1.0 - std::exp(std::log(fail_probability) /
                              static_cast<double>(n_rh));
    return p > 1.0 ? 1.0 : p;
}

Para::Para(unsigned n_rh, double fail_probability, std::uint64_t seed)
    : p(deriveProbability(n_rh, fail_probability)), rng(seed)
{}

void
Para::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                 Cycle now)
{
    (void)thread;
    (void)now;
    if (rng.nextBool(p))
        host->performVictimRefresh(flat_bank, row, 1.0);
}

} // namespace bh
