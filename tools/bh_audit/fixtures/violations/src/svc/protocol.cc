#include "sim/experiment.h"

namespace bh {

template <class Ar, class Self>
void
ExperimentConfig::transfer(Ar &ar, Self &self)
{
    ar.u64("nRh", self.nRh);
    ar.u64("seed", self.seed);
}

} // namespace bh
