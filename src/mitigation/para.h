/**
 * @file
 * PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA'14).
 *
 * Stateless: on every demand activation, with probability p, preventively
 * refresh the activated row's neighbours. p is derived from the RowHammer
 * threshold so that the probability an aggressor row reaches N_RH
 * activations without a single preventive refresh stays below a target
 * failure probability: (1 - p)^N_RH <= P_fail.
 */
#pragma once

#include "common/rng.h"
#include "mitigation/mitigation.h"

namespace bh {

/** PARA mitigation mechanism. */
class Para : public IMitigation
{
  public:
    /**
     * @param n_rh RowHammer threshold.
     * @param fail_probability Target per-row failure probability.
     */
    explicit Para(unsigned n_rh, double fail_probability = 1e-15,
                  std::uint64_t seed = 0x9a7a);

    const char *name() const override { return "PARA"; }

    void commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                    Cycle now) override;

    void saveState(StateWriter &w) const override { transfer(w, *this); }
    void loadState(StateReader &r) override { transfer(r, *this); }

    /** The configured refresh probability. */
    double probability() const { return p; }

    /** Derive the refresh probability for a threshold. */
    static double deriveProbability(unsigned n_rh, double fail_probability);

  private:
    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        ar.tag("para");
        ar.state(self.rng);
    }

    const double p;
    Rng rng;
};

} // namespace bh
