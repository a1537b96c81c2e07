/**
 * @file
 * AQUA: quarantine of aggressor rows via row migration (Saxena et al.,
 * MICRO'22).
 *
 * Aggressors are detected with a Misra-Gries tracker (like Graphene); on
 * detection the row's content is migrated to a quarantine region, which
 * separates it from its victims. The migration itself is the RowHammer-
 * preventive action: a long bank blackout (row read + quarantine write),
 * which is why AQUA's preventive actions are the costliest the paper
 * evaluates (Fig 11's note on AQUA's latency scale).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "dram/spec.h"
#include "mitigation/misra_gries.h"
#include "mitigation/mitigation.h"

namespace bh {

/** AQUA mitigation mechanism. */
class Aqua : public IMitigation
{
  public:
    Aqua(unsigned n_rh, const DramSpec &spec);

    const char *name() const override { return "AQUA"; }

    void commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                    Cycle now) override;

    void saveState(StateWriter &w) const override { transfer(w, *this); }
    void loadState(StateReader &r) override { transfer(r, *this); }

    unsigned migrationThreshold() const { return threshold; }
    std::uint64_t migrations() const { return migrations_; }

  private:
    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        ar.tag("aqua");
        ar.u64(self.lastReset);
        ar.u64(self.migrations_);
        ar.fixedVec(self.tables, asState);
    }

    const unsigned threshold;
    const Cycle resetPeriod;
    Cycle lastReset = 0;
    std::vector<MisraGries> tables;
    std::uint64_t migrations_ = 0;
};

} // namespace bh
