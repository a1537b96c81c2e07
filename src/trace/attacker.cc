#include "trace/attacker.h"

#include <algorithm>

namespace bh {

std::vector<unsigned>
attackerAggressorRows(const AttackerConfig &config)
{
    std::vector<unsigned> rows;
    switch (config.pattern) {
      case AttackPattern::kManySided:
        rows.reserve(config.numAggressors);
        for (unsigned i = 0; i < config.numAggressors; ++i)
            rows.push_back(config.rowBase + i * config.rowSpacing);
        break;
      case AttackPattern::kDoubleSided: {
        // One victim per pair of aggressors; victims spaced so no two
        // pairs share a victim-adjacent row.
        unsigned pairs = std::max(1u, config.numAggressors / 2);
        for (unsigned k = 0; k < pairs; ++k) {
            unsigned victim = config.rowBase + 1 + 4 * k;
            rows.push_back(victim - 1);
            rows.push_back(victim + 1);
        }
        break;
      }
      case AttackPattern::kHalfDouble: {
        // Each site spans rows [base, base+4]: victim at base+2, far
        // aggressors at distance 2, near rows at distance 1.
        unsigned sites = std::max(1u, config.numAggressors / 4);
        for (unsigned k = 0; k < sites; ++k) {
            unsigned base = config.rowBase + 6 * k;
            rows.push_back(base);     // far low
            rows.push_back(base + 4); // far high
            rows.push_back(base + 1); // near low
            rows.push_back(base + 3); // near high
        }
        break;
      }
    }
    return rows;
}

std::vector<unsigned>
attackerRowSequence(const AttackerConfig &config)
{
    if (config.pattern != AttackPattern::kHalfDouble)
        return attackerAggressorRows(config);

    // Half-Double dilution: far rows hammer kHalfDoubleFarPerNear times
    // per near access, so the census sees the characteristic heavy-far /
    // light-near activation profile.
    std::vector<unsigned> seq;
    unsigned sites = std::max(1u, config.numAggressors / 4);
    for (unsigned k = 0; k < sites; ++k) {
        unsigned base = config.rowBase + 6 * k;
        for (unsigned d = 0; d < kHalfDoubleFarPerNear; ++d) {
            seq.push_back(base);
            seq.push_back(base + 4);
        }
        seq.push_back(base + 1);
        seq.push_back(base + 3);
    }
    return seq;
}

std::vector<DramAddress>
attackerBankCoords(const DramOrg &org, unsigned num_banks)
{
    std::vector<DramAddress> coords;
    coords.reserve(num_banks);
    for (unsigned i = 0; i < num_banks; ++i) {
        DramAddress da;
        da.channel = i % org.channels;
        unsigned flat = i / org.channels;
        da.rank = flat % org.ranks;
        unsigned within = flat / org.ranks;
        da.bankGroup = within % org.bankGroups;
        da.bank = (within / org.bankGroups) % org.banksPerGroup;
        coords.push_back(da);
    }
    return coords;
}

unsigned
attackedBankCount(const AttackerConfig &config, const DramOrg &org)
{
    unsigned total_banks = org.totalBanks() * org.channels;
    return config.numBanks ? std::min(config.numBanks, total_banks)
                           : total_banks;
}

AttackerTrace::AttackerTrace(const AttackerConfig &config,
                             const AddressMap &mapper, std::uint64_t seed)
    : config_(config), mapper(mapper), rng(seed),
      numBanks_(attackedBankCount(config, mapper.org())),
      rows(attackerAggressorRows(config)),
      seq(attackerRowSequence(config)),
      bankCoords(attackerBankCoords(mapper.org(), numBanks_))
{}

TraceRecord
AttackerTrace::next()
{
    TraceRecord rec;
    rec.bubbles = config_.bubbles;
    rec.isWrite = false;
    rec.uncached = true;

    DramAddress da = bankCoords[bankCursor];
    da.row = seq[rowCursor];
    da.column = static_cast<unsigned>(
        rng.nextBounded(mapper.org().linesPerRow));

    // Banks iterate in the inner loop: consecutive accesses hit different
    // banks, maximizing activation parallelism.
    if (++bankCursor >= bankCoords.size()) {
        bankCursor = 0;
        rowCursor = (rowCursor + 1) % seq.size();
    }

    rec.addr = mapper.encode(da);
    return rec;
}

} // namespace bh
