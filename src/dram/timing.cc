#include "dram/timing.h"

#include <algorithm>

#include "common/log.h"

namespace bh {

TimingEngine::TimingEngine(const DramSpec &spec)
    : spec_(spec),
      banks(spec.org.totalBanks()),
      ranks(spec.org.ranks),
      energy_(spec.energy)
{}

bool
TimingEngine::actAllowedByRank(const RankState &rank, unsigned bank_group,
                               Cycle now) const
{
    if (now < rank.blockedUntil)
        return false;
    if (rank.hasLastAct) {
        Cycle spacing = (bank_group == rank.lastActBankGroup)
                            ? spec_.timing.tRRD_L
                            : spec_.timing.tRRD_S;
        if (now < rank.lastAct + spacing)
            return false;
    }
    if (rank.fawCount >= 4) {
        Cycle oldest = rank.fawWindow[rank.fawHead];
        if (now < oldest + spec_.timing.tFAW)
            return false;
    }
    return true;
}

void
TimingEngine::recordAct(RankState &rank, unsigned bank_group, Cycle now)
{
    rank.lastAct = now;
    rank.lastActBankGroup = bank_group;
    rank.hasLastAct = true;
    rank.fawWindow[rank.fawHead] = now;
    rank.fawHead = (rank.fawHead + 1) % 4;
    if (rank.fawCount < 4)
        ++rank.fawCount;
}

bool
TimingEngine::canIssue(DramCommand cmd, unsigned flat_bank, Cycle now) const
{
    const BankState &b = banks[flat_bank];
    const RankState &r = ranks[rankOf(flat_bank)];
    if (now < b.blockedUntil || now < r.blockedUntil)
        return false;

    switch (cmd) {
      case DramCommand::kAct:
        return !b.open && now >= b.nextAct &&
               actAllowedByRank(r, bankGroupOf(flat_bank), now);
      case DramCommand::kPre:
        return b.open && now >= b.nextPre;
      case DramCommand::kRead:
        return b.open && now >= b.nextRdWr && now >= bus.nextRead;
      case DramCommand::kWrite:
        return b.open && now >= b.nextRdWr && now >= bus.nextWrite;
    }
    return false;
}

Cycle
TimingEngine::earliestIssue(DramCommand cmd, unsigned flat_bank,
                            Cycle now) const
{
    const BankState &b = banks[flat_bank];
    const RankState &r = ranks[rankOf(flat_bank)];
    Cycle at = std::max({now, b.blockedUntil, r.blockedUntil});

    switch (cmd) {
      case DramCommand::kAct: {
        if (b.open)
            return kNeverCycle;
        at = std::max(at, b.nextAct);
        if (r.hasLastAct) {
            Cycle spacing = (bankGroupOf(flat_bank) == r.lastActBankGroup)
                                ? spec_.timing.tRRD_L
                                : spec_.timing.tRRD_S;
            at = std::max(at, r.lastAct + spacing);
        }
        if (r.fawCount >= 4)
            at = std::max(at, r.fawWindow[r.fawHead] + spec_.timing.tFAW);
        return at;
      }
      case DramCommand::kPre:
        return b.open ? std::max(at, b.nextPre) : kNeverCycle;
      case DramCommand::kRead:
        return b.open ? std::max({at, b.nextRdWr, bus.nextRead})
                      : kNeverCycle;
      case DramCommand::kWrite:
        return b.open ? std::max({at, b.nextRdWr, bus.nextWrite})
                      : kNeverCycle;
    }
    return kNeverCycle;
}

Cycle
TimingEngine::quiescedAt(unsigned rank, Cycle now) const
{
    const RankState &r = ranks[rank];
    Cycle at = std::max(now, r.blockedUntil);
    unsigned base = rank * spec_.org.banksPerRank();
    for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i) {
        const BankState &b = banks[base + i];
        if (b.open)
            return kNeverCycle;
        at = std::max(at, b.blockedUntil);
    }
    return at;
}

void
TimingEngine::issueAct(unsigned flat_bank, unsigned row, Cycle now)
{
    BH_ASSERT(canIssue(DramCommand::kAct, flat_bank, now),
              "illegal ACT issue");
    BankState &b = banks[flat_bank];
    b.open = true;
    b.openRow = row;
    b.nextRdWr = now + spec_.timing.tRCD;
    b.nextPre = now + spec_.timing.tRAS;
    b.nextAct = now + spec_.timing.tRC;
    recordAct(ranks[rankOf(flat_bank)], bankGroupOf(flat_bank), now);
    energy_.addAct();
}

void
TimingEngine::issuePre(unsigned flat_bank, Cycle now)
{
    BH_ASSERT(canIssue(DramCommand::kPre, flat_bank, now),
              "illegal PRE issue");
    BankState &b = banks[flat_bank];
    b.open = false;
    b.nextAct = std::max(b.nextAct, now + spec_.timing.tRP);
}

Cycle
TimingEngine::issueRead(unsigned flat_bank, Cycle now)
{
    BH_ASSERT(canIssue(DramCommand::kRead, flat_bank, now),
              "illegal RD issue");
    BankState &b = banks[flat_bank];
    b.nextRdWr = now + spec_.timing.tCCD;
    b.nextPre = std::max(b.nextPre, now + spec_.timing.tRTP);
    bus.nextRead = now + spec_.timing.tCCD;
    bus.nextWrite = std::max(
        bus.nextWrite,
        now + spec_.timing.tCL + spec_.timing.tBL + spec_.timing.tRTW);
    energy_.addRead();
    return now + spec_.timing.readLatency;
}

void
TimingEngine::issueWrite(unsigned flat_bank, Cycle now)
{
    BH_ASSERT(canIssue(DramCommand::kWrite, flat_bank, now),
              "illegal WR issue");
    BankState &b = banks[flat_bank];
    b.nextRdWr = now + spec_.timing.tCCD;
    b.nextPre = std::max(
        b.nextPre, now + spec_.timing.tCWL + spec_.timing.tBL +
                       spec_.timing.tWR);
    bus.nextWrite = now + spec_.timing.tCCD;
    bus.nextRead = std::max(
        bus.nextRead,
        now + spec_.timing.tCWL + spec_.timing.tBL + spec_.timing.tWTR);
    energy_.addWrite();
}

void
TimingEngine::issueRefresh(unsigned rank, Cycle now)
{
    BH_ASSERT(rankQuiesced(rank, now), "REF on non-quiesced rank");
    RankState &r = ranks[rank];
    Cycle until = now + spec_.timing.tRFC;
    r.blockedUntil = until;
    unsigned base = rank * spec_.org.banksPerRank();
    for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i) {
        BankState &b = banks[base + i];
        b.open = false;
        b.blockedUntil = std::max(b.blockedUntil, until);
        b.nextAct = std::max(b.nextAct, until);
    }
    energy_.addRefresh();
}

void
TimingEngine::issueRfm(unsigned flat_bank, Cycle now)
{
    BankState &b = banks[flat_bank];
    Cycle until = now + spec_.timing.tRFM;
    b.open = false;
    b.blockedUntil = std::max(b.blockedUntil, until);
    b.nextAct = std::max(b.nextAct, until);
    energy_.addRfm();
}

void
TimingEngine::blockBank(unsigned flat_bank, Cycle now, Cycle duration)
{
    BankState &b = banks[flat_bank];
    Cycle until = now + duration;
    b.open = false;
    b.blockedUntil = std::max(b.blockedUntil, until);
    b.nextAct = std::max(b.nextAct, until);
}

void
TimingEngine::blockRank(unsigned rank, Cycle now, Cycle duration)
{
    RankState &r = ranks[rank];
    Cycle until = now + duration;
    r.blockedUntil = std::max(r.blockedUntil, until);
    unsigned base = rank * spec_.org.banksPerRank();
    for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i)
        blockBank(base + i, now, duration);
}

bool
TimingEngine::rankQuiesced(unsigned rank, Cycle now) const
{
    const RankState &r = ranks[rank];
    if (now < r.blockedUntil)
        return false;
    unsigned base = rank * spec_.org.banksPerRank();
    for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i) {
        const BankState &b = banks[base + i];
        if (b.open || now < b.blockedUntil)
            return false;
    }
    return true;
}

} // namespace bh
