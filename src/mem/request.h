/**
 * @file
 * Memory request record exchanged between the LLC/MSHR layer and the
 * memory controller.
 */
#pragma once

#include <cstdint>

#include "common/types.h"
#include "dram/address.h"

namespace bh {

/** One DRAM-bound request. */
struct Request
{
    enum class Type
    {
        kRead,
        kWrite,
    };

    Type type = Type::kRead;
    Addr addr = 0;
    DramAddress da;
    unsigned flatBank = 0;
    ThreadId thread = kInvalidThread;
    Cycle enqueueCycle = 0;
    /** Opaque id the requester uses to match completions. */
    std::uint64_t token = 0;
    /** True for cache-bypassing accesses (attacker clflush model). */
    bool uncached = false;

    /** Snapshot layout of a queued or in-flight request. */
    template <class Ar, class Self>
    static void
    transfer(Ar &ar, Self &self)
    {
        bool is_write = self.type == Type::kWrite;
        ar.b(is_write);
        if constexpr (Ar::kLoading)
            self.type = is_write ? Type::kWrite : Type::kRead;
        ar.u64(self.addr);
        ar.u64(self.da.rank);
        ar.u64(self.da.bankGroup);
        ar.u64(self.da.bank);
        ar.u64(self.da.row);
        ar.u64(self.da.column);
        ar.u64(self.flatBank);
        ar.u64(self.thread);
        ar.u64(self.enqueueCycle);
        ar.u64(self.token);
        ar.b(self.uncached);
    }
};

} // namespace bh
