#include "core/core.h"

#include <algorithm>

#include "common/log.h"

namespace bh {

Core::Core(ThreadId id, TraceSource *trace, ICoreMemory *memory,
           const CoreConfig &config, bool benign)
    : id_(id), trace(trace), memory(memory), config_(config),
      benign_(benign), window(config.windowSize)
{
    BH_ASSERT(config.windowSize > 0 && config.width > 0,
              "degenerate core configuration");
}

void
Core::completeLoad(std::uint64_t token, Cycle now)
{
    // Tokens are issue indices; at most windowSize are in flight, so the
    // slot is simply the token modulo the window size.
    WindowEntry &entry = window[token % window.size()];
    BH_ASSERT(entry.doneAt == kNeverCycle, "load completion for idle slot");
    entry.doneAt = now;
}

bool
Core::issueOne(Cycle now)
{
    if (pendingBubbles == 0 && !recValid) {
        rec = trace->next();
        recValid = true;
        pendingBubbles = rec.bubbles;
    }

    unsigned slot =
        static_cast<unsigned>(issueCounter % window.size());

    if (pendingBubbles > 0) {
        // Non-memory instruction: occupies a window slot, retires freely.
        window[slot].doneAt = now;
        --pendingBubbles;
        ++issueCounter;
        ++occupancy;
        stalledOnReject_ = false;
        return true;
    }

    // Memory access at the head of the pending record.
    if (rec.isWrite) {
        AccessOutcome out = memory->store(id_, rec.addr, rec.uncached);
        if (out == AccessOutcome::kRejected) {
            ++rejectStalls;
            stalledOnReject_ = true;
            return false;
        }
        window[slot].doneAt = now; // Stores retire at issue.
    } else {
        AccessOutcome out =
            memory->load(id_, rec.addr, rec.uncached, issueCounter);
        switch (out) {
          case AccessOutcome::kHit:
            window[slot].doneAt = now + config_.llcHitLatency;
            break;
          case AccessOutcome::kQueued:
            window[slot].doneAt = kNeverCycle;
            break;
          case AccessOutcome::kRejected:
            ++rejectStalls;
            stalledOnReject_ = true;
            return false;
        }
    }
    ++memAccesses;
    ++issueCounter;
    ++occupancy;
    recValid = false;
    stalledOnReject_ = false;
    return true;
}

void
Core::resetPipeline()
{
    for (WindowEntry &entry : window)
        entry.doneAt = 0;
    // issueCounter survives (tokens must stay unique across the reset),
    // so the retire head must re-align with the next issue slot — a head
    // left at 0 would retire stale entries and let issues lap pending
    // slots.
    head = static_cast<unsigned>(issueCounter % window.size());
    occupancy = 0;
    stalledOnReject_ = false;
}

void
Core::functionalAdvance(std::uint64_t insts,
                        const std::function<void(const TraceRecord &)> &sink)
{
    std::uint64_t remaining = insts;
    while (remaining > 0) {
        if (pendingBubbles == 0 && !recValid) {
            rec = trace->next();
            recValid = true;
            pendingBubbles = rec.bubbles;
        }
        if (pendingBubbles > 0) {
            std::uint64_t n =
                std::min<std::uint64_t>(pendingBubbles, remaining);
            pendingBubbles -= static_cast<std::uint32_t>(n);
            retired_ += n;
            remaining -= n;
            continue;
        }
        // The record's memory access counts as one instruction, exactly
        // as issueOne() accounts it.
        sink(rec);
        ++memAccesses;
        ++retired_;
        --remaining;
        recValid = false;
    }
}

Cycle
Core::nextEventCycle(Cycle now) const
{
    // The earliest in-order retire the core can perform on its own: the
    // head entry's completion time. A head waiting on a DRAM fill
    // (kNeverCycle) is woken by the controller's completion event instead.
    Cycle retire_at = kNeverCycle;
    if (occupancy > 0) {
        Cycle done = window[head].doneAt;
        if (done != kNeverCycle)
            retire_at = std::max(done, now + 1);
    }

    // Window slots remain and the last attempt was not a rejection: the
    // very next cycle issues something (or discovers a rejection).
    if (occupancy < window.size() && !stalledOnReject_)
        return now + 1;

    // Window full, or reject-blocked: while the memory system's state is
    // frozen, ticks are no-ops apart from the batched stall accounting.
    return retire_at;
}

void
Core::tick(Cycle now)
{
    // Retire in order from the window head.
    for (unsigned i = 0; i < config_.width && occupancy > 0; ++i) {
        WindowEntry &entry = window[head];
        if (entry.doneAt == kNeverCycle || entry.doneAt > now)
            break;
        head = (head + 1) % static_cast<unsigned>(window.size());
        --occupancy;
        ++retired_;
        if (target_ != 0 && retired_ == target_ && finishCycle_ == 0)
            finishCycle_ = now;
    }

    // Issue new work while slots and width remain.
    for (unsigned i = 0; i < config_.width; ++i) {
        if (occupancy >= window.size())
            break;
        if (!issueOne(now))
            break;
    }
}

} // namespace bh
