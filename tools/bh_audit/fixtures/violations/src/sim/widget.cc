#include "sim/widget.h"

#include <chrono>

namespace bh {

template <class Ar, class Self>
void
Widget::transfer(Ar &ar, Self &self)
{
    ar.u64(self.counter);
    for (const auto &kv : self.index)
        ar.u64(kv.second);
}

std::uint64_t
tickMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace bh
