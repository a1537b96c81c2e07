// Fixture: `missed` is mutable but never named in transfer() (the
// classic added-a-field-forgot-the-snapshot bug); `tuned` carries a skip
// annotation with no reason, which must itself be reported and must
// NOT suppress the coverage finding. `limit` is const config and must
// stay silent. widget.cc's transfer() range-fors the hash container.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace bh {

class Widget {
  public:
    void saveState(StateWriter &w) const { transfer(w, *this); }
    void loadState(StateReader &r) { transfer(r, *this); }

  private:
    template <class Ar, class Self>
    static void transfer(Ar &ar, Self &self);

    unsigned counter = 0;
    unsigned missed = 0;
    unsigned tuned = 0;  // bh-audit: skip(tuned)
    const unsigned limit = 8;
    std::unordered_map<std::uint64_t, std::uint64_t> index;
};

} // namespace bh
