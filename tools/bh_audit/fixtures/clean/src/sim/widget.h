// Fixture: fully covered snapshot class — every mutable member is named
// in transfer() or carries a reasoned skip, and the const config member
// is exempt without one. The selftest requires zero findings.
#pragma once

namespace bh {

class Widget {
  public:
    explicit Widget(unsigned capacity) : capacity(capacity) {}

    void saveState(StateWriter &w) const { transfer(w, *this); }
    void loadState(StateReader &r) { transfer(r, *this); }

  private:
    template <class Ar, class Self>
    static void transfer(Ar &ar, Self &self);

    unsigned counter = 0;
    const unsigned capacity;
    Widget *peer = nullptr;  // bh-audit: skip(peer) -- non-owning wiring
};

} // namespace bh
