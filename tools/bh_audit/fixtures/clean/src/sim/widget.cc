#include "sim/widget.h"

namespace bh {

template <class Ar, class Self>
void
Widget::transfer(Ar &ar, Self &self)
{
    ar.tag("widget");
    ar.u64(self.counter);
}

} // namespace bh
