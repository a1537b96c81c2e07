#include "svc/net.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>

namespace bh::svc {

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

WakeFd::WakeFd() : wakeFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}

WakeFd::~WakeFd()
{
    if (wakeFd >= 0)
        ::close(wakeFd);
}

void
WakeFd::signal()
{
    // The only possible failure is a saturated counter (EAGAIN), and a
    // saturated counter is already readable: nothing to handle.
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t written = ::write(wakeFd, &one, sizeof(one));
}

void
WakeFd::drain()
{
    // One read returns and clears the whole counter; a nonblocking read
    // of an unsignalled eventfd fails with EAGAIN, which is fine.
    std::uint64_t count = 0;
    [[maybe_unused]] ssize_t got = ::read(wakeFd, &count, sizeof(count));
}

} // namespace bh::svc
