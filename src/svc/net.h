/**
 * @file
 * Socket plumbing shared by the sweep coordinator and worker.
 *
 * Both event loops sleep in poll() until something they act on changes.
 * A change made by the network shows up on a socket; a change made by
 * another thread (a finished unit, a stop request) is announced through
 * a WakeFd whose descriptor sits in the same poll set, so neither loop
 * needs a timeout to notice it.
 *
 * Both ends also disable Nagle's algorithm. The protocol writes whole
 * frames, and its small lease_request/lease exchange would otherwise
 * wait for Nagle on one side and a delayed ACK on the other.
 */
#pragma once

namespace bh::svc {

/** Set O_NONBLOCK on @p fd. @return false on failure. */
bool setNonBlocking(int fd);

/** Set TCP_NODELAY on @p fd, so each written frame goes out at once. */
void setNoDelay(int fd);

/**
 * A pollable wake-up descriptor (an eventfd). signal() from any thread
 * makes fd() readable until drain(). The polling thread must drain
 * BEFORE it re-reads the state the signal announces: a signal raised
 * after the drain then leaves fd() readable for the next poll, so no
 * wake-up is lost.
 */
class WakeFd
{
  public:
    WakeFd();
    ~WakeFd();

    WakeFd(const WakeFd &) = delete;
    WakeFd &operator=(const WakeFd &) = delete;

    /** The descriptor to poll for POLLIN; -1 if creation failed. */
    int fd() const { return wakeFd; }

    /** Make fd() readable (any thread). */
    void signal();

    /** Consume every pending signal (the polling thread). */
    void drain();

  private:
    int wakeFd = -1;
};

} // namespace bh::svc
