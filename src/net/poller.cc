#include "net/poller.h"

#include <sys/epoll.h>

#include <cerrno>
#include <cstring>

#include "common/check.h"

namespace tailguard::net {

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  TG_CHECK_MSG(epfd_.valid(),
               "epoll_create1 failed: " << std::strerror(errno));
}

void Poller::watch(int fd, bool want_read, bool want_write) {
  const Interest wanted{want_read, want_write};
  const auto it = interest_.find(fd);
  const bool existed = it != interest_.end();
  if (existed && it->second.read == wanted.read &&
      it->second.write == wanted.write)
    return;  // steady state: no syscall
  epoll_event ev{};
  ev.events = (wanted.read ? EPOLLIN : 0u) | (wanted.write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  TG_CHECK_MSG(::epoll_ctl(epfd_.get(), existed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD,
                           fd, &ev) == 0,
               "epoll_ctl(" << (existed ? "MOD" : "ADD") << ", fd " << fd
                            << ") failed: " << std::strerror(errno));
  interest_[fd] = wanted;
}

void Poller::forget(int fd) {
  if (interest_.erase(fd) == 0) return;
  TG_CHECK_MSG(::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr) == 0,
               "epoll_ctl(DEL, fd " << fd
                                    << ") failed: " << std::strerror(errno));
}

int Poller::wait(std::vector<Event>& out, int timeout_ms) {
  epoll_event evs[kMaxBatch];
  const int n = ::epoll_wait(epfd_.get(), evs, kMaxBatch, timeout_ms);
  if (n <= 0) return 0;  // timeout or EINTR
  for (int i = 0; i < n; ++i) {
    Event ev;
    ev.fd = evs[i].data.fd;
    ev.readable = (evs[i].events & EPOLLIN) != 0;
    ev.writable = (evs[i].events & EPOLLOUT) != 0;
    ev.closed = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(ev);
  }
  return n;
}

}  // namespace tailguard::net
