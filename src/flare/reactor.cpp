#include "flare/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "core/error.h"
#include "core/logging.h"
#include "flare/observability.h"

#define CPPFLARE_LOG_COMPONENT "EpollReactor"

namespace cppflare::flare {

namespace {

/// Same process-wide counters the frame helpers in tcp.cpp feed: the
/// registry hands back the identical Counter objects by name, so reactor
/// traffic and blocking-client traffic land in one tally.
struct ReactorMetrics {
  core::Counter& bytes_sent;
  core::Counter& bytes_recv;
  core::Counter& frames_sent;
  core::Counter& frames_recv;
  core::Gauge& peak_connections;
  static const ReactorMetrics& get() {
    static ReactorMetrics m{
        core::MetricRegistry::instance().counter(metric_names::kTcpBytesSent),
        core::MetricRegistry::instance().counter(metric_names::kTcpBytesRecv),
        core::MetricRegistry::instance().counter(metric_names::kTcpFramesSent),
        core::MetricRegistry::instance().counter(metric_names::kTcpFramesRecv),
        core::MetricRegistry::instance().gauge(
            metric_names::kTcpPeakConnections)};
    return m;
  }
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::size_t default_workers() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(hw / 2, 2, 8);
}

constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kEventId = 1;

}  // namespace

void EpollReactor::CompletionSink::push(Completion c) {
  core::MutexLock lock(mu);
  if (stopped) return;  // late response to a stopped reactor: drop
  queue.push_back(std::move(c));
  const std::uint64_t one = 1;
  // Nonblocking eventfd kick under the sink lock (never a socket, never
  // blocking: the counter simply saturates if the reactor is behind).
  [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
}

EpollReactor::EpollReactor(int listen_fd, AsyncDispatcher dispatcher,
                           ReactorOptions options)
    : dispatcher_(std::move(dispatcher)),
      options_(options),
      listen_fd_(listen_fd) {
  if (!dispatcher_) throw TransportError("EpollReactor: dispatcher required");
  set_nonblocking(listen_fd_);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw TransportError("epoll_create1 failed: " +
                         std::string(std::strerror(errno)));
  }
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    ::close(epoll_fd_);
    throw TransportError("eventfd failed: " +
                         std::string(std::strerror(errno)));
  }
  sink_ = std::make_shared<CompletionSink>();
  {
    core::MutexLock lock(sink_->mu);
    sink_->wake_fd = event_fd_;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kEventId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

  const std::size_t n_workers =
      options_.worker_threads > 0 ? options_.worker_threads : default_workers();
  workers_ = std::make_unique<core::ThreadPool>(n_workers);
  // The reactor owns its own thread: it blocks in epoll_wait, which the
  // bounded worker pool must never do.
  reactor_thread_ = std::thread([this] { reactor_loop(); });  // R5-exempt: reactor epoll_wait thread
}

EpollReactor::~EpollReactor() { stop(); }

void EpollReactor::stop() {
  core::MutexLock stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  {
    core::MutexLock lock(sink_->mu);
    sink_->stopped = true;
    sink_->queue.clear();
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(event_fd_, &one, sizeof(one));
  }
  if (reactor_thread_.joinable()) reactor_thread_.join();  // R5-exempt: joining the reactor thread
  // Workers may still be running dispatches whose RespondFns now drop into
  // the stopped sink; joining them here bounds stop() to the slowest
  // in-flight handler, exactly like the old per-connection join.
  workers_.reset();
  // The reactor thread closed every conn fd and the listener on its way
  // out; the epoll and event fds are closed here, after nothing can touch
  // them (wake_fd writes are gated by sink_->stopped above).
  if (event_fd_ >= 0) {
    ::close(event_fd_);
    event_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

std::int64_t EpollReactor::peak_connections() const {
  return peak_conns_.load(std::memory_order_relaxed);
}

void EpollReactor::reactor_loop() {
  // Sweep granularity: fine enough that a silent peer is torn down within
  // ~1.25x its io timeout, coarse enough to stay negligible when idle.
  std::int64_t tick_ms = 1000;
  if (options_.io_timeout_ms > 0) {
    tick_ms = std::clamp<std::int64_t>(options_.io_timeout_ms / 4, 10, 1000);
  }
  std::vector<epoll_event> events(128);
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               static_cast<int>(tick_ms));
    if (n < 0) {
      if (errno == EINTR) continue;
      LOG(warn).msg("epoll_wait failed:").msg(std::strerror(errno));
      break;
    }
    {
      core::MutexLock lock(sink_->mu);
      if (sink_->stopped) break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        accept_ready();
        continue;
      }
      if (id == kEventId) {
        std::uint64_t drained = 0;
        while (::read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;  // completions are drained below, every iteration
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(id);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!flush_writes(conn)) {
          close_conn(id);
          continue;
        }
        update_interest(conn);
      }
      if ((events[i].events & EPOLLIN) != 0) {
        conn_readable(conn);  // may close the conn internally
      }
    }
    drain_completions();
    sweep_idle();
  }
  close_all();
}

void EpollReactor::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained; anything else: wait for the next event
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(conn->id, std::move(conn));
    const auto open_now = static_cast<std::int64_t>(conns_.size());
    if (open_now > peak_conns_.load(std::memory_order_relaxed)) {
      peak_conns_.store(open_now, std::memory_order_relaxed);
      ReactorMetrics::get().peak_connections.set(static_cast<double>(open_now));
    }
  }
}

void EpollReactor::conn_readable(Conn& conn) {
  const std::uint64_t id = conn.id;
  for (;;) {
    // Framing: u32 little-endian length prefix, then the payload. A frame
    // is complete once its buffer is full (at once, for a zero-length one).
    if (conn.in_body && conn.in_frame_got == conn.in_frame.size()) {
      conn.in_body = false;
      conn.in_frame_got = 0;
      ReactorMetrics::get().frames_recv.add(1);
      dispatch_frame(conn, std::exchange(conn.in_frame, {}));
    }
    std::uint8_t* const dst =
        conn.in_body ? conn.in_frame.data() + conn.in_frame_got
                     : conn.in_header.data() + conn.in_header_got;
    const std::size_t want =
        conn.in_body ? conn.in_frame.size() - conn.in_frame_got
                     : conn.in_header.size() - conn.in_header_got;
    const ssize_t got = ::recv(conn.fd, dst, want, 0);
    if (got == 0) {
      close_conn(id);
      return;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(id);
      return;
    }
    conn.last_activity = std::chrono::steady_clock::now();
    ReactorMetrics::get().bytes_recv.add(got);
    if (conn.in_body) {
      conn.in_frame_got += static_cast<std::size_t>(got);
      continue;
    }
    conn.in_header_got += static_cast<std::size_t>(got);
    if (conn.in_header_got == conn.in_header.size() && !begin_frame(conn)) {
      return;  // oversized announcement: the connection is gone
    }
  }
}

bool EpollReactor::begin_frame(Conn& conn) {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(conn.in_header[i]) << (8 * i);
  }
  conn.in_header_got = 0;
  // Checked before anything is allocated for the frame.
  const std::uint32_t cap = std::min(options_.max_frame_bytes, 64u << 20);
  if (len > cap) {
    LOG(warn)
        .msg("oversized frame announced; closing connection")
        .kv("bytes", static_cast<std::int64_t>(len))
        .kv("cap", static_cast<std::int64_t>(cap));
    close_conn(conn.id);
    return false;
  }
  conn.in_frame.resize(len);
  conn.in_frame_got = 0;
  conn.in_body = true;
  return true;
}

void EpollReactor::dispatch_frame(Conn& conn, std::vector<std::uint8_t> frame) {
  conn.in_flight += 1;
  const std::uint64_t id = conn.id;
  std::shared_ptr<CompletionSink> sink = sink_;
  // The worker runs the dispatcher; the RespondFn it gets may be invoked
  // synchronously, or retained by the server and invoked from a completely
  // different thread later (a parked long-poll). Either way the response
  // funnels through the sink back to the reactor thread, which is the only
  // place fds are touched.
  workers_->post([this, id, sink, frame = std::move(frame)]() {
    RespondFn respond = [id, sink](std::vector<std::uint8_t> response) {
      sink->push(Completion{id, std::move(response), false});
    };
    try {
      dispatcher_(frame, std::move(respond));
    } catch (const std::exception& e) {
      LOG(warn).msg("dispatcher error; closing connection").msg(e.what());
      sink->push(Completion{id, {}, true});
    }
  });
}

void EpollReactor::drain_completions() {
  std::vector<Completion> batch;
  {
    core::MutexLock lock(sink_->mu);
    batch.swap(sink_->queue);
  }
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died while parked
    Conn& conn = *it->second;
    conn.in_flight = std::max<std::int64_t>(0, conn.in_flight - 1);
    if (c.close) {
      close_conn(c.conn_id);
      continue;
    }
    OutFrame out;
    const std::uint32_t len = static_cast<std::uint32_t>(c.payload.size());
    for (int i = 0; i < 4; ++i) {
      out.header[i] = static_cast<std::uint8_t>(len >> (8 * i));
    }
    out.payload = std::move(c.payload);
    conn.outq.push_back(std::move(out));
    ReactorMetrics::get().frames_sent.add(1);
    if (!flush_writes(conn)) {
      close_conn(c.conn_id);
      continue;
    }
    update_interest(conn);
  }
}

bool EpollReactor::flush_writes(Conn& conn) {
  while (!conn.outq.empty()) {
    OutFrame& out = conn.outq.front();
    const std::size_t header = out.header.size();
    while (conn.out_offset < header + out.payload.size()) {
      // One gathered send of whatever is left of the prefix and payload.
      iovec iov[2];
      std::size_t parts = 0;
      if (conn.out_offset < header) {
        iov[parts++] = {out.header.data() + conn.out_offset,
                        header - conn.out_offset};
      }
      const std::size_t payload_sent =
          conn.out_offset > header ? conn.out_offset - header : 0;
      if (payload_sent < out.payload.size()) {
        iov[parts++] = {out.payload.data() + payload_sent,
                        out.payload.size() - payload_sent};
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = parts;
      const ssize_t sent = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // backpressure
        return false;
      }
      conn.out_offset += static_cast<std::size_t>(sent);
      conn.last_activity = std::chrono::steady_clock::now();
      ReactorMetrics::get().bytes_sent.add(sent);
    }
    conn.outq.pop_front();
    conn.out_offset = 0;
  }
  return true;
}

void EpollReactor::update_interest(Conn& conn) {
  const bool needs_write = !conn.outq.empty();
  if (needs_write == conn.wants_write) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (needs_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.wants_write = needs_write;
}

void EpollReactor::sweep_idle() {
  if (options_.io_timeout_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> doomed;
  for (const auto& [id, conn] : conns_) {
    // A connection with a request in flight — including one parked in a
    // long-poll — is alive by definition; the sweep only reaps peers that
    // went silent with nothing pending (e.g. connected and sent half a
    // header, or nothing at all).
    if (conn->in_flight > 0 || !conn->outq.empty()) continue;
    const auto silent_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                               now - conn->last_activity)
                               .count();
    if (silent_ms >= options_.io_timeout_ms) doomed.push_back(id);
  }
  for (const std::uint64_t id : doomed) {
    LOG(info).msg("closing idle connection (silent peer)");
    close_conn(id);
  }
}

void EpollReactor::close_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
}

void EpollReactor::close_all() {
  for (auto& [id, conn] : conns_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace cppflare::flare
