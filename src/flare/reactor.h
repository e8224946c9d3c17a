// Epoll reactor: the server side of the TCP transport since the
// scalable-coordinator PR.
//
// One reactor thread owns every fd (the listener, an eventfd wakeup, and
// all accepted connections) and multiplexes them through a single
// epoll_wait loop: nonblocking accept, nonblocking reads straight into a
// frame-sized buffer per connection, nonblocking gathered writes (length
// prefix + payload) from per-connection output queues.
// Complete frames are handed to a bounded worker pool (core/thread_pool.h)
// through an AsyncDispatcher; responses come back over a mutex-guarded
// completion queue plus an eventfd kick. Compared to the old
// thread-per-connection design, N idle sites cost N parked fds and zero
// threads instead of N blocked handler threads — the difference between
// tens of sites and hundreds on one coordinator box.
//
// Ownership model (DESIGN.md §13):
//  * Every fd is created, registered, and closed by the reactor thread
//    only. stop() never touches an fd; it sets the stop flag and kicks the
//    eventfd, and the reactor thread tears everything down on its way out.
//    Close/IO races and double-closes are structurally impossible.
//  * Workers (and long-poll parks held by the server) never see an fd.
//    They hold a RespondFn that captures the connection's *id* and a
//    shared CompletionSink. A response for a connection that has since
//    died — or for a reactor that has since stopped — looks up a dead id
//    (or a stopped sink) and is dropped. Late completions are therefore
//    always safe, never use-after-free.
//  * The reactor thread performs ::send/::recv with no lock held (the sink
//    mutex guards only the completion queue and the stop flag). cflint
//    R5/R10 sanction exactly this file for the reactor thread and its
//    nonblocking socket syscalls; sleeping or issuing blocking RPCs under
//    the sink lock is still flagged.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"
#include "core/thread_pool.h"
#include "flare/transport.h"

namespace cppflare::flare {

struct ReactorOptions {
  /// Idle-connection sweep deadline: a connection with no traffic and no
  /// in-flight (or parked) request for this long is closed (0 = never).
  /// The sweep granularity is io_timeout_ms/4 clamped to [10, 1000] ms.
  std::int64_t io_timeout_ms = 300000;
  /// Per-connection cap on the announced frame length; an oversized
  /// announcement closes the connection before any payload byte is read.
  std::uint32_t max_frame_bytes = 64u << 20;
  /// Request-handling worker threads (0 = min(8, hardware/2, >=2)).
  std::size_t worker_threads = 0;
};

/// The reactor behind TcpServer. Takes ownership of a bound+listening fd at
/// construction, serves it until stop() (idempotent, thread-safe), and joins
/// the reactor thread and worker pool before stop() returns.
class EpollReactor {
 public:
  EpollReactor(int listen_fd, AsyncDispatcher dispatcher,
               ReactorOptions options);
  ~EpollReactor();

  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  void stop();

  /// High-water mark of concurrently open accepted connections.
  std::int64_t peak_connections() const;

 private:
  /// Response (or teardown order) travelling from a worker/parked RespondFn
  /// back to the reactor thread.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::vector<std::uint8_t> payload;
    bool close = false;  // tear the connection down instead of replying
  };

  /// Shared between the reactor and every outstanding RespondFn. RespondFns
  /// keep it alive (shared_ptr) arbitrarily long after the reactor died;
  /// `stopped` makes their sends no-ops from then on. wake_fd is owned by
  /// the reactor and only written under `mu` while !stopped, so a send can
  /// never race the eventfd's close.
  struct CompletionSink {
    core::Mutex mu;
    bool stopped CF_GUARDED_BY(mu) = false;
    std::vector<Completion> queue CF_GUARDED_BY(mu);
    int wake_fd CF_GUARDED_BY(mu) = -1;

    void push(Completion c);
  };

  /// A response waiting to be written: its length prefix and payload are
  /// sent together with one sendmsg, so the payload is never copied just to
  /// prepend four bytes.
  struct OutFrame {
    std::array<std::uint8_t, 4> header{};
    std::vector<std::uint8_t> payload;
  };

  /// Per-connection state. Owned and touched by the reactor thread only.
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    // Inbound: the length prefix is read into in_header; once it has passed
    // the cap check, the payload is received straight into in_frame, sized
    // to the announced length.
    std::array<std::uint8_t, 4> in_header{};
    std::size_t in_header_got = 0;
    bool in_body = false;                  // in_header done, reading in_frame
    std::vector<std::uint8_t> in_frame;
    std::size_t in_frame_got = 0;
    std::deque<OutFrame> outq;             // unsent responses
    std::size_t out_offset = 0;            // sent prefix of outq.front(),
                                           // header bytes included
    std::int64_t in_flight = 0;            // dispatched, not yet completed
    bool wants_write = false;              // EPOLLOUT currently armed
    std::chrono::steady_clock::time_point last_activity;
  };

  void reactor_loop();
  void accept_ready();
  void conn_readable(Conn& conn);
  bool flush_writes(Conn& conn);  // false = connection broken
  void update_interest(Conn& conn);
  /// Decodes a complete length prefix; false (connection closed) when it
  /// announces more than the cap.
  bool begin_frame(Conn& conn);
  void dispatch_frame(Conn& conn, std::vector<std::uint8_t> frame);
  void drain_completions();
  void sweep_idle();
  void close_conn(std::uint64_t id);
  void close_all();

  AsyncDispatcher dispatcher_;
  ReactorOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::shared_ptr<CompletionSink> sink_;
  /// Request handlers. Declared before the reactor thread so it outlives
  /// dispatch posts, and destroyed (joined) by stop() before the thread
  /// members are torn down.
  std::unique_ptr<core::ThreadPool> workers_;
  // Reactor-thread-only state (no lock: single writer, single reader).
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = eventfd
  /// Written by the reactor thread, read by peak_connections() callers
  /// (bench samplers) while the loop runs — hence atomic.
  std::atomic<std::int64_t> peak_conns_{0};
  /// Serializes stop() (destructor vs explicit stop vs concurrent stops):
  /// joining a std::thread from two threads at once is undefined behavior.
  core::Mutex stop_mu_;
  bool stopped_ CF_GUARDED_BY(stop_mu_) = false;
  std::thread reactor_thread_;  // R5-exempt: the reactor's epoll_wait thread
};

}  // namespace cppflare::flare
