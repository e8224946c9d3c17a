#include "flare/tcp.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/error.h"

namespace cppflare::flare {
namespace {

/// Answers every request with its own bytes.
void echo(const std::vector<std::uint8_t>& request, RespondFn respond) {
  respond(request);
}

TEST(Tcp, EchoRoundTrip) {
  TcpServer server(0, echo);
  ASSERT_GT(server.port(), 0);
  TcpConnection conn("127.0.0.1", server.port());
  const std::vector<std::uint8_t> msg = {1, 2, 3, 4, 5};
  EXPECT_EQ(conn.call(msg), msg);
}

TEST(Tcp, MultipleSequentialCallsOnOneConnection) {
  TcpServer server(0, [](const std::vector<std::uint8_t>& req,
                         RespondFn respond) {
    std::vector<std::uint8_t> out = req;
    for (auto& b : out) b += 1;
    respond(out);
  });
  TcpConnection conn("127.0.0.1", server.port());
  for (int i = 0; i < 20; ++i) {
    const std::vector<std::uint8_t> msg = {static_cast<std::uint8_t>(i)};
    const auto resp = conn.call(msg);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(resp[0], static_cast<std::uint8_t>(i + 1));
  }
}

TEST(Tcp, EmptyFrameRoundTrip) {
  TcpServer server(0, [](const std::vector<std::uint8_t>&, RespondFn respond) {
    respond(std::vector<std::uint8_t>{});
  });
  TcpConnection conn("127.0.0.1", server.port());
  EXPECT_TRUE(conn.call({}).empty());
}

TEST(Tcp, LargeFrameRoundTrip) {
  TcpServer server(0, echo);
  TcpConnection conn("127.0.0.1", server.port());
  std::vector<std::uint8_t> big(4 << 20);  // 4 MiB (a model-sized payload)
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(conn.call(big), big);
}

TEST(Tcp, ConcurrentClients) {
  std::atomic<int> calls{0};
  TcpServer server(0, [&calls](const std::vector<std::uint8_t>& req,
                               RespondFn respond) {
    calls.fetch_add(1);
    respond(req);
  });
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      try {
        TcpConnection conn("127.0.0.1", server.port());
        for (int i = 0; i < 10; ++i) {
          const std::vector<std::uint8_t> msg = {static_cast<std::uint8_t>(t),
                                                 static_cast<std::uint8_t>(i)};
          if (conn.call(msg) != msg) failures.fetch_add(1);
        }
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(calls.load(), 80);
}

TEST(Tcp, ConnectToClosedPortThrows) {
  std::uint16_t dead_port;
  {
    TcpServer server(0, echo);
    dead_port = server.port();
    server.stop();
  }
  EXPECT_THROW(TcpConnection("127.0.0.1", dead_port), TransportError);
}

TEST(Tcp, BadHostThrows) {
  EXPECT_THROW(TcpConnection("not-an-ip", 1234), TransportError);
}

TEST(Tcp, ServerStopTerminatesConnections) {
  auto server = std::make_unique<TcpServer>(0, echo);
  TcpConnection conn("127.0.0.1", server->port());
  EXPECT_EQ(conn.call({1}), (std::vector<std::uint8_t>{1}));
  server->stop();
  EXPECT_THROW(conn.call({2}), TransportError);
}

TEST(Tcp, StopIsIdempotent) {
  TcpServer server(0, echo);
  server.stop();
  server.stop();
  SUCCEED();
}

TEST(Tcp, DispatcherExceptionClosesConnectionOnly) {
  TcpServer server(0, [](const std::vector<std::uint8_t>&, RespondFn) {
    throw Error("handler failure");
  });
  TcpConnection bad("127.0.0.1", server.port());
  EXPECT_THROW(bad.call({1}), TransportError);
  // Server must still accept new connections afterwards.
  TcpServer echo_server(0, echo);
  TcpConnection good("127.0.0.1", echo_server.port());
  EXPECT_EQ(good.call({7}), (std::vector<std::uint8_t>{7}));
}

TEST(Tcp, OversizedEnvelopeRefusedBeforePayloadRead) {
  TcpServerOptions options;
  options.max_frame_bytes = 1024;
  TcpServer server(0, echo, options);
  // Under the cap: served normally.
  TcpConnection small("127.0.0.1", server.port());
  EXPECT_EQ(small.call(std::vector<std::uint8_t>(1024, 7)).size(), 1024u);
  // Over the cap: the server drops the connection on reading the length
  // prefix, before a single payload byte crosses the wire.
  TcpConnection big("127.0.0.1", server.port());
  EXPECT_THROW(big.call(std::vector<std::uint8_t>(1025, 7)), TransportError);
  // The listener survives a hostile frame announcement.
  TcpConnection again("127.0.0.1", server.port());
  EXPECT_EQ(again.call({1, 2}), (std::vector<std::uint8_t>{1, 2}));
}

/// A plain blocking socket to `port`, for driving the server byte by byte.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // A reply that never comes fails the test instead of hanging it.
  const timeval limit{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
  return fd;
}

/// The u32-LE length prefix followed by `payload`.
std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> out;
  out.reserve(4 + payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(Tcp, HostileLengthPrefixNeverReachesTheAllocator) {
  // Even a caller-supplied cap above the global bound is clamped to
  // kMaxFrameBytes: a hand-crafted ~4 GiB announcement gets the connection
  // dropped on the header, not a 4 GiB allocation.
  TcpServerOptions options;
  options.max_frame_bytes = 0xffffffff;
  TcpServer server(0, echo, options);
  const int fd = raw_connect(server.port());
  const std::uint8_t hostile_header[4] = {0xf0, 0xff, 0xff, 0xff};  // ~4 GiB
  ASSERT_EQ(::send(fd, hostile_header, 4, MSG_NOSIGNAL), 4);
  // The server must close without ever sending a response frame.
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  // And keep serving honest clients.
  TcpConnection conn("127.0.0.1", server.port());
  EXPECT_EQ(conn.call({3}), (std::vector<std::uint8_t>{3}));
}

TEST(Tcp, FrameDribbledOneByteAtATime) {
  TcpServer server(0, echo);
  const int fd = raw_connect(server.port());
  std::vector<std::uint8_t> payload(40);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i * 7);
  for (const std::uint8_t byte : framed(payload)) {
    ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
    // Give the reactor time to read each byte on its own, so partial
    // prefixes and partial payloads are really exercised.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(read_frame(fd), payload);
  ::close(fd);
}

TEST(Tcp, CoalescedFramesAreServedInOrder) {
  // Two frames (one of them empty) plus the first half of a third arrive in
  // a single send; the tail of the third follows later. One worker keeps
  // the replies in request order.
  TcpServerOptions options;
  options.worker_threads = 1;
  TcpServer server(0, echo, options);
  const int fd = raw_connect(server.port());
  const std::vector<std::uint8_t> first = {1, 2, 3};
  const std::vector<std::uint8_t> second;
  const std::vector<std::uint8_t> third(5000, 9);
  std::vector<std::uint8_t> wire = framed(first);
  const std::vector<std::uint8_t> wire2 = framed(second);
  const std::vector<std::uint8_t> wire3 = framed(third);
  wire.insert(wire.end(), wire2.begin(), wire2.end());
  wire.insert(wire.end(), wire3.begin(), wire3.begin() + 2500);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  EXPECT_EQ(read_frame(fd), first);
  EXPECT_EQ(read_frame(fd), second);
  ASSERT_EQ(::send(fd, wire3.data() + 2500, wire3.size() - 2500, MSG_NOSIGNAL),
            static_cast<ssize_t>(wire3.size() - 2500));
  EXPECT_EQ(read_frame(fd), third);
  ::close(fd);
}

TEST(Tcp, SilentPeerReleasesHandlerThread) {
  TcpServerOptions options;
  options.io_timeout_ms = 200;
  std::atomic<int> calls{0};
  TcpServer server(
      0,
      [&calls](const std::vector<std::uint8_t>& r, RespondFn respond) {
        calls.fetch_add(1);
        respond(r);
      },
      options);
  // A client that connects, sends half a frame header, then goes silent.
  TcpConnection silent("127.0.0.1", server.port());
  // (Sending nothing at all also works: the server blocks in read_frame.)
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // The handler timed out and tore the connection down; the next call on
  // the half-dead connection fails...
  EXPECT_THROW(silent.call({1}), TransportError);
  // ...while fresh clients are served as usual (no thread was pinned).
  TcpConnection live("127.0.0.1", server.port());
  EXPECT_EQ(live.call({9}), (std::vector<std::uint8_t>{9}));
  EXPECT_EQ(calls.load(), 1);
}

}  // namespace
}  // namespace cppflare::flare
