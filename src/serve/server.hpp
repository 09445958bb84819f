// bmf_serve transport: an epoll event loop driving non-blocking loopback
// TCP sockets, plus a stdio loop.
//
// The server listens on a loopback TCP socket (port 0 = ephemeral, the
// bound port is queryable after start) and drives all connections from a
// small fixed pool of I/O threads, each running its own epoll loop.
// Accepted connections are assigned round-robin to a loop and never
// migrate, so per-connection state needs no locking. Each connection is a
// state machine: a bounded read buffer consumed with a cursor (one
// compaction per readable event, so a packet full of pipelined requests
// costs O(bytes), not O(bytes^2)), and a bounded write buffer that
// coalesces every response generated by one readable event into a single
// send. A connection speaks JSON lines until it negotiates the binary
// framing of serve/protocol.hpp via {"op":"hello","mode":"binary"}.
//
// With admin_port >= 0 a second loopback listener serves the HTTP
// observability endpoints of serve/admin.hpp on the same I/O loops
// (one-shot GET, respond, close). Each loop also publishes per-loop
// gauges (serve.loop.<i>.connections / read_buffer_bytes /
// write_buffer_bytes / accept_inbox / pipeline_depth) once per epoll
// batch when telemetry is compiled in.
//
// Lifecycle invariants (the properties the fd-leak regression test and the
// ASan soak stage check): a connection fd is owned by exactly one IoLoop
// and closed in exactly one place the moment the connection dies — peer
// disconnect, oversized request, write-buffer overflow, or shutdown — and
// the connection object is reaped immediately, so a long-running daemon's
// fd count stays flat. stop() (or an in-band "shutdown" request) closes
// the listener, drains every connection's buffered requests and pending
// responses, then joins the I/O threads; a Server always leaves scope with
// no thread or fd alive.
//
// run_stdio() drives the same protocol over an istream/ostream pair for
// environments without sockets (pipes, tests, one-shot batch use).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/session.hpp"

namespace bmfusion::serve {

struct ServerConfig {
  /// TCP port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral
  /// port (read it back with Server::port()).
  std::uint16_t port = 0;
  /// listen(2) backlog.
  int backlog = 128;
  /// I/O threads (one epoll loop each). 0 = one per hardware thread,
  /// capped at 4 — request handling, estimates included, runs inline on
  /// these threads.
  std::size_t io_threads = 0;
  /// Maximum bytes one request may span (a JSON line or a binary frame
  /// payload). A connection exceeding it gets an in-band error, a
  /// serve.oversized_requests tick, and is closed.
  std::size_t max_request_bytes = 4u << 20;
  /// Write-buffer cap per connection; a consumer slower than this is
  /// dropped (serve.slow_consumer_closes) instead of growing the buffer
  /// without bound.
  std::size_t max_response_buffer_bytes = 64u << 20;
  /// How long stop() keeps flushing pending responses before force-closing
  /// the stragglers.
  int drain_timeout_ms = 1000;
  /// Admin-plane HTTP port on 127.0.0.1 (GET /metrics, /healthz, /statusz —
  /// see serve/admin.hpp). -1 disables the admin listener entirely; 0 asks
  /// for an ephemeral port (read it back with Server::admin_port()). Admin
  /// connections ride the same I/O loops as the data plane.
  int admin_port = -1;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});

  /// Equivalent to stop().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the I/O threads. Throws DataError when the
  /// socket cannot be created or bound.
  void start();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }

  /// The bound admin port (valid after start(); 0 when the admin plane is
  /// disabled).
  [[nodiscard]] std::uint16_t admin_port() const { return bound_admin_port_; }

  /// Initiates shutdown: stops accepting, drains in-flight responses (up
  /// to drain_timeout_ms), closes every connection and joins the I/O
  /// threads. Idempotent.
  void stop();

  /// Blocks until a "shutdown" request (or stop() from another thread)
  /// initiated shutdown, then joins everything.
  void wait();

  /// Sessions live here; shared across connections and exposed for
  /// in-process tests.
  [[nodiscard]] SessionRegistry& sessions() { return sessions_; }

 private:
  class IoLoop;

  /// Flips stopping_ and wakes every loop; called by stop(), the shutdown
  /// op, and fatal accept errors.
  void request_stop();

  ServerConfig config_;
  SessionRegistry sessions_;
  std::uint16_t bound_port_ = 0;
  int listen_fd_ = -1;
  std::uint16_t bound_admin_port_ = 0;
  int admin_listen_fd_ = -1;  ///< -1 when the admin plane is disabled

  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> next_loop_{0};

  std::mutex stop_mutex_;  ///< serializes stop() and backs stop_cv_
  std::condition_variable stop_cv_;
  bool stopped_ = false;  ///< threads joined, listener closed
};

/// Runs the JSON-lines protocol over streams until EOF or a "shutdown"
/// request. Returns the number of requests handled. Binary negotiation is
/// not available on streams; a "hello" for binary mode is acknowledged but
/// the pipe stays JSON.
std::size_t run_stdio(SessionRegistry& sessions, std::istream& in,
                      std::ostream& out);

}  // namespace bmfusion::serve
