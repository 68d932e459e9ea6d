// fixd: the long-running FIX query server. One event-loop thread (epoll,
// or poll as fallback — see poller.h) owns every socket; a ThreadPool of
// workers executes requests against a ShardedDatabase's concurrent
// scatter-gather read path and WAL-backed write path (a one-shard layout
// answers exactly as a single Database would). The wire protocol
// (common/wire.h) carries QUERY / QUERY_BATCH / INSERT / STATS / PING;
// connections whose first bytes look like HTTP instead get `GET /stats`
// (Prometheus text) and `GET /healthz`. docs/FIXD.md is the operations
// manual.
//
// Concurrency model:
//   * The loop thread is the only one that reads sockets, parses frames,
//     admits or sheds requests, and closes connections. Workers touch a
//     connection only through its output buffer (Conn::mu_, a rank-8 leaf
//     lock) and wake the loop through a self-pipe. A connection executes
//     at most one request at a time: the loop stops reading its socket
//     while a request is in flight, so TCP backpressure reaches the
//     client without any per-connection queue.
//   * Admission control is a bounded in-flight count (`max_inflight`):
//     past the bound, requests are answered immediately with the typed
//     kOverloaded wire error — shed, never silently dropped or queued
//     unboundedly.
//   * Reads (QUERY, QUERY_BATCH, STATS) run concurrently with no server
//     lock. INSERT serializes on `writer_mu_`; ShardedDatabase::InsertXml
//     pauses only the target shard's readers, around its corpus append,
//     then commits the index entries copy-on-write while queries keep
//     running. ReloadIndex (SIGHUP) also serializes on `writer_mu_`; each
//     shard's swap is the zero-degraded-window RebuildIndex path, so
//     readers never notice.
//   * Graceful drain (BeginDrain, wired to SIGTERM/SIGINT by fixd_main):
//     the listener closes, in-flight requests finish and their responses
//     flush, fresh requests on surviving connections get kShuttingDown,
//     and WaitDrained returns once every connection is gone (WAL commits
//     are fsync'd per operation, so nothing further needs flushing). A
//     drain that exceeds drain_timeout_ms force-closes and reports it.
//
// Lock order (see docs/ARCHITECTURE.md): Server::writer_mu_ (1) →
// everything inside ShardedDatabase (3–5) and Database (6+);
// Server::state_mu_ and Conn::mu_ are rank-11 leaves acquired with nothing
// else held below rank 12 (metrics).

#ifndef FIX_SERVER_FIXD_SERVER_H_
#define FIX_SERVER_FIXD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/net.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/index_options.h"
#include "core/sharded_database.h"
#include "server/poller.h"

namespace fix {
namespace server {

struct Conn;

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds a kernel-assigned ephemeral port; read it back with port().
  uint16_t port = 0;
  /// Worker threads executing requests (>= 1).
  int workers = 4;
  /// Admission bound: requests in flight (admitted, response not yet
  /// queued) beyond this are shed with wire::Code::kOverloaded.
  int max_inflight = 128;
  /// Idle connections (no request in flight, nothing to write) are closed
  /// after this long without traffic. <= 0 disables the reap.
  int read_timeout_ms = 60'000;
  /// Connections whose pending response bytes make no progress for this
  /// long are force-closed. <= 0 disables.
  int write_timeout_ms = 10'000;
  /// BeginDrain force-closes whatever remains after this long.
  int drain_timeout_ms = 10'000;
  /// The serving index: ReloadIndex's target. Empty disables reload.
  std::string index;
  /// Ignored: ReloadIndex rebuilds every shard with the options its index
  /// recorded. Kept only while perfbench/fixbench.cc still sets it; set it
  /// nowhere else, and delete it with that line.
  IndexOptions index_options;
  /// Use the poll(2) backend even where epoll is available (tests).
  bool force_poll = false;
  /// Test seam: runs in the worker before each admitted request executes
  /// (e.g. a latch that holds workers busy to force load-shedding).
  std::function<void(uint8_t op)> dispatch_hook_for_test;
};

class Server {
 public:
  /// Requests scatter-gather across `sdb`'s shards. INSERT routes by
  /// document hash and relies on ShardedDatabase's per-shard gating for
  /// reader exclusion; writer_mu_ serializes mutators. `sdb` must outlive
  /// the server and must already be opened.
  Server(ShardedDatabase* sdb, ServerOptions options);

  /// Stops (drain + join) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener, spawns the worker pool and the event loop.
  /// On success the server is reachable at host:port().
  [[nodiscard]] Status Start();

  /// The bound port (resolves option `port == 0` to the real one).
  /// @pre Start() succeeded.
  uint16_t port() const { return port_; }

  /// Begins a graceful drain: stop accepting, answer fresh requests with
  /// kShuttingDown, finish and flush in-flight ones. Safe from any thread
  /// (fixd_main calls it from the signal-wait thread); idempotent.
  void BeginDrain();

  /// Blocks until the event loop exits, then joins it and the workers.
  /// @return OK on a clean drain; Internal if the drain deadline forced
  ///         connections closed; the loop's error if it died unexpectedly.
  [[nodiscard]] Status WaitDrained();

  /// BeginDrain + WaitDrained.
  [[nodiscard]] Status Stop() {
    BeginDrain();
    return WaitDrained();
  }

  /// Rebuilds the serving index on every shard from the live corpus, with
  /// the options each shard's index recorded, and hot-swaps it
  /// (ShardedDatabase::RebuildIndexes: zero degraded window, readers keep
  /// the old handle until they finish). Serialized against INSERTs. Blocks
  /// for the build; fixd_main calls it on SIGHUP.
  /// @return NotSupported when options.index is empty, else the rebuild's
  ///         status.
  [[nodiscard]] Status ReloadIndex() FIX_EXCLUDES(writer_mu_);

  /// Live in-flight count (admitted, not yet answered). Test/metrics aid.
  int inflight() const { return inflight_.load(std::memory_order_relaxed); }

 private:
  void LoopThread();
  [[nodiscard]] Status LoopBody();

  /// Accepts every pending connection on the listener.
  void AcceptAll();

  /// Reads, sniffs (wire vs HTTP), frames, and dispatches one connection's
  /// readable event.
  void OnReadable(const std::shared_ptr<Conn>& conn);

  /// Dispatches frames already buffered in the connection's FrameReader.
  /// Called after every Feed and again when a response completes — a
  /// pipelining client's next frame is likely already buffered, and no
  /// further socket readability would announce it.
  void ProcessFrames(const std::shared_ptr<Conn>& conn);

  /// Flushes as much pending output as the socket accepts.
  void OnWritable(const std::shared_ptr<Conn>& conn);

  /// Admission control + worker handoff for one decoded frame.
  void Dispatch(const std::shared_ptr<Conn>& conn, uint8_t type,
                std::string payload);

  /// Executes one admitted request on a worker thread.
  void Execute(const std::shared_ptr<Conn>& conn, uint8_t type,
               const std::string& payload);

  /// Serves one parsed HTTP request (loop thread; the bodies are cheap).
  void ServeHttp(const std::shared_ptr<Conn>& conn,
                 const std::string& head);

  /// Appends a response frame to the connection's output buffer and wakes
  /// the loop. `completes_request` releases the in-flight slot.
  void QueueResponse(const std::shared_ptr<Conn>& conn, uint8_t type,
                     std::string_view payload, bool completes_request);

  void CloseConn(int fd);

  /// Writes one byte to the self-pipe so a blocked Wait returns.
  void Wake();

  ShardedDatabase* const sdb_;
  const ServerOptions options_;

  // Serializes mutators (INSERT, ReloadIndex) against each other; always
  // acquired before any ShardedDatabase call.
  // LOCK-ORDER: 1 Server::writer_mu_
  Mutex writer_mu_;

  // Lifecycle handshake between Start/WaitDrained and the loop thread.
  // LOCK-ORDER: 11 Server::state_mu_
  Mutex state_mu_;
  CondVar state_cv_;
  bool loop_exited_ FIX_GUARDED_BY(state_mu_) = false;
  Status loop_status_ FIX_GUARDED_BY(state_mu_);

  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<int> inflight_{0};

  net::Fd listener_;
  net::Fd wake_read_;
  net::Fd wake_write_;
  uint16_t port_ = 0;

  std::unique_ptr<Poller> poller_;          // loop thread only after Start
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // loop thread only
  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_;
};

}  // namespace server
}  // namespace fix

#endif  // FIX_SERVER_FIXD_SERVER_H_
