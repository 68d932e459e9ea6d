// FixdClient: a blocking wire-protocol client for fixd, shared by
// `fixctl --remote`, `bench_qps --remote`, and the service tests. One
// request in flight per connection (matching the server's model); open
// several clients for concurrency.
//
// Error mapping: transport failures surface as IOError/Unavailable;
// typed server errors come back as the Status the wire code maps to
// (kOverloaded → Unavailable, kNotFound → NotFound, kParseError →
// ParseError, ...), with the server's message preserved — so a caller
// can distinguish a shed request (retryable) from a bad query.
//
// Thread-safety: a FixdClient is confined to one thread at a time.

#ifndef FIX_SERVER_CLIENT_H_
#define FIX_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/net.h"
#include "common/result.h"
#include "common/status.h"
#include "common/wire.h"

namespace fix {
namespace server {

class FixdClient {
 public:
  /// Connects to host:port; `timeout_ms` bounds the handshake and every
  /// subsequent send/receive wait (<= 0: no deadline).
  [[nodiscard]] static Result<std::unique_ptr<FixdClient>> Connect(
      const std::string& host, uint16_t port, int timeout_ms = 5000);

  /// Parses "host:port" and connects.
  [[nodiscard]] static Result<std::unique_ptr<FixdClient>> Connect(
      const std::string& address, int timeout_ms = 5000);

  /// Round-trips a PING.
  [[nodiscard]] Status Ping();

  /// Executes one XPath against `index`. A typed server error (NotFound,
  /// ParseError, Overloaded, ...) is returned as the mapped Status.
  [[nodiscard]] Result<wire::QueryOutcome> Query(const std::string& index,
                                                 const std::string& xpath);

  /// Executes a batch. `threads` goes on the wire, and fixd ignores it: the
  /// server fans each query out across its shards only. Whole-batch
  /// failures (unknown index, shed) map to Status; per-query failures
  /// stay typed inside each returned outcome.
  [[nodiscard]] Result<std::vector<wire::QueryOutcome>> QueryBatch(
      const std::string& index, const std::vector<std::string>& xpaths,
      uint32_t threads);

  /// Adds one XML document, extending `index` incrementally when
  /// non-empty.
  [[nodiscard]] Result<wire::InsertResponse> Insert(const std::string& index,
                                                    const std::string& xml);

  /// Fetches the server's Prometheus text exposition.
  [[nodiscard]] Result<std::string> Stats();

 private:
  FixdClient(net::Fd fd, int timeout_ms)
      : fd_(std::move(fd)), timeout_ms_(timeout_ms) {}

  /// Sends one request frame and receives the matching response payload.
  /// Fails on transport errors, frame corruption, a mismatched response
  /// opcode, or a typed top-level server error (mapped Status).
  [[nodiscard]] Status RoundTrip(wire::Op op, std::string_view request,
                                 std::string* response);

  net::Fd fd_;
  int timeout_ms_;
};

}  // namespace server
}  // namespace fix

#endif  // FIX_SERVER_CLIENT_H_
