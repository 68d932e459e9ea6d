// The fixd wire protocol codec: length-prefixed, CRC-framed binary
// messages shared by the server (src/server), the fixctl --remote client,
// and bench_qps --remote. docs/FIXD.md is the normative specification;
// this header is its implementation and must not diverge.
//
// Frame layout (kHeaderSize = 12 bytes, then the payload):
//
//   offset  size  field
//   0       2     magic "FX"
//   2       1     protocol version (kProtocolVersion)
//   3       1     message type: Op value; responses set kResponseBit
//   4       4     payload length, little-endian (<= kMaxPayload)
//   8       4     CRC32C of the payload, little-endian
//
// Response payloads always begin with one Code byte; kOk is followed by
// the op-specific body, anything else by a length-prefixed error message.
// Strings are u32-length-prefixed byte runs; all integers little-endian
// via bytes.h. Decoders validate every length against the remaining
// payload before allocating, so a garbage frame costs bounded work.
//
// Thread-safety: the free functions are pure; a FrameReader is a plain
// buffer owned by one connection and must be externally serialized (fixd
// confines each one to its event loop).

#ifndef FIX_COMMON_WIRE_H_
#define FIX_COMMON_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fix {
namespace wire {

inline constexpr char kMagic0 = 'F';
inline constexpr char kMagic1 = 'X';
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kHeaderSize = 12;
inline constexpr uint32_t kMaxPayload = 8u << 20;  // 8 MiB
inline constexpr uint8_t kResponseBit = 0x80;

/// Request opcodes. Response frames carry `op | kResponseBit`.
enum class Op : uint8_t {
  kPing = 0x01,
  kQuery = 0x02,
  kQueryBatch = 0x03,
  kInsert = 0x04,
  kStats = 0x05,
};

/// True when `type` (with kResponseBit stripped) names a known opcode.
bool IsKnownOp(uint8_t type);

/// Wire-level result codes, the first byte of every response payload.
/// Values are protocol surface — append only, never renumber (see
/// docs/FIXD.md, "Versioning rules").
enum class Code : uint8_t {
  kOk = 0,
  kBadFrame = 1,      ///< unparseable or oversized frame; connection closes
  kBadRequest = 2,    ///< well-framed but malformed payload
  kNotFound = 3,      ///< unknown index name
  kParseError = 4,    ///< XPath or XML rejected by the parser
  kOverloaded = 5,    ///< admission control shed the request; retry later
  kShuttingDown = 6,  ///< server is draining; reconnect elsewhere
  kInternal = 7,      ///< server-side invariant failure
  kIOError = 8,       ///< server-side storage failure
};

/// Human-readable name ("Ok", "Overloaded", ...) for logs and fixctl.
const char* CodeName(Code code);

/// Maps a fix::Status onto the wire code vocabulary (OK→kOk,
/// Unavailable→kOverloaded, NotFound→kNotFound, ParseError→kParseError,
/// IOError/Corruption→kIOError, everything else→kInternal).
Code CodeFromStatus(const Status& status);

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// One decoded frame: type byte plus the CRC-verified payload.
struct Frame {
  uint8_t type = 0;
  std::string payload;
};

/// Appends a complete frame (header + payload) for `type` to `*out`.
/// @pre payload.size() <= kMaxPayload.
void AppendFrame(uint8_t type, std::string_view payload, std::string* out);

/// Incremental frame decoder over a byte stream. Feed() appends raw bytes;
/// Next() yields complete frames until the buffer runs dry. A kBad outcome
/// poisons the reader — the stream has lost sync and the connection must
/// be closed (every later Next() repeats kBad).
class FrameReader {
 public:
  enum class Outcome {
    kFrame,     ///< *frame was filled with the next message
    kNeedMore,  ///< no complete frame buffered yet
    kBad,       ///< bad magic/version/length/CRC; close the connection
  };

  void Feed(std::string_view bytes) { buf_.append(bytes); }

  /// Extracts the next frame. On kBad, `*error` (if non-null) says what
  /// failed validation.
  Outcome Next(Frame* frame, std::string* error);

  /// Bytes buffered but not yet consumed (for backpressure accounting).
  size_t buffered_bytes() const { return buf_.size(); }

 private:
  std::string buf_;
  bool poisoned_ = false;
};

// ---------------------------------------------------------------------------
// Request payloads.
// ---------------------------------------------------------------------------

struct QueryRequest {
  std::string index;
  std::string xpath;
};

struct QueryBatchRequest {
  std::string index;
  uint32_t threads = 1;  ///< carried on the wire; fixd ignores it
  std::vector<std::string> xpaths;
};

struct InsertRequest {
  std::string index;  ///< index to extend incrementally (may be empty: none)
  std::string xml;    ///< document text
};

void EncodeQueryRequest(const QueryRequest& req, std::string* payload);
[[nodiscard]] Status DecodeQueryRequest(std::string_view payload,
                                        QueryRequest* req);

void EncodeQueryBatchRequest(const QueryBatchRequest& req,
                             std::string* payload);
[[nodiscard]] Status DecodeQueryBatchRequest(std::string_view payload,
                                             QueryBatchRequest* req);

void EncodeInsertRequest(const InsertRequest& req, std::string* payload);
[[nodiscard]] Status DecodeInsertRequest(std::string_view payload,
                                         InsertRequest* req);

// ---------------------------------------------------------------------------
// Response payloads.
// ---------------------------------------------------------------------------

/// A query result row: (doc_id, node_id) into primary storage, the wire
/// image of fix::NodeRef.
struct WireNodeRef {
  uint32_t doc_id = 0;
  uint32_t node_id = 0;

  bool operator==(const WireNodeRef&) const = default;
};

/// One query's outcome — either an error (code != kOk, message in
/// `error`) or stats + result rows. Used standalone for QUERY and
/// repeated for QUERY_BATCH, whose per-query statuses are independent.
struct QueryOutcome {
  Code code = Code::kOk;
  std::string error;
  bool used_index = false;
  bool degraded = false;
  uint64_t candidates = 0;
  uint64_t result_count = 0;
  std::vector<WireNodeRef> results;
};

struct InsertResponse {
  uint32_t doc_id = 0;
  uint64_t generation = 0;  ///< index generation after the commit (0: no index)
};

struct StatsResponse {
  std::string prometheus_text;
};

/// Encodes the generic error response payload: `code` byte + message.
/// @pre code != Code::kOk.
void EncodeErrorResponse(Code code, std::string_view message,
                         std::string* payload);

/// Decodes the leading code byte and, when it is an error, the message.
/// For kOk payloads, `*body_offset` is set to the first byte of the
/// op-specific body.
[[nodiscard]] Status DecodeResponseHead(std::string_view payload, Code* code,
                                        std::string* error,
                                        size_t* body_offset);

/// QUERY response body (after the kOk byte): one QueryOutcome.
/// @pre outcome.code == Code::kOk (errors go through EncodeErrorResponse).
void EncodeQueryResponse(const QueryOutcome& outcome, std::string* payload);
[[nodiscard]] Status DecodeQueryResponse(std::string_view payload,
                                         QueryOutcome* outcome);

/// QUERY_BATCH response body: u32 count, then each outcome (its own code
/// byte — a ParseError in one query does not fail its batchmates).
void EncodeQueryBatchResponse(const std::vector<QueryOutcome>& outcomes,
                              std::string* payload);
[[nodiscard]] Status DecodeQueryBatchResponse(
    std::string_view payload, std::vector<QueryOutcome>* outcomes);

void EncodeInsertResponse(const InsertResponse& resp, std::string* payload);
[[nodiscard]] Status DecodeInsertResponse(std::string_view payload,
                                          InsertResponse* resp);

void EncodeStatsResponse(const StatsResponse& resp, std::string* payload);
[[nodiscard]] Status DecodeStatsResponse(std::string_view payload,
                                         StatsResponse* resp);

/// PING response body is empty; PONG is the kOk byte alone.

}  // namespace wire
}  // namespace fix

#endif  // FIX_COMMON_WIRE_H_
