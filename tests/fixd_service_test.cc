// fixd service tests over real loopback sockets: wire parity with the
// in-process Database (every QUERY/QUERY_BATCH answer byte-identical),
// INSERT visibility and its reported index generation, SIGHUP's reload
// keeping each shard's recorded index options, typed load-shedding under a
// saturated worker pool, graceful drain (in-flight requests finish, fresh
// ones get kShuttingDown), and the HTTP sidecar endpoints. Exercises both
// poller backends (epoll where available, poll via force_poll). fixd
// serves only sharded layouts, so every test runs once over a one-shard
// and once over a two-shard layout, each reopened the way fixd_main opens
// it (no options).

#include "server/fixd_server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/net.h"
#include "common/wire.h"
#include "core/database.h"
#include "core/sharded_database.h"
#include "server/client.h"

namespace fix {
namespace server {
namespace {

constexpr uint32_t kShardCounts[] = {1, 2};

const char* const kXPaths[] = {
    "//inproceedings/title/i",
    "//dblp/inproceedings/author",
    "//inproceedings[url]/title",
};

std::string TestDoc(int i) {
  return "<dblp><inproceedings><author>Author " + std::to_string(i) +
         "</author><title>Title <i>emph " + std::to_string(i) +
         "</i></title><url>db/" + std::to_string(i) +
         "</url><year>1999</year></inproceedings></dblp>";
}

/// Blocks the worker executing the first QUERY until Release(); lets the
/// tests hold a request in flight deterministically.
class WorkerLatch {
 public:
  void Block(uint8_t op) {
    if (static_cast<wire::Op>(op) != wire::Op::kQuery) return;
    if (armed_.exchange(false)) {
      MutexLock lock(mu_);
      entered_ = true;
      cv_.NotifyAll();
      while (!released_) cv_.Wait(mu_);
    }
  }
  void AwaitEntered() {
    MutexLock lock(mu_);
    while (!entered_) cv_.Wait(mu_);
  }
  void Release() {
    MutexLock lock(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  std::atomic<bool> armed_{true};
  Mutex mu_;
  CondVar cv_;
  bool entered_ FIX_GUARDED_BY(mu_) = false;
  bool released_ FIX_GUARDED_BY(mu_) = false;
};

class FixdServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/fixd_svc_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ + "/ref");

    // The in-process reference: the seed documents in one Database with
    // the index the layouts build.
    ref_ = std::make_unique<Database>(dir_ + "/ref");
    for (int i = 0; i < 8; ++i) {
      auto id = ref_->AddXml(TestDoc(i));
      ASSERT_TRUE(id.ok()) << id.status();
    }
    ASSERT_TRUE(ref_->Save().ok());
    IndexOptions options;
    options.depth_limit = 3;
    auto built = ref_->BuildIndex("main", options);
    ASSERT_TRUE(built.ok()) << built.status();
  }

  void TearDown() override {
    server_.reset();
    sdb_.reset();
    ref_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Partitions the seed documents into a fresh `shards`-shard layout with
  /// index main at depth 3, reopens it with no options (as fixd_main
  /// does), and serves it on an ephemeral loopback port.
  void StartServer(uint32_t shards, ServerOptions options) {
    server_.reset();
    sdb_.reset();
    const std::string layout = dir_ + "/shards" + std::to_string(shards);
    std::filesystem::remove_all(layout);
    std::filesystem::create_directories(layout);
    {
      ShardedOptions sopts;
      sopts.shard_count = shards;
      sopts.index.depth_limit = 3;
      auto built = ShardedDatabase::Partition(*ref_->corpus(), layout, sopts);
      ASSERT_TRUE(built.ok()) << built.status();
      ASSERT_TRUE((*built)->BuildIndexes("main").ok());
    }
    auto opened = ShardedDatabase::Open(layout);
    ASSERT_TRUE(opened.ok()) << opened.status();
    sdb_ = std::move(opened).value();

    options.host = "127.0.0.1";
    options.port = 0;
    options.index = "main";
    server_ = std::make_unique<Server>(sdb_.get(), options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
  }

  Result<std::unique_ptr<FixdClient>> Connect() {
    return FixdClient::Connect("127.0.0.1", server_->port());
  }

  /// The reference answer for `xpath`.
  std::vector<NodeRef> Want(const char* xpath) {
    std::vector<NodeRef> want;
    auto stats = ref_->Query("main", xpath, &want);
    EXPECT_TRUE(stats.ok()) << xpath << ": " << stats.status();
    return want;
  }

  std::string dir_;
  std::unique_ptr<Database> ref_;
  std::unique_ptr<ShardedDatabase> sdb_;
  std::unique_ptr<Server> server_;
};

/// True when the wire rows are `want`, row for row.
bool SameRows(const std::vector<wire::WireNodeRef>& got,
              const std::vector<NodeRef>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].doc_id != want[i].doc_id ||
        got[i].node_id != want[i].node_id) {
      return false;
    }
  }
  return true;
}

/// Reads one response frame from a raw socket (for tests that pipeline
/// past FixdClient's one-in-flight discipline).
void ReadFrame(int fd, uint8_t* type, std::string* payload) {
  char header[wire::kHeaderSize];
  ASSERT_TRUE(net::RecvExact(fd, header, sizeof(header), 5000).ok());
  ASSERT_EQ(header[0], wire::kMagic0);
  ASSERT_EQ(header[1], wire::kMagic1);
  *type = static_cast<uint8_t>(header[3]);
  const uint32_t len = DecodeFixed32(header + 4);
  ASSERT_LE(len, wire::kMaxPayload);
  payload->resize(len);
  if (len > 0) {
    ASSERT_TRUE(net::RecvExact(fd, payload->data(), len, 5000).ok());
  }
}

TEST_F(FixdServiceTest, LoopbackParityWithInProcessExecution) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StartServer(shards, ServerOptions{});
    auto client = Connect();
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE((*client)->Ping().ok());

    // Every QUERY answer must match the in-process Database byte for
    // byte (same rows, same order), and carry the served layout's stats.
    for (const char* xpath : kXPaths) {
      auto stats = sdb_->Query("main", xpath);
      ASSERT_TRUE(stats.ok()) << xpath;
      auto outcome = (*client)->Query("main", xpath);
      ASSERT_TRUE(outcome.ok()) << xpath << ": " << outcome.status();
      EXPECT_TRUE(SameRows(outcome->results, Want(xpath))) << xpath;
      EXPECT_EQ(outcome->result_count, stats->result_count) << xpath;
      EXPECT_EQ(outcome->used_index, stats->used_index) << xpath;
      EXPECT_EQ(outcome->candidates, stats->candidates) << xpath;
    }

    // QUERY_BATCH parity, including a per-query error sandwiched between
    // two good queries. The requested thread count is ignored.
    const std::vector<std::string> xpaths = {kXPaths[0], "//broken[",
                                             kXPaths[1]};
    auto remote = (*client)->QueryBatch("main", xpaths, 2);
    ASSERT_TRUE(remote.ok()) << remote.status();
    ASSERT_EQ(remote->size(), xpaths.size());
    EXPECT_EQ((*remote)[1].code, wire::Code::kParseError);
    for (size_t q : {0, 2}) {
      ASSERT_EQ((*remote)[q].code, wire::Code::kOk) << xpaths[q];
      EXPECT_TRUE(SameRows((*remote)[q].results, Want(xpaths[q].c_str())))
          << xpaths[q];
    }

    // Typed errors, not dropped connections.
    auto missing = (*client)->Query("no_such_index", kXPaths[0]);
    EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
    auto bad = (*client)->Query("main", "//broken[");
    EXPECT_TRUE(bad.status().IsParseError()) << bad.status();
    // The connection survived both errors.
    EXPECT_TRUE((*client)->Ping().ok());

    auto prom = (*client)->Stats();
    ASSERT_TRUE(prom.ok());
    EXPECT_NE(prom->find("fixd_requests_total"), std::string::npos);
    EXPECT_NE(prom->find("fixd_connections_open"), std::string::npos);

    ASSERT_TRUE(server_->Stop().ok());
  }
}

TEST_F(FixdServiceTest, PollBackendServesTheSameProtocol) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServerOptions options;
    options.force_poll = true;
    StartServer(shards, options);
    auto client = Connect();
    ASSERT_TRUE(client.ok()) << client.status();
    auto outcome = (*client)->Query("main", kXPaths[0]);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(SameRows(outcome->results, Want(kXPaths[0])));
    ASSERT_TRUE(server_->Stop().ok());
  }
}

TEST_F(FixdServiceTest, InsertIsVisibleToSubsequentQueries) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StartServer(shards, ServerOptions{});
    auto client = Connect();
    ASSERT_TRUE(client.ok());

    auto before = (*client)->Query("main", kXPaths[0]);
    ASSERT_TRUE(before.ok());

    auto inserted = (*client)->Insert("main", TestDoc(100));
    ASSERT_TRUE(inserted.ok()) << inserted.status();
    EXPECT_EQ(inserted->doc_id, 8u);  // 8 seed docs
    // The target shard's index B+-tree generation after the commit, not
    // the layout generation (0 until a Rebalance).
    const uint32_t target = ShardedDatabase::RouteDoc(8, shards);
    EXPECT_GT(inserted->generation, 0u);
    EXPECT_EQ(inserted->generation,
              sdb_->shard_db(target)->index("main")->generation());

    auto after = (*client)->Query("main", kXPaths[0]);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->result_count, before->result_count + 1);

    // A corpus-only insert (no index named) reports generation 0.
    auto corpus_only = (*client)->Insert("", TestDoc(101));
    ASSERT_TRUE(corpus_only.ok()) << corpus_only.status();
    EXPECT_EQ(corpus_only->doc_id, 9u);
    EXPECT_EQ(corpus_only->generation, 0u);

    // Malformed XML is a typed ParseError and changes nothing.
    auto rejected = (*client)->Insert("main", "<unclosed>");
    EXPECT_TRUE(rejected.status().IsParseError()) << rejected.status();
    EXPECT_EQ(sdb_->num_docs(), 10u);

    ASSERT_TRUE(server_->Stop().ok());
  }
}

// SIGHUP's reload rebuilds every shard with the options its index
// recorded. The layout is reopened without options and the server is
// given none, so a reload that fell back to defaults would rebuild at
// depth 0.
TEST_F(FixdServiceTest, ReloadKeepsEachShardsRecordedOptions) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StartServer(shards, ServerOptions{});
    std::vector<uint64_t> entries(shards);
    for (uint32_t s = 0; s < shards; ++s) {
      entries[s] = sdb_->shard_db(s)->index("main")->num_entries();
    }
    Status reloaded = server_->ReloadIndex();
    ASSERT_TRUE(reloaded.ok()) << reloaded;
    for (uint32_t s = 0; s < shards; ++s) {
      const FixIndex* index = sdb_->shard_db(s)->index("main");
      ASSERT_NE(index, nullptr) << "shard " << s;
      EXPECT_EQ(index->options().depth_limit, 3) << "shard " << s;
      EXPECT_EQ(index->num_entries(), entries[s]) << "shard " << s;
    }
    auto client = Connect();
    ASSERT_TRUE(client.ok());
    auto outcome = (*client)->Query("main", kXPaths[1]);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->used_index);
    EXPECT_TRUE(SameRows(outcome->results, Want(kXPaths[1])));
    ASSERT_TRUE(server_->Stop().ok());
  }
}

TEST_F(FixdServiceTest, OverloadShedsWithTypedErrorAndLosesNothing) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    WorkerLatch latch;
    ServerOptions options;
    options.workers = 1;
    options.max_inflight = 1;
    options.dispatch_hook_for_test = [&latch](uint8_t op) {
      latch.Block(op);
    };
    StartServer(shards, options);
    const std::vector<NodeRef> want = Want(kXPaths[0]);

    // Client A's query occupies the only in-flight slot (the worker parks
    // in the latch after admission).
    auto a = Connect();
    ASSERT_TRUE(a.ok());
    Result<wire::QueryOutcome> a_outcome = Status::Internal("unset");
    std::thread a_thread(
        [&] { a_outcome = (*a)->Query("main", kXPaths[0]); });
    latch.AwaitEntered();
    ASSERT_EQ(server_->inflight(), 1);

    // Client B must be shed immediately with the typed retryable error —
    // not queued, not disconnected.
    auto b = Connect();
    ASSERT_TRUE(b.ok());
    auto b_outcome = (*b)->Query("main", kXPaths[0]);
    EXPECT_TRUE(b_outcome.status().IsUnavailable()) << b_outcome.status();
    EXPECT_NE(b_outcome.status().message().find("Overloaded"),
              std::string::npos)
        << b_outcome.status();

    // Releasing the worker completes A's request with a correct answer:
    // shedding shed B's request only, nothing was silently dropped.
    latch.Release();
    a_thread.join();
    ASSERT_TRUE(a_outcome.ok()) << a_outcome.status();
    EXPECT_TRUE(SameRows(a_outcome->results, want));
    // B's connection survived the shed and serves again now.
    auto b_retry = (*b)->Query("main", kXPaths[0]);
    EXPECT_TRUE(b_retry.ok()) << b_retry.status();

    ASSERT_TRUE(server_->Stop().ok());
  }
}

TEST_F(FixdServiceTest, GracefulDrainFinishesInflightAndRejectsFresh) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    WorkerLatch latch;
    ServerOptions options;
    options.workers = 1;
    options.drain_timeout_ms = 10'000;
    options.dispatch_hook_for_test = [&latch](uint8_t op) {
      latch.Block(op);
    };
    StartServer(shards, options);
    const std::vector<NodeRef> want = Want(kXPaths[0]);

    // Pipeline QUERY then PING on a raw socket: the query is admitted (and
    // parked in the latch); the ping stays buffered behind the server's
    // one-request-per-connection discipline until the query completes —
    // by which point the server is draining.
    auto sock = net::ConnectTcp("127.0.0.1", server_->port(), 5000);
    ASSERT_TRUE(sock.ok());
    std::string frames;
    std::string payload;
    wire::EncodeQueryRequest({"main", kXPaths[0]}, &payload);
    wire::AppendFrame(static_cast<uint8_t>(wire::Op::kQuery), payload,
                      &frames);
    wire::AppendFrame(static_cast<uint8_t>(wire::Op::kPing), "", &frames);
    ASSERT_TRUE(net::SendAll(sock->get(), frames, 5000).ok());
    latch.AwaitEntered();
    ASSERT_EQ(server_->inflight(), 1);

    server_->BeginDrain();
    latch.Release();

    // The in-flight query finished and its (correct) response flushed
    // before the connection went away.
    uint8_t type = 0;
    std::string response;
    ReadFrame(sock->get(), &type, &response);
    EXPECT_EQ(type, static_cast<uint8_t>(wire::Op::kQuery) |
                        wire::kResponseBit);
    wire::QueryOutcome outcome;
    ASSERT_TRUE(wire::DecodeQueryResponse(response, &outcome).ok());
    EXPECT_TRUE(SameRows(outcome.results, want));

    // The pipelined ping was fresh work under drain: typed kShuttingDown.
    ReadFrame(sock->get(), &type, &response);
    EXPECT_EQ(type, static_cast<uint8_t>(wire::Op::kPing) |
                        wire::kResponseBit);
    wire::Code code = wire::Code::kOk;
    std::string error;
    size_t body_offset = 0;
    ASSERT_TRUE(
        wire::DecodeResponseHead(response, &code, &error, &body_offset).ok());
    EXPECT_EQ(code, wire::Code::kShuttingDown) << error;

    // Nothing was force-closed: the drain completes cleanly.
    Status drained = server_->WaitDrained();
    EXPECT_TRUE(drained.ok()) << drained;
  }
}

TEST_F(FixdServiceTest, HttpSidecarServesStatsAndHealth) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StartServer(shards, ServerOptions{});

    auto get = [&](const std::string& request) {
      auto sock = net::ConnectTcp("127.0.0.1", server_->port(), 5000);
      EXPECT_TRUE(sock.ok());
      EXPECT_TRUE(net::SendAll(sock->get(), request, 5000).ok());
      // The server closes after one response (Connection: close), so read
      // to EOF.
      std::string response;
      char buf[4096];
      for (;;) {
        ssize_t n = ::recv(sock->get(), buf, sizeof(buf), 0);
        if (n <= 0) break;
        response.append(buf, static_cast<size_t>(n));
      }
      return response;
    };

    // Prime a counter so the exposition provably carries fixd metrics.
    auto client = Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Ping().ok());

    std::string health = get("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
    EXPECT_NE(health.find("ok"), std::string::npos);

    std::string stats = get("GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_NE(stats.find("200 OK"), std::string::npos);
    EXPECT_NE(stats.find("fixd_requests_total"), std::string::npos);
    EXPECT_NE(stats.find("fixd_request_latency_us"), std::string::npos);

    std::string missing = get("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_NE(missing.find("404"), std::string::npos);

    std::string post = get("POST /stats HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_NE(post.find("405"), std::string::npos);

    ASSERT_TRUE(server_->Stop().ok());
  }
}

TEST_F(FixdServiceTest, GarbageBytesGetTypedBadFrameThenClose) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StartServer(shards, ServerOptions{});
    auto sock = net::ConnectTcp("127.0.0.1", server_->port(), 5000);
    ASSERT_TRUE(sock.ok());
    // Not HTTP, not a valid frame: 12+ garbage bytes sniff as wire mode and
    // poison the frame reader.
    ASSERT_TRUE(
        net::SendAll(sock->get(), "ZZZZZZZZZZZZZZZZ", 5000).ok());
    uint8_t type = 0;
    std::string response;
    ReadFrame(sock->get(), &type, &response);
    EXPECT_EQ(type, wire::kResponseBit);  // frame-level error channel
    wire::Code code = wire::Code::kOk;
    std::string error;
    size_t body_offset = 0;
    ASSERT_TRUE(
        wire::DecodeResponseHead(response, &code, &error, &body_offset).ok());
    EXPECT_EQ(code, wire::Code::kBadFrame);
    // The server closes the unsynchronized stream after the error flushes.
    char byte;
    EXPECT_EQ(::recv(sock->get(), &byte, 1, 0), 0);
    ASSERT_TRUE(server_->Stop().ok());
  }
}

}  // namespace
}  // namespace server
}  // namespace fix
