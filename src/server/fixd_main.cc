// fixd: the FIX query server binary. Opens a sharded layout built by
// fixctl (gen + build; a directory without shards.manifest is refused),
// serves the wire protocol plus HTTP /stats and
// /healthz, and drains gracefully on SIGTERM/SIGINT. SIGHUP hot-reloads
// the serving index. See docs/FIXD.md for the full operations manual.

#include <signal.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/status.h"
#include "core/sharded_database.h"
#include "server/fixd_server.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dir DIR [options]\n"
               "\n"
               "Serve a FIX database over the fixd wire protocol + HTTP.\n"
               "\n"
               "  --dir DIR             database directory holding a "
               "shards.manifest (fixctl build);\n"
               "                        required\n"
               "  --index NAME          serving index SIGHUP reloads "
               "(default: main)\n"
               "  --host HOST           bind address (default: 127.0.0.1)\n"
               "  --port PORT           bind port; 0 = kernel-assigned "
               "(default: 7133)\n"
               "  --workers N           request worker threads (default: 4)\n"
               "  --max-inflight N      admission bound before kOverloaded "
               "shedding (default: 128)\n"
               "  --read-timeout-ms N   idle connection reap (default: "
               "60000; 0 = off)\n"
               "  --write-timeout-ms N  stalled response reap (default: "
               "10000; 0 = off)\n"
               "  --drain-timeout-ms N  force-close deadline for graceful "
               "drain (default: 10000)\n"
               "  --force-poll          use poll(2) even where epoll is "
               "available\n"
               "\n"
               "Signals: SIGTERM/SIGINT drain gracefully (exit 0 when "
               "clean); SIGHUP rebuilds\n"
               "and hot-swaps the serving index.\n",
               argv0);
  return 2;
}

bool ParseInt(const char* text, long min, long max, long* out) {
  char* end = nullptr;
  long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < min || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  fix::server::ServerOptions options;
  options.port = 7133;
  options.index = "main";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    long v = 0;
    if (arg == "--dir") {
      const char* val = next();
      if (val == nullptr) return Usage(argv[0]);
      dir = val;
    } else if (arg == "--index") {
      const char* val = next();
      if (val == nullptr) return Usage(argv[0]);
      options.index = val;
    } else if (arg == "--host") {
      const char* val = next();
      if (val == nullptr) return Usage(argv[0]);
      options.host = val;
    } else if (arg == "--port") {
      const char* val = next();
      if (val == nullptr || !ParseInt(val, 0, 65535, &v)) {
        return Usage(argv[0]);
      }
      options.port = static_cast<uint16_t>(v);
    } else if (arg == "--workers") {
      const char* val = next();
      if (val == nullptr || !ParseInt(val, 1, 256, &v)) return Usage(argv[0]);
      options.workers = static_cast<int>(v);
    } else if (arg == "--max-inflight") {
      const char* val = next();
      if (val == nullptr || !ParseInt(val, 1, 1 << 20, &v)) {
        return Usage(argv[0]);
      }
      options.max_inflight = static_cast<int>(v);
    } else if (arg == "--read-timeout-ms") {
      const char* val = next();
      if (val == nullptr || !ParseInt(val, 0, 1 << 30, &v)) {
        return Usage(argv[0]);
      }
      options.read_timeout_ms = static_cast<int>(v);
    } else if (arg == "--write-timeout-ms") {
      const char* val = next();
      if (val == nullptr || !ParseInt(val, 0, 1 << 30, &v)) {
        return Usage(argv[0]);
      }
      options.write_timeout_ms = static_cast<int>(v);
    } else if (arg == "--drain-timeout-ms") {
      const char* val = next();
      if (val == nullptr || !ParseInt(val, 0, 1 << 30, &v)) {
        return Usage(argv[0]);
      }
      options.drain_timeout_ms = static_cast<int>(v);
    } else if (arg == "--force-poll") {
      options.force_poll = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "fixd: unknown flag '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (dir.empty()) return Usage(argv[0]);

  // Block the lifecycle signals in every thread before any is spawned;
  // the sigwait thread below is then the only consumer, so a drain can
  // never race a default handler.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGHUP);
  if (pthread_sigmask(SIG_BLOCK, &sigs, nullptr) != 0) {
    std::fprintf(stderr, "fixd: pthread_sigmask failed\n");
    return 1;
  }

  // Every served directory is a sharded layout (fixctl build writes one,
  // with one shard by default); Open refuses a directory without
  // shards.manifest with a NotFound that names `fixctl build <dir>`.
  auto opened = fix::ShardedDatabase::Open(dir);
  if (!opened.ok()) {
    FIX_LOG(Error) << "fixd: cannot open database at '" << dir
                   << "': " << opened.status();
    return 1;
  }
  std::unique_ptr<fix::ShardedDatabase> sdb = std::move(opened).value();
  FIX_LOG(Info) << "fixd: " << sdb->shard_count() << " shard(s), generation "
                << sdb->layout_generation();

  fix::server::Server server(sdb.get(), options);
  fix::Status started = server.Start();
  if (!started.ok()) {
    FIX_LOG(Error) << "fixd: start failed: " << started;
    return 1;
  }
  // Machine-readable startup line on stdout (ci.sh and scripts parse the
  // port out of it; FIX_LOG goes to stderr).
  std::printf("fixd: listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::thread signal_thread([&server, &sigs] {
    for (;;) {
      int sig = 0;
      if (sigwait(&sigs, &sig) != 0) continue;
      if (sig == SIGHUP) {
        FIX_LOG(Info) << "fixd: SIGHUP, reloading index";
        fix::Status reloaded = server.ReloadIndex();
        if (!reloaded.ok()) {
          FIX_LOG(Error) << "fixd: reload failed: " << reloaded;
        }
        continue;
      }
      FIX_LOG(Info) << "fixd: " << strsignal(sig) << ", draining";
      server.BeginDrain();
      return;
    }
  });

  fix::Status drained = server.WaitDrained();
  // If the loop exited on its own (internal failure), unblock the signal
  // thread. The signal is process-directed and SIGTERM is blocked
  // everywhere, so if the thread has already exited it simply stays
  // pending until process exit.
  kill(getpid(), SIGTERM);
  signal_thread.join();

  if (!drained.ok()) {
    FIX_LOG(Error) << "fixd: drain: " << drained;
    return 1;
  }
  std::printf("fixd: drained cleanly\n");
  return 0;
}
