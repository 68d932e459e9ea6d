#include "fixctl_cli.h"

#include <cstring>

namespace fixctl {

namespace {

const CliFlag kBuildFlags[] = {
    {"--depth", "k", "depth limit L (0 = whole-document patterns)"},
    {"--clustered", nullptr, "materialize subtree copies in key order"},
    {"--beta", "B", "value-hash bucket count (0 = structure only)"},
    {"--lambda2", nullptr, "add the third singular value to the key"},
    {"--sound", nullptr, "probe with the pairwise bound only (no false "
                         "negatives under quotienting)"},
    {"--cache-mb", "M", "spectral feature cache budget in MiB (0 = off)"},
    {"--shards", "N",
     "hash shards to partition into (default 1); on an existing layout, "
     "re-partition into N and rebuild"},
};

const CliFlag kQueryFlags[] = {
    {"--explain", nullptr, "print the candidate estimate before executing"},
    {"--metrics", nullptr, "dump the metrics registry after the query"},
    {"--remote", "host:port",
     "execute on a running fixd server instead of opening <dir>"},
};

const CliFlag kStatsFlags[] = {
    {"--format", "human|prom",
     "output format: fixed-width table (default) or Prometheus text"},
    {"--remote", "host:port",
     "scrape a running fixd server's live metrics (Prometheus text)"},
};

const CliCommand kCommands[] = {
    {"gen", "<dir> <tcmd|dblp|xmark|treebank> [scale]",
     "generate a synthetic corpus", nullptr, 0},
    {"load", "<dir> <file.xml>...", "load XML files into a corpus", nullptr,
     0},
    {"build", "<dir>",
     "partition the corpus into a sharded layout and build index main on "
     "every shard",
     kBuildFlags,
     sizeof(kBuildFlags) / sizeof(kBuildFlags[0])},
    {"query", "<dir> \"<xpath>\"", "run a twig query through the index",
     kQueryFlags, sizeof(kQueryFlags) / sizeof(kQueryFlags[0])},
    {"stats", "<dir>", "corpus/index summary plus live metrics", kStatsFlags,
     sizeof(kStatsFlags) / sizeof(kStatsFlags[0])},
    {"wal", "<dir>",
     "inspect every shard's index write-ahead log (records, last "
     "committed generation, torn tail)",
     nullptr, 0},
    {"ping", "<host:port>", "round-trip a PING against a fixd server",
     nullptr, 0},
    {"help", "", "print this help", nullptr, 0},
};

}  // namespace

const std::vector<CliCommand>& Commands() {
  static const std::vector<CliCommand> commands(
      kCommands, kCommands + sizeof(kCommands) / sizeof(kCommands[0]));
  return commands;
}

const CliCommand* FindCommand(std::string_view name) {
  for (const CliCommand& c : Commands()) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

const CliFlag* FindFlag(const CliCommand& cmd, std::string_view name) {
  for (size_t i = 0; i < cmd.num_flags; ++i) {
    if (name == cmd.flags[i].name) return &cmd.flags[i];
  }
  return nullptr;
}

std::string UsageText() {
  std::string out = "usage:\n";
  for (const CliCommand& c : Commands()) {
    out += "  fixctl ";
    out += c.name;
    if (c.operands[0] != '\0') {
      out += " ";
      out += c.operands;
    }
    for (size_t i = 0; i < c.num_flags; ++i) {
      out += " [";
      out += c.flags[i].name;
      if (c.flags[i].value_name != nullptr) {
        out += " ";
        out += c.flags[i].value_name;
      }
      out += "]";
    }
    out += "\n";
  }
  return out;
}

std::string HelpText() {
  std::string out = UsageText();
  for (const CliCommand& c : Commands()) {
    out += "\n";
    out += c.name;
    out += ": ";
    out += c.help;
    out += "\n";
    for (size_t i = 0; i < c.num_flags; ++i) {
      const CliFlag& f = c.flags[i];
      out += "  ";
      out += f.name;
      if (f.value_name != nullptr) {
        out += " <";
        out += f.value_name;
        out += ">";
      }
      size_t col = std::strlen(f.name) +
                   (f.value_name != nullptr ? std::strlen(f.value_name) + 3
                                            : 0) +
                   2;
      for (; col < 24; ++col) out += " ";
      out += f.help;
      out += "\n";
    }
  }
  return out;
}

}  // namespace fixctl
