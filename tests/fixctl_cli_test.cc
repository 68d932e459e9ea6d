// Guards fixctl's help text against drifting from the flags the parser
// accepts: both are generated from the tables in examples/fixctl_cli.cc,
// and this test pins the tables to the flags the library actually honors
// (IndexOptions fields, query/stats modes).

#include "fixctl_cli.h"

#include <gtest/gtest.h>

#include <string>

namespace {

TEST(FixctlCliTest, EveryCommandPresent) {
  for (const char* name :
       {"gen", "load", "build", "query", "stats", "wal", "help"}) {
    EXPECT_NE(fixctl::FindCommand(name), nullptr) << name;
  }
  EXPECT_EQ(fixctl::FindCommand("nope"), nullptr);
}

TEST(FixctlCliTest, WalCommandShape) {
  // `fixctl wal <dir>` takes no flags; its help must name the things it
  // reports (generation, torn tail) so the synopsis stays honest.
  const fixctl::CliCommand* wal = fixctl::FindCommand("wal");
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->num_flags, 0u);
  EXPECT_EQ(std::string(wal->operands), "<dir>");
  EXPECT_NE(std::string(wal->help).find("generation"), std::string::npos);
  EXPECT_NE(std::string(wal->help).find("torn"), std::string::npos);
}

TEST(FixctlCliTest, BuildFlagsMatchIndexOptions) {
  // One entry per IndexOptions knob fixctl exposes, plus --shards. Build
  // construction runs on one thread, so there is no build --threads.
  const fixctl::CliCommand* build = fixctl::FindCommand("build");
  ASSERT_NE(build, nullptr);
  for (const char* flag : {"--depth", "--clustered", "--beta", "--lambda2",
                           "--sound", "--cache-mb", "--shards"}) {
    const fixctl::CliFlag* f = fixctl::FindFlag(*build, flag);
    ASSERT_NE(f, nullptr) << flag;
    EXPECT_NE(f->help[0], '\0') << flag << " has no help text";
  }
  EXPECT_EQ(fixctl::FindFlag(*build, "--threads"), nullptr);
  EXPECT_EQ(build->num_flags, 7u)
      << "flag table and this test disagree; update both when fixctl build "
         "gains or loses a flag";
  EXPECT_EQ(fixctl::FindFlag(*build, "--explain"), nullptr);
}

TEST(FixctlCliTest, ValueFlagsDeclareOperands) {
  const fixctl::CliCommand* build = fixctl::FindCommand("build");
  ASSERT_NE(build, nullptr);
  for (const char* flag : {"--depth", "--beta", "--cache-mb", "--shards"}) {
    ASSERT_NE(fixctl::FindFlag(*build, flag), nullptr);
    EXPECT_NE(fixctl::FindFlag(*build, flag)->value_name, nullptr) << flag;
  }
  for (const char* flag : {"--clustered", "--lambda2", "--sound"}) {
    ASSERT_NE(fixctl::FindFlag(*build, flag), nullptr);
    EXPECT_EQ(fixctl::FindFlag(*build, flag)->value_name, nullptr) << flag;
  }
}

TEST(FixctlCliTest, QueryAndStatsFlags) {
  const fixctl::CliCommand* query = fixctl::FindCommand("query");
  ASSERT_NE(query, nullptr);
  EXPECT_NE(fixctl::FindFlag(*query, "--explain"), nullptr);
  EXPECT_NE(fixctl::FindFlag(*query, "--metrics"), nullptr);
  const fixctl::CliCommand* stats = fixctl::FindCommand("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_NE(fixctl::FindFlag(*stats, "--format"), nullptr);
}

TEST(FixctlCliTest, UsageMentionsEveryFlagOfEveryCommand) {
  // The sync property the satellite fix asked for: a flag cannot exist in
  // the parser's table without appearing in the usage text, because the
  // usage text is generated from the same table — assert it anyway so a
  // rewrite of UsageText() cannot silently drop flags.
  const std::string usage = fixctl::UsageText();
  const std::string help = fixctl::HelpText();
  for (const fixctl::CliCommand& cmd : fixctl::Commands()) {
    EXPECT_NE(usage.find(std::string("fixctl ") + cmd.name),
              std::string::npos)
        << cmd.name;
    for (size_t i = 0; i < cmd.num_flags; ++i) {
      EXPECT_NE(usage.find(cmd.flags[i].name), std::string::npos)
          << cmd.flags[i].name;
      EXPECT_NE(help.find(cmd.flags[i].help), std::string::npos)
          << cmd.flags[i].name;
    }
  }
}

}  // namespace
