// fixctl's command/flag tables, split out of the binary so a unit test
// (tests/fixctl_cli_test.cc) can assert the help text never drifts from
// the flags the parser actually accepts — the single source of truth for
// both is the tables below.

#ifndef FIX_EXAMPLES_FIXCTL_CLI_H_
#define FIX_EXAMPLES_FIXCTL_CLI_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace fixctl {

struct CliFlag {
  const char* name;        ///< including leading dashes, e.g. "--shards"
  const char* value_name;  ///< nullptr for boolean flags
  const char* help;        ///< one-line description
};

struct CliCommand {
  const char* name;      ///< subcommand, e.g. "build"
  const char* operands;  ///< positional operand synopsis
  const char* help;      ///< one-line description
  const CliFlag* flags;  ///< may be nullptr
  size_t num_flags;
};

/// Every subcommand fixctl accepts, in display order.
const std::vector<CliCommand>& Commands();

/// The command named `name`, or nullptr.
const CliCommand* FindCommand(std::string_view name);

/// The flag named `name` within `cmd`, or nullptr. Parsers route through
/// this so accepting an undeclared flag is impossible.
const CliFlag* FindFlag(const CliCommand& cmd, std::string_view name);

/// Compact synopsis (the `usage:` block).
std::string UsageText();

/// Full help: synopsis plus per-command flag descriptions.
std::string HelpText();

}  // namespace fixctl

#endif  // FIX_EXAMPLES_FIXCTL_CLI_H_
