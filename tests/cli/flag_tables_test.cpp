/// \file flag_tables_test.cpp
/// \brief The command flag tables against usage(): every public flag is
/// documented on its own command's lines, only test hooks and
/// worker-only flags are hidden, and every dependency rule names a flag
/// its command declares.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "cli/cli.hpp"

namespace nodebench::cli {
namespace {

/// True when `text` contains `flag` as a whole flag name, not as the
/// prefix of a longer one ("--store" inside "--store-out").
bool mentions(const std::string& text, std::string_view flag) {
  for (std::size_t at = text.find(flag); at != std::string::npos;
       at = text.find(flag, at + 1)) {
    const std::size_t end = at + flag.size();
    if (end == text.size() ||
        (text[end] != '-' && (text[end] < 'a' || text[end] > 'z'))) {
      return true;
    }
  }
  return false;
}

/// The part of usage() that documents `command`: every paragraph whose
/// first word names it, alone or in a slash list ("table/export also
/// accept ..."). A paragraph starts at a line indented by two spaces
/// whose first character is not '-'; deeper-indented lines and "  --"
/// lines continue it.
std::string usageOf(std::string_view command) {
  std::istringstream usage(usageText());
  std::string out;
  bool owned = false;
  for (std::string line; std::getline(usage, line);) {
    if (line.size() > 2 && line.starts_with("  ") && line[2] != ' ' &&
        line[2] != '-') {
      std::istringstream words(line.substr(2, line.find(' ', 2) - 2));
      owned = false;
      for (std::string word; std::getline(words, word, '/');) {
        owned = owned || word == command;
      }
    }
    if (owned) {
      out += line + "\n";
    }
  }
  return out;
}

TEST(CliFlagTables, UsageNamesEveryPublicFlagOnItsCommand) {
  for (const flags::Command& command : commands()) {
    const std::string usage = usageOf(command.name);
    for (const flags::Flag& flag : command.flags) {
      if (!flag.hidden) {
        EXPECT_TRUE(mentions(usage, flag.name))
            << command.name << " parses " << flag.name
            << ", which its usage() lines do not name:\n"
            << usage;
      }
    }
  }
}

TEST(CliFlagTables, OnlyHooksAndWorkerFlagsAreHidden) {
  for (const flags::Command& command : commands()) {
    for (const flags::Flag& flag : command.flags) {
      if (!flag.hidden) {
        continue;
      }
      const bool hook = flag.name.starts_with("--test-") ||
                        flag.name == "--crash-after-cell";
      const bool worker = command.name == "table" &&
                          flag.name.starts_with("--heartbeat");
      EXPECT_TRUE(hook || worker)
          << command.name << " hides " << flag.name;
    }
  }
}

TEST(CliFlagTables, RulesNameDeclaredFlags) {
  for (const flags::Command& command : commands()) {
    const auto declared = [&](std::string_view name) {
      for (const flags::Flag& flag : command.flags) {
        if (flag.name == name) {
          return true;
        }
      }
      return false;
    };
    for (const flags::Requirement& rule : command.required) {
      EXPECT_TRUE(declared(rule.flag))
          << command.name << " requires undeclared " << rule.flag;
    }
    for (const flags::Flag& flag : command.flags) {
      for (const flags::Requirement& rule : flag.needs) {
        EXPECT_TRUE(declared(rule.flag))
            << command.name << " " << flag.name
            << " needs undeclared " << rule.flag;
      }
    }
  }
}

}  // namespace
}  // namespace nodebench::cli
