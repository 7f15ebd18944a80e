#pragma once
/// \file cli.hpp
/// \brief The `nodebench` commands: each one's flag table and body, and
/// the usage text that documents them.

#include <span>
#include <string>

#include "core/flags.hpp"

namespace nodebench::cli {

/// Every command, in usage() order. `sweep` and `chase` are not listed:
/// they run `table sweep` and `table chase`.
[[nodiscard]] std::span<const flags::Command> commands();

/// What `nodebench` prints, exit 2, for a command line it cannot place.
[[nodiscard]] std::string usageText();

/// Runs one command line and returns the process exit code.
int run(int argc, char** argv);

}  // namespace nodebench::cli
