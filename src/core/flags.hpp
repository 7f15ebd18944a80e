#pragma once
/// \file flags.hpp
/// \brief The command-line parser: one pass over argv, driven by a
/// declarative table per command.
///
/// A command declares each flag once: its name, the kind of value it
/// takes, and the flags it requires. It also declares how many
/// positional arguments it takes. parse() refuses, with one message
/// wherever the flag appears and in this order, an unknown or repeated
/// flag, a flag whose value is missing or malformed, a missing flag the
/// command cannot run without, a wrong positional count, and a flag
/// given without one it requires. A command body sees only arguments
/// that passed, so no body parses argv itself.

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/error.hpp"

namespace nodebench::flags {

enum class Kind {
  Switch,          ///< present or absent; takes no value
  Text,            ///< one value
  RepeatedText,    ///< one value per occurrence, any number of times
  PositiveInt,     ///< 1 and up (an int)
  NonNegativeInt,  ///< 0 and up (an int)
  ByteCount,       ///< any non-negative integer that fits in 64 bits
  PositiveReal,    ///< a finite number above 0
  Port,            ///< a TCP port, 0..65535
};

/// "`flag` must be given too; refuse with `message` otherwise."
struct Requirement {
  std::string_view flag;
  std::string_view message;
};

struct Flag {
  std::string_view name;
  Kind kind = Kind::Switch;
  std::vector<Requirement> needs = {};
  /// Left out of usage(): the test hooks and the flags only a worker
  /// process is given.
  bool hidden = false;
};

/// A wrong positional count that the command answers with its usage
/// text (exit 2) rather than an error message.
class UsageError : public Error {
 public:
  using Error::Error;
};

class Parsed;

/// One command: its body, its flags, how many positionals it takes and
/// how a wrong count is refused.
struct Command {
  std::string_view name;
  int (*run)(const Parsed& args) = nullptr;
  std::vector<Flag> flags = {};
  std::size_t minArgs = 0;
  std::size_t maxArgs = 0;
  /// A positional missing from a non-empty argv is refused as
  /// "<name>: expected <missing>"; empty means usage.
  std::string_view missing = {};
  /// A positional past maxArgs means usage, not "<name>: unexpected
  /// argument 'X'".
  bool usageOnExtra = false;
  /// Flags the command cannot run without, checked before the
  /// positional count.
  std::vector<Requirement> required = {};
};

/// The arguments of one command line, every value already checked
/// against its flag's kind.
class Parsed {
 public:
  std::vector<std::string> positionals;

  [[nodiscard]] bool has(std::string_view flag) const {
    return values_.find(flag) != values_.end();
  }

  /// The flag's value; "" when the flag was not given.
  [[nodiscard]] std::string text(std::string_view flag) const;

  /// Stores the flag's value (every value, for a vector) in `field` and
  /// returns true when the flag was given; leaves `field` at its default
  /// otherwise.
  template <typename T>
  bool read(std::string_view flag, T& field) const {
    if (!has(flag)) {
      return false;
    }
    const std::string value = text(flag);
    if constexpr (std::is_same_v<T, std::vector<std::string>>) {
      field = values_.find(flag)->second;
    } else if constexpr (std::is_same_v<T, std::string>) {
      field = value;
    } else if constexpr (std::is_floating_point_v<T>) {
      field = std::stod(value);
    } else {
      // Every integer kind was checked to be non-negative and in range.
      field = static_cast<T>(std::stoull(value));
    }
    return true;
  }

 private:
  friend Parsed parse(const Command& command,
                      std::span<const std::string> args);
  std::map<std::string, std::vector<std::string>, std::less<>> values_;
};

/// Parses the arguments that follow the command name. Throws Error (or
/// UsageError) on the first argument the table refuses.
[[nodiscard]] Parsed parse(const Command& command,
                           std::span<const std::string> args);

}  // namespace nodebench::flags
