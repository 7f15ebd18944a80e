#include "core/flags.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

namespace nodebench::flags {
namespace {

/// What a refused value of `kind` should have been.
const char* expected(Kind kind) {
  switch (kind) {
    case Kind::PositiveInt: return "a positive integer";
    case Kind::PositiveReal: return "a positive number";
    case Kind::Port: return "a port number 0..65535";
    default: return "a non-negative integer";
  }
}

/// True when all of `raw` is a value of `kind`. std::stoi alone would
/// accept "8x" and "0", and std::stoull would take "-1" as 2^64-1, so
/// each kind checks that the whole value was read and is in range.
bool valid(Kind kind, const std::string& raw) {
  std::size_t used = 0;
  try {
    switch (kind) {
      case Kind::Switch:
      case Kind::Text:
      case Kind::RepeatedText:
        return true;
      case Kind::PositiveInt:
        return std::stoi(raw, &used) >= 1 && used == raw.size();
      case Kind::NonNegativeInt:
        return std::stoi(raw, &used) >= 0 && used == raw.size();
      case Kind::ByteCount:
        if (raw.empty() || raw.front() < '0' || raw.front() > '9') {
          return false;
        }
        (void)std::stoull(raw, &used);
        return used == raw.size();
      case Kind::PositiveReal: {
        const double value = std::stod(raw, &used);
        return used == raw.size() && value > 0.0 && std::isfinite(value);
      }
      case Kind::Port: {
        const int value = std::stoi(raw, &used);
        return used == raw.size() && value >= 0 && value <= 65535;
      }
    }
  } catch (const std::exception&) {
    // No number at all, or one out of range.
  }
  return false;
}

}  // namespace

std::string Parsed::text(std::string_view flag) const {
  const auto it = values_.find(flag);
  return it == values_.end() || it->second.empty() ? std::string()
                                                   : it->second.back();
}

Parsed parse(const Command& command, std::span<const std::string> args) {
  Parsed out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      out.positionals.push_back(arg);
      continue;
    }
    const auto flag =
        std::find_if(command.flags.begin(), command.flags.end(),
                     [&](const Flag& row) { return row.name == arg; });
    // A repeated flag would otherwise be a silent last-wins, running a
    // configuration the user did not ask for.
    if (flag == command.flags.end() ||
        (flag->kind != Kind::RepeatedText && out.has(arg))) {
      throw Error("unknown or duplicate flag: " + arg);
    }
    std::vector<std::string>& values = out.values_[arg];
    if (flag->kind == Kind::Switch) {
      continue;
    }
    // An empty text value ("--journal ''") is as missing as a dangling
    // flag: taken as given, it would quietly mean "no journal".
    const bool text =
        flag->kind == Kind::Text || flag->kind == Kind::RepeatedText;
    if (i + 1 == args.size() || (text && args[i + 1].empty())) {
      throw Error(arg + " expects a value");
    }
    const std::string& value = args[++i];
    if (!valid(flag->kind, value)) {
      throw Error(arg + " expects " + expected(flag->kind) + ", got '" +
                  value + "'");
    }
    values.push_back(value);
  }
  const auto require = [&](const Requirement& rule) {
    if (!out.has(rule.flag)) {
      throw Error(std::string(rule.message));
    }
  };
  for (const Requirement& rule : command.required) {
    require(rule);
  }
  const std::string name(command.name);
  const std::vector<std::string>& positionals = out.positionals;
  if (positionals.size() < command.minArgs) {
    if (args.empty() || command.missing.empty()) {
      throw UsageError(name + ": missing argument");
    }
    throw Error(name + ": expected " + std::string(command.missing));
  }
  if (positionals.size() > command.maxArgs) {
    if (command.usageOnExtra) {
      throw UsageError(name + ": unexpected argument");
    }
    throw Error(name + ": unexpected argument '" +
                positionals[command.maxArgs] + "'");
  }
  for (const Flag& flag : command.flags) {
    if (out.has(flag.name)) {
      for (const Requirement& rule : flag.needs) {
        require(rule);
      }
    }
  }
  return out;
}

}  // namespace nodebench::flags
