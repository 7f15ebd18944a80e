#pragma once
/// \file bench_common.hpp
/// \brief The --runs/--jobs/--journal/--store argument parser shared by
/// the ablation and extension bench harnesses.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "core/error.hpp"
#include "report/tables.hpp"
#include "stats/store.hpp"

namespace nodebench::benchtool {

/// Strict positive-integer parse; nullopt on garbage, trailing characters
/// or out-of-range values (std::atoi would silently yield 0 and the
/// harness would then run zero binaries per cell).
inline std::optional<int> parsePositiveInt(const char* text) {
  if (text == nullptr || *text == '\0') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || value < 1 ||
      value > 1'000'000'000L) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

/// Parsed form of the shared bench arguments; `options.journal` is wired
/// up by `optionsFromArgs`, not here, because opening the journal needs
/// the final option values (the header fingerprints them).
struct BenchArgs {
  report::TableOptions options;
  std::optional<std::string> journalPath;
  std::optional<std::string> storePath;
  bool resume = false;
  std::vector<std::string> positional;
};

/// Throwing core of the bench argument parser (testable without the
/// std::exit wrapper): "--runs N", "--jobs N", "--journal FILE",
/// "--store FILE" and "--resume". A flag given twice is an error — last-wins parsing
/// silently discards half of what the user asked for, which is exactly
/// the kind of input-boundary leniency a measurement campaign cannot
/// afford.
inline BenchArgs parseBenchArgs(const std::vector<std::string>& args) {
  BenchArgs out;
  std::vector<std::string> seen;
  const auto onceOnly = [&](const std::string& flag) {
    if (std::find(seen.begin(), seen.end(), flag) != seen.end()) {
      throw Error("duplicate flag " + flag +
                  " (each option may be given once)");
    }
    seen.push_back(flag);
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--runs" || arg == "--jobs") {
      onceOnly(arg);
      if (i + 1 >= args.size()) {
        throw Error(arg + " requires a value");
      }
      const auto value = parsePositiveInt(args[++i].c_str());
      if (!value) {
        throw Error(arg + " expects a positive integer, got '" + args[i] +
                    "'");
      }
      (arg == "--runs" ? out.options.binaryRuns : out.options.jobs) = *value;
    } else if (arg == "--journal") {
      onceOnly(arg);
      if (i + 1 >= args.size()) {
        throw Error(arg + " requires a value");
      }
      out.journalPath = args[++i];
    } else if (arg == "--store") {
      onceOnly(arg);
      if (i + 1 >= args.size()) {
        throw Error(arg + " requires a value");
      }
      out.storePath = args[++i];
    } else if (arg == "--resume") {
      onceOnly(arg);
      out.resume = true;
    } else if (arg.rfind("--", 0) == 0) {
      throw Error("unknown argument '" + arg + "'");
    } else {
      // Positional arguments (e.g. the figure benches' machine name) are
      // the binary's own business.
      out.positional.push_back(arg);
    }
  }
  if (out.resume && !out.journalPath) {
    throw Error("--resume requires --journal FILE");
  }
  return out;
}

/// Parses the shared harness arguments: "--runs N" (default: the paper's
/// 100), "--jobs N" (default: hardware concurrency; 1 = sequential),
/// "--journal FILE [--resume]" (crash-safe figure campaigns) and
/// "--store FILE" (raw-sample results store for compare/gate). Invalid,
/// missing or duplicate values fail fast with a usage message instead of
/// silently running a nonsense configuration.
///
/// Both the journal resume and the store reattach validate their header
/// fingerprints against the *same* current configuration — so a --resume
/// whose journal and store disagree (e.g. the store was recorded at a
/// different --runs) is rejected with the mismatched parameter named,
/// whichever of the two files carries the stale fingerprint.
inline report::TableOptions optionsFromArgs(int argc, char** argv) {
  // The opened journal/store must outlive the returned options (they
  // hold raw pointers); bench tools are one-shot processes, so
  // process-lifetime holders are the simplest correct owners.
  static std::unique_ptr<campaign::Journal> journalHolder;
  static std::unique_ptr<stats::ResultStore> storeHolder;
  try {
    BenchArgs parsed =
        parseBenchArgs(std::vector<std::string>(argv + 1, argv + argc));
    const campaign::CampaignConfig cfg =
        report::campaignConfig(parsed.options);
    if (parsed.journalPath) {
      journalHolder = parsed.resume
                          ? campaign::Journal::resume(*parsed.journalPath, cfg)
                          : campaign::Journal::create(*parsed.journalPath, cfg);
      for (const std::string& warning : journalHolder->warnings()) {
        std::fprintf(stderr, "%s: warning: %s\n", argv[0], warning.c_str());
      }
      parsed.options.journal = journalHolder.get();
    }
    if (parsed.storePath) {
      storeHolder =
          stats::ResultStore::attach(*parsed.storePath, cfg, parsed.resume);
      parsed.options.store = storeHolder.get();
    }
    return parsed.options;
  } catch (const Error& e) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [--runs N] [--jobs N] "
                 "[--journal FILE [--resume]] [--store FILE]\n",
                 argv[0], e.what(), argv[0]);
    std::exit(2);
  }
}

}  // namespace nodebench::benchtool
