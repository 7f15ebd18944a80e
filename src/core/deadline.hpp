#pragma once
/// \file deadline.hpp
/// \brief Shared wall-clock deadline tracking for watchdog loops.
///
/// Two loops watch deadlines: the serve daemon's per-request watchdog
/// thread (cancel a stuck request) and the campaign launcher's event
/// loop (expire a worker lease), which sleeps toward nextDeadline().
/// Before this file each carried its own scan-the-table loop;
/// `DeadlineMonitor` centralizes the armed-deadline registry so both
/// share one tested implementation of the arm/disarm/expire lifecycle.
///
/// Semantics: a deadline fires at most once — `expired()` removes every
/// entry it returns, so the poller acts on each expiry exactly once and
/// re-arming is an explicit decision (the heartbeat monitor re-arms on
/// every observed beat; the request watchdog never does). Disarming an
/// id that is not armed is a no-op, which makes completion races
/// harmless: finishing work after its deadline fired just disarms
/// nothing.

#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace nodebench {

class DeadlineMonitor {
 public:
  using Clock = std::chrono::steady_clock;

  /// Arms (or re-arms) `id` to expire at `deadline`.
  void arm(const std::string& id, Clock::time_point deadline);

  /// Removes `id`'s deadline if armed; no-op otherwise.
  void disarm(const std::string& id);

  /// Removes and returns every id whose deadline is at or before `now`,
  /// in id order (deterministic for tests and logs).
  [[nodiscard]] std::vector<std::string> expired(Clock::time_point now);

  /// The earliest armed deadline, if any — what an event loop sleeps
  /// toward instead of a fixed poll period.
  [[nodiscard]] std::optional<Clock::time_point> nextDeadline() const;

  [[nodiscard]] std::size_t armedCount() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Clock::time_point> deadlines_;
};

}  // namespace nodebench
