#include "core/cancel.hpp"

#include <csignal>
#include <string>

namespace nodebench {

const char* cancelReasonName(CancelReason reason) {
  switch (reason) {
    case CancelReason::None: return "none";
    case CancelReason::Interrupt: return "interrupt";
    case CancelReason::Watchdog: return "watchdog";
    case CancelReason::Drain: return "drain";
  }
  return "unknown";
}

CancelledError::CancelledError(CancelReason reason)
    : Error(std::string("measurement cancelled (") + cancelReasonName(reason) +
            "); completed cells are journalled and a --resume run "
            "continues from them"),
      reason_(reason) {}

CancelToken& interruptToken() {
  static CancelToken token;
  return token;
}

void installInterruptHandlers() {
  const auto onSignal = [](int /*signo*/) {
    interruptToken().set(CancelReason::Interrupt);
  };
  (void)std::signal(SIGINT, onSignal);
  (void)std::signal(SIGTERM, onSignal);
}

}  // namespace nodebench
