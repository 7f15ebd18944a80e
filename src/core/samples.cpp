#include "core/samples.hpp"

#include <utility>

#include "core/error.hpp"

namespace nodebench {

namespace {

thread_local SampleCapture* tActiveCapture = nullptr;

}  // namespace

SampleCapture::SampleCapture() {
  NB_EXPECTS(tActiveCapture == nullptr);
  tActiveCapture = this;
}

SampleCapture::~SampleCapture() { tActiveCapture = nullptr; }

void SampleCapture::record(std::string_view channel, double value) {
  const auto it = channels_.find(channel);
  if (it != channels_.end()) {
    it->second.push_back(value);
    return;
  }
  channels_.emplace(std::string(channel), std::vector<double>{value});
}

std::vector<double> SampleCapture::take(std::string_view channel) {
  const auto it = channels_.find(channel);
  if (it == channels_.end()) {
    return {};
  }
  std::vector<double> out = std::move(it->second);
  channels_.erase(it);
  return out;
}

SampleCapture* activeSampleCapture() { return tActiveCapture; }

void recordSample(std::string_view channel, double value) {
  if (tActiveCapture != nullptr) {
    tActiveCapture->record(channel, value);
  }
}

}  // namespace nodebench
