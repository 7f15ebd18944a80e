/// Tests of the cross-cutting API additions: stream-wait-event
/// dependencies, sendrecv and confidence intervals.

#include <gtest/gtest.h>

#include "core/stats.hpp"
#include "gpusim/gpu_runtime.hpp"
#include "machines/registry.hpp"
#include "mpisim/world.hpp"

namespace nodebench {
namespace {

using machines::byName;
using namespace nodebench::literals;

TEST(StreamWaitEvent, CreatesCrossStreamDependency) {
  const auto& m = byName("Perlmutter");
  gpusim::GpuRuntime rt(m);
  const auto s0 = rt.createStream(0);
  const auto s1 = rt.createStream(1);
  rt.launchKernel(s0, 100_us);
  const auto done = rt.recordEvent(s0);
  rt.streamWaitEvent(s1, done);
  rt.launchKernel(s1, 10_us);
  // s1's kernel cannot finish before s0's kernel plus its own duration.
  EXPECT_GE(rt.streamTail(s1).us(), rt.eventTime(done).us() + 10.0);
  rt.streamSynchronize(s1);
  EXPECT_GE(rt.hostNow().us(), 110.0);
}

TEST(StreamWaitEvent, NoDependencyMeansOverlap) {
  const auto& m = byName("Perlmutter");
  gpusim::GpuRuntime rt(m);
  const auto s0 = rt.createStream(0);
  const auto s1 = rt.createStream(1);
  rt.launchKernel(s0, 100_us);
  rt.launchKernel(s1, 10_us);
  EXPECT_LT(rt.streamTail(s1).us(), 20.0);
}

TEST(Sendrecv, SymmetricExchangeOfLargeMessagesCompletes) {
  // Blocking send/recv of rendezvous-size messages in the same direction
  // order would deadlock; sendrecv must not.
  const auto& m = byName("Eagle");
  mpisim::MpiWorld world(
      m, {mpisim::RankPlacement{topo::CoreId{0}, std::nullopt},
          mpisim::RankPlacement{topo::CoreId{1}, std::nullopt}});
  int completed = 0;
  world.run([&](mpisim::Communicator& c) {
    const int peer = 1 - c.rank();
    for (int i = 0; i < 3; ++i) {
      c.sendrecv(peer, 9, ByteCount::kib(64), peer, 9, ByteCount::kib(64));
    }
    ++completed;
  });
  EXPECT_EQ(completed, 2);
}

TEST(Sendrecv, TimingMatchesManualIsendRecvWait) {
  const auto& m = byName("Manzano");
  const auto run = [&](bool useSendrecv) {
    mpisim::MpiWorld world(
        m, {mpisim::RankPlacement{topo::CoreId{0}, std::nullopt},
            mpisim::RankPlacement{topo::CoreId{1}, std::nullopt}});
    double us = 0.0;
    world.run([&](mpisim::Communicator& c) {
      const int peer = 1 - c.rank();
      if (useSendrecv) {
        c.sendrecv(peer, 4, ByteCount::bytes(256), peer, 4,
                   ByteCount::bytes(256));
      } else {
        auto r = c.isend(peer, 4, ByteCount::bytes(256));
        c.recv(peer, 4, ByteCount::bytes(256));
        c.wait(r);
      }
      if (c.rank() == 0) {
        us = c.now().us();
      }
    });
    return us;
  };
  EXPECT_DOUBLE_EQ(run(true), run(false));
}

TEST(Ci95, ShrinksWithSampleCount) {
  const Summary few{4, 10.0, 2.0, 8.0, 12.0};
  const Summary many{400, 10.0, 2.0, 8.0, 12.0};
  EXPECT_GT(few.ci95(), many.ci95());
  EXPECT_NEAR(many.ci95(), 1.96 * 2.0 / 20.0, 1e-12);
  const Summary one{1, 10.0, 0.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(one.ci95(), 0.0);
}

}  // namespace
}  // namespace nodebench
