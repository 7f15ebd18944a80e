#include <gtest/gtest.h>

#include <vector>

#include "machines/registry.hpp"
#include "mpisim/world.hpp"

namespace nodebench::mpisim {
namespace {

using machines::byName;
using topo::CoreId;

std::vector<RankPlacement> hostPair(const machines::Machine& m) {
  return {RankPlacement{CoreId{0}, std::nullopt},
          RankPlacement{CoreId{1}, std::nullopt}};
}

TEST(NonBlocking, IsendIrecvRoundTripCompletes) {
  const auto& m = byName("Eagle");
  MpiWorld world(m, hostPair(m));
  bool done = false;
  world.runEach({
      [&](Communicator& c) {
        Request s = c.isend(1, 5, ByteCount::bytes(64));
        c.wait(s);
        EXPECT_FALSE(s.valid());
      },
      [&](Communicator& c) {
        Request r = c.irecv(0, 5, ByteCount::bytes(64));
        c.wait(r);
        done = true;
      },
  });
  EXPECT_TRUE(done);
}

TEST(NonBlocking, EagerSendBufferReusableImmediately) {
  const auto& m = byName("Eagle");
  MpiWorld world(m, hostPair(m));
  world.runEach({
      [&](Communicator& c) {
        const Duration before = c.now();
        Request s = c.isend(1, 1, ByteCount::bytes(8));
        const Duration posted = c.now();
        c.wait(s);
        // Eager: wait() does not advance past the post time.
        EXPECT_DOUBLE_EQ(c.now().ns(), posted.ns());
        EXPECT_GT(posted, before);  // the post itself costs software time
      },
      [](Communicator& c) { c.recv(0, 1, ByteCount::bytes(8)); },
  });
}

TEST(NonBlocking, LargeSendGatesSenderAtWait) {
  const auto& m = byName("Eagle");
  MpiWorld world(m, hostPair(m));
  world.runEach({
      [&](Communicator& c) {
        Request s = c.isend(1, 1, ByteCount::mib(1));
        const Duration posted = c.now();
        c.wait(s);
        EXPECT_GT(c.now(), posted);  // rendezvous copy drains at wait
      },
      [](Communicator& c) { c.recv(0, 1, ByteCount::mib(1)); },
  });
}

TEST(NonBlocking, WindowPipelinesOnChannel) {
  // A window of W messages must take ~post + W * transfer, not
  // W * (full one-way latency): the channel pipelines payloads.
  const auto& m = byName("Eagle");
  const ByteCount size = ByteCount::kib(4);
  const int window = 16;
  MpiWorld world(m, hostPair(m));
  Duration elapsed = Duration::zero();
  world.runEach({
      [&](Communicator& c) {
        std::vector<Request> reqs;
        for (int i = 0; i < window; ++i) {
          reqs.push_back(c.isend(1, 1, size));
        }
        c.waitAll(reqs);
      },
      [&](Communicator& c) {
        std::vector<Request> reqs;
        for (int i = 0; i < window; ++i) {
          reqs.push_back(c.irecv(0, 1, size));
        }
        c.waitAll(reqs);
        elapsed = c.now();
      },
  });
  const PathTiming path =
      resolvePath(m, RankPlacement{CoreId{0}, std::nullopt},
                  RankPlacement{CoreId{1}, std::nullopt},
                  BufferSpace::host(), BufferSpace::host());
  const double pipelined =
      window * path.eagerBandwidth.transferTime(size).ns();
  const double serialized = window * path.eagerOneWay(size).ns();
  EXPECT_GT(elapsed.ns(), pipelined);
  EXPECT_LT(elapsed.ns(), serialized);
}

TEST(NonBlocking, WaitOnInvalidRequestThrows) {
  const auto& m = byName("Eagle");
  MpiWorld world(m, hostPair(m));
  EXPECT_THROW(world.runEach({
                   [](Communicator& c) {
                     Request s = c.isend(1, 1, ByteCount::bytes(8));
                     c.wait(s);
                     c.wait(s);  // already completed
                   },
                   [](Communicator& c) { c.recv(0, 1, ByteCount::bytes(8)); },
               }),
               PreconditionError);
}

TEST(NonBlocking, MixedBlockingAndNonblockingMatch) {
  // isend pairs with blocking recv and vice versa (irecv + wait with a
  // blocking eager sender).
  const auto& m = byName("Manzano");
  MpiWorld world(m, hostPair(m));
  world.runEach({
      [](Communicator& c) {
        Request s = c.isend(1, 7, ByteCount::bytes(32));
        c.wait(s);
        c.send(1, 8, ByteCount::bytes(32));
      },
      [](Communicator& c) {
        c.recv(0, 7, ByteCount::bytes(32));
        Request r = c.irecv(0, 8, ByteCount::bytes(32));
        c.wait(r);
      },
  });
}

}  // namespace
}  // namespace nodebench::mpisim
