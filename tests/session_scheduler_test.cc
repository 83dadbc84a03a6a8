#include "runtime/session.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace phoenix {
namespace {

// Recurses through depth + 1 frames of 4 KB each. Every callee writes into
// its caller's frame, so each frame stays live until its callee returns.
// Returns `depth`.
int Recurse(int depth, volatile char* caller) {
  volatile char frame[4096] = {};
  caller[0] = static_cast<char>(caller[0] + 1);
  int below = depth == 0 ? 0 : Recurse(depth - 1, frame);
  return below + frame[0];
}

// Session stacks in this process's address space: an 8 MB read-write
// mapping directly above a one-page PROT_NONE guard.
int SessionStackMappings() {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  std::ifstream maps("/proc/self/maps");
  int stacks = 0;
  uintptr_t guard_end = 0;
  for (std::string line; std::getline(maps, line);) {
    uintptr_t start = 0;
    uintptr_t end = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " %4s", &start,
                    &end, perms) != 3) {
      continue;
    }
    std::string_view p(perms);
    if (start == guard_end && end - start == (uintptr_t{8} << 20) &&
        p.substr(0, 2) == "rw") {
      ++stacks;
    }
    guard_end = (p == "---p" && end - start == page) ? end : 0;
  }
  return stacks;
}

// A session body has a thread-sized stack: 2 MB of frames fit.
TEST(SessionSchedulerTest, DeepRecursionFinishes) {
  SessionScheduler scheduler(1);
  int result = 0;
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    scheduler.ParkUntil([] { return true; });
    volatile char top = 0;
    result = Recurse(512, &top);
  });
  bodies.push_back([&] { scheduler.ParkUntil([] { return true; }); });
  scheduler.Run(std::move(bodies));
  EXPECT_EQ(result, 512);
}

// 64 sessions in 32 pairs; each pair passes a turn back and forth twice
// through ParkUntil. The seeded pick among ready sessions fixes the order
// in which turns are taken.
std::vector<int> PingPongOrder(uint64_t seed) {
  constexpr int kPairs = 32;
  constexpr int kRounds = 2;
  SessionScheduler scheduler(seed);
  std::vector<int> turn(kPairs, 0);
  std::vector<int> order;
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < 2 * kPairs; ++i) {
    bodies.push_back([&, i] {
      int pair = i / 2;
      int side = i % 2;
      for (int round = 0; round < kRounds; ++round) {
        scheduler.ParkUntil([&, pair, side] { return turn[pair] == side; });
        order.push_back(i);
        turn[pair] = 1 - side;
      }
    });
  }
  scheduler.Run(std::move(bodies));
  return order;
}

TEST(SessionSchedulerTest, PingPongOrderIsPinnedBySeed) {
  // The order for seed 42. A change here changes every interleaving, and
  // with it every group-commit batch and sim metric of the overlapping
  // workloads.
  const std::vector<int> kGolden = {
      18, 44, 26, 24, 14, 46, 19, 16, 60, 17, 42, 30, 4, 20, 21, 5,
      25, 61, 2, 6, 3, 54, 38, 27, 16, 18, 10, 24, 12, 0, 11, 4,
      47, 48, 28, 8, 58, 15, 29, 56, 25, 39, 49, 48, 45, 57, 28, 1,
      26, 52, 53, 7, 43, 10, 17, 22, 19, 9, 38, 32, 2, 0, 36, 31,
      42, 60, 5, 44, 8, 33, 34, 43, 52, 13, 59, 61, 14, 23, 55, 29,
      32, 12, 35, 30, 54, 1, 11, 53, 56, 27, 50, 45, 37, 34, 51, 57,
      39, 46, 47, 40, 20, 21, 13, 9, 36, 37, 41, 3, 40, 35, 49, 33,
      55, 6, 50, 15, 41, 22, 51, 58, 31, 59, 7, 23, 62, 63, 62, 63};
  std::vector<int> order = PingPongOrder(42);
  EXPECT_EQ(order, kGolden);
  EXPECT_EQ(PingPongOrder(42), order);
  EXPECT_NE(PingPongOrder(43), order);
  // Each pair alternates: the even side always goes first.
  std::vector<int> taken(32, 0);
  for (int i : order) {
    EXPECT_EQ(i % 2, taken[i / 2] % 2) << "session " << i;
    ++taken[i / 2];
  }
}

TEST(SessionSchedulerTest, CurrentSessionIsTheBodyIndex) {
  SessionScheduler scheduler(3);
  EXPECT_EQ(scheduler.current_session(), -1);
  EXPECT_EQ(scheduler.current_context_stack(), nullptr);
  EXPECT_EQ(scheduler.current_trace_stack(), nullptr);
  EXPECT_FALSE(scheduler.ParkUntil([] { return true; }));

  constexpr int kSessions = 5;
  std::vector<int> seen_in_body(kSessions, -2);
  std::vector<int> seen_after_park(kSessions, -2);
  std::vector<int> seen_in_pred;
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < kSessions; ++i) {
    bodies.push_back([&, i] {
      seen_in_body[i] = scheduler.current_session();
      EXPECT_NE(scheduler.current_context_stack(), nullptr);
      scheduler.ParkUntil([&] {
        seen_in_pred.push_back(scheduler.current_session());
        return true;
      });
      seen_after_park[i] = scheduler.current_session();
    });
  }
  scheduler.Run(std::move(bodies));

  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(seen_in_body[i], i);
    EXPECT_EQ(seen_after_park[i], i);
  }
  ASSERT_FALSE(seen_in_pred.empty());
  for (int s : seen_in_pred) EXPECT_EQ(s, -1);
  EXPECT_EQ(scheduler.current_session(), -1);
}

// Every Run maps one guarded stack per session and unmaps them all before
// it returns; under ASan the bodies' captures and the park predicates are
// checked for leaks too.
TEST(SessionSchedulerTest, BackToBackRunsLeaveNothingBehind) {
  SessionScheduler scheduler(9);
  int finished = 0;
  std::vector<int> stacks_seen;
  for (int run = 0; run < 100; ++run) {
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < 4; ++i) {
      auto payload = std::make_shared<std::vector<int>>(64, i);
      bodies.push_back([&, payload] {
        if (payload->front() == 0) {
          stacks_seen.push_back(SessionStackMappings());
        }
        for (int k = 0; k < 3; ++k) {
          scheduler.ParkUntil([payload] { return !payload->empty(); });
        }
        ++finished;
      });
    }
    scheduler.Run(std::move(bodies));
    ASSERT_EQ(SessionStackMappings(), 0) << "run " << run;
  }
  EXPECT_EQ(finished, 400);
  EXPECT_EQ(stacks_seen, std::vector<int>(100, 4));
}

TEST(SessionSchedulerDeathTest, NestedRunAborts) {
  EXPECT_DEATH(
      {
        SessionScheduler scheduler(1);
        std::vector<std::function<void()>> bodies;
        bodies.push_back([&] {
          std::vector<std::function<void()>> inner;
          inner.push_back([] {});
          scheduler.Run(std::move(inner));
        });
        scheduler.Run(std::move(bodies));
      },
      "Run called from inside a session");
}

// Two sessions wait on each other's predicates and a third has finished:
// the abort names every session, its state and what it waits on.
TEST(SessionSchedulerDeathTest, DeadlockNamesEverySession) {
  EXPECT_DEATH(
      {
        SessionScheduler scheduler(1);
        bool a_done = false;
        bool b_done = false;
        std::vector<std::function<void()>> bodies;
        bodies.push_back([&] {
          scheduler.ParkUntil([&] { return b_done; });
          a_done = true;
        });
        bodies.push_back([&] {
          scheduler.ParkUntil([&] { return a_done; });
          b_done = true;
        });
        bodies.push_back([] {});
        scheduler.Run(std::move(bodies));
      },
      "session deadlock: no session is runnable and none waits on "
      "durability\n"
      "  session 0: parked on predicate\n"
      "  session 1: parked on predicate\n"
      "  session 2: done\n");
}

}  // namespace
}  // namespace phoenix
