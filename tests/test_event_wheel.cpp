/**
 * @file
 * Differential tests of the SM event wheel against the binary min-heap
 * it replaced: the same push/pop script must pop the same events in
 * the same order and report the same next cycle after every step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "common/stats.hpp"
#include "sm/event_wheel.hpp"

namespace gex::sm {
namespace {

using RefHeap =
    std::priority_queue<Event, std::vector<Event>, std::greater<>>;

/** Wheel and reference heap driven by one script, compared per step. */
class Lockstep
{
  public:
    void
    push(Cycle cycle, EvKind kind = EvKind::Commit)
    {
        ++seq_;
        const Event ev{cycle, seq_, kind,
                       static_cast<std::int32_t>(seq_ % 7),
                       static_cast<std::uint32_t>(seq_ * 3)};
        wheel_.push(ev);
        ref_.push(ev);
        ASSERT_EQ(wheel_.nextCycle(), refNext()) << "after push " << seq_;
    }

    /** Pop one due event from both; true when one was due. */
    bool
    popOne(Cycle now)
    {
        Event got{};
        const bool wheelPopped = wheel_.popDue(now, got);
        const bool refDue = !ref_.empty() && ref_.top().cycle <= now;
        EXPECT_EQ(wheelPopped, refDue) << "at cycle " << now;
        if (!wheelPopped || !refDue)
            return false;
        const Event want = ref_.top();
        ref_.pop();
        EXPECT_EQ(got.cycle, want.cycle);
        EXPECT_EQ(got.seq, want.seq);
        EXPECT_EQ(got.kind, want.kind);
        EXPECT_EQ(got.arg, want.arg);
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(wheel_.nextCycle(), refNext())
            << "after pop " << got.seq;
        ++popped_;
        return true;
    }

    /** Pop everything due at @p now, as Sm::processEvents does. */
    void
    drain(Cycle now)
    {
        while (popOne(now)) {
        }
    }

    Cycle
    refNext() const
    {
        return ref_.empty() ? kNoCycle : ref_.top().cycle;
    }

    Cycle next() const { return wheel_.nextCycle(); }
    bool empty() const { return next() == kNoCycle; }
    std::uint64_t popped() const { return popped_; }

  private:
    EventWheel wheel_;
    RefHeap ref_;
    std::uint64_t seq_ = 0;
    std::uint64_t popped_ = 0;
};

TEST(EventWheel, DirectedDistancesPopInHeapOrder)
{
    Lockstep ls;
    Cycle now = 10;
    ls.drain(now);
    // Distances 0, 1, 63, 64 and beyond, with a same-cycle burst mixed
    // into the window edge and the overflow.
    for (Cycle d : {0, 1, 63, 64, 65, 300, 1, 63, 64, 0, 5000, 64})
        ls.push(now + d);
    ls.push(now - 3, EvKind::FaultReact); // into the past
    for (; !ls.empty(); ++now)
        ls.drain(now);
    EXPECT_EQ(ls.popped(), 13u);
    EXPECT_EQ(ls.next(), kNoCycle);
}

TEST(EventWheel, EventsCrossingTheWindowKeepSeqOrder)
{
    // Same target cycle reached first through the overflow (pushed when
    // it was 64+ ahead) and later through its bucket: seq decides.
    Lockstep ls;
    ls.drain(0);
    ls.push(100);
    ls.push(100);
    ls.drain(50);
    ls.push(100);
    ls.push(99);
    ls.drain(99);
    ls.push(100);
    ls.drain(100);
    EXPECT_EQ(ls.popped(), 5u);
    EXPECT_TRUE(ls.empty());
}

/**
 * One randomized SM-like script: per tick, drain due events (pushing
 * some at the current cycle and some into the past while draining),
 * then schedule a mix of near and far events, then advance the clock
 * by one, to the next event (idle replay) or by a jump past the
 * window.
 */
void
runScript(std::uint64_t seed)
{
    Rng rng(seed);
    Lockstep ls;
    Cycle now = rng.below(200);
    for (int tick = 0; tick < 4000; ++tick) {
        while (ls.popOne(now)) {
            if (rng.below(8) == 0)
                ls.push(now); // pushed while draining, at cycle <= now
            if (rng.below(32) == 0 && now > 0)
                ls.push(now - 1 - rng.below(std::min<Cycle>(now, 80)),
                        EvKind::FaultReact);
        }
        ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
        const int pushes = static_cast<int>(rng.below(5));
        for (int i = 0; i < pushes; ++i) {
            Cycle d;
            switch (rng.below(8)) {
              case 0: d = 0; break;
              case 1: case 2: d = 1; break;
              case 3: d = 4 + rng.below(60); break;
              case 4: d = 63 + rng.below(3); break; // 63, 64, 65
              case 5: d = 65 + rng.below(1000); break;
              case 6: d = rng.below(2) ? 256 + rng.below(768) : 20000;
                break;
              default: d = 2; break;
            }
            const int burst =
                rng.below(6) == 0 ? 1 + static_cast<int>(rng.below(6)) : 1;
            for (int b = 0; b < burst; ++b)
                ls.push(now + d);
        }
        switch (rng.below(10)) {
          case 0: { // idle replay: sleep until the next event
            const Cycle nxt = ls.next();
            now = nxt == kNoCycle ? now + 1 : std::max(now + 1, nxt);
            break;
          }
          case 1: // clock jump past the window
            now += 65 + rng.below(500);
            break;
          default:
            ++now;
        }
    }
    for (int guard = 0; !ls.empty() && guard < 100000; ++guard) {
        ls.drain(now);
        now = std::max(now + 1, ls.next() == kNoCycle ? now : ls.next());
    }
    EXPECT_TRUE(ls.empty());
    EXPECT_GT(ls.popped(), 1000u);
}

TEST(EventWheel, RandomizedScriptsMatchTheBinaryHeap)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        runScript(seed);
        if (::testing::Test::HasFailure())
            return;
    }
}

} // namespace
} // namespace gex::sm
