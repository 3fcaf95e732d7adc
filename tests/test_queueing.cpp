/**
 * @file
 * Property tests: queueing behaviour of the serialized resources that
 * produce the paper's contention effects — the CPU fault handler, the
 * host link, and the walker pool — under parameterized offered load.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <vector>

#include "mem/port.hpp"
#include "vm/host_link.hpp"

namespace gex::vm {
namespace {

class HostLinkLoad : public ::testing::TestWithParam<int>
{
};

TEST_P(HostLinkLoad, CpuThroughputSaturatesAtServiceRate)
{
    const int n = GetParam();
    HostLinkConfig cfg = HostLinkConfig::nvlink();
    HostLink link(cfg);
    // n allocation-only faults arriving simultaneously.
    Cycle last = 0;
    for (int i = 0; i < n; ++i)
        last = std::max(last, link.serviceFault(0, 0));
    // Completion of the batch is bounded below by serialized CPU
    // service and above by service + full latency.
    Cycle serial = static_cast<Cycle>(n) * cfg.cpuServiceCycles;
    EXPECT_GE(last, serial);
    EXPECT_LE(last, serial + 3 * cfg.oneWayLatency + 2000);
}

TEST_P(HostLinkLoad, MigrationBatchBoundedByLinkBandwidth)
{
    const int n = GetParam();
    HostLinkConfig cfg = HostLinkConfig::pcie();
    HostLink link(cfg);
    Cycle last = 0;
    for (int i = 0; i < n; ++i)
        last = std::max(last, link.serviceFault(0, 64 * 1024));
    // 64 KB per fault over the serialized link.
    double xfer_per_fault = 64.0 * 1024.0 / cfg.linkBytesPerCycle;
    EXPECT_GE(last, static_cast<Cycle>(n * xfer_per_fault));
    EXPECT_EQ(link.bytesMigrated(),
              static_cast<std::uint64_t>(n) * 64 * 1024);
}

TEST_P(HostLinkLoad, AverageLatencyGrowsWithLoad)
{
    const int n = GetParam();
    if (n < 4)
        GTEST_SKIP();
    HostLinkConfig cfg = HostLinkConfig::nvlink();
    HostLink a(cfg), b(cfg);
    Cycle solo = a.serviceFault(0, 0);
    Cycle last = 0;
    for (int i = 0; i < n; ++i)
        last = std::max(last, b.serviceFault(0, 0));
    EXPECT_GT(last, solo); // the batch's tail waited in the queue
}

INSTANTIATE_TEST_SUITE_P(Load, HostLinkLoad,
                         ::testing::Values(1, 2, 4, 16, 64, 256));

TEST(WalkerPool, SixtyFourConcurrentWalks)
{
    mem::Port walkers(64, 500);
    // 64 walks start immediately; the 65th waits for a walker.
    Cycle start = 0;
    for (int i = 0; i < 64; ++i)
        start = std::max(start, walkers.reserve(0));
    EXPECT_EQ(start, 0u);
    EXPECT_EQ(walkers.reserve(0), 500u);
}

TEST(BandwidthConservation, PipeNeverExceedsRate)
{
    mem::BandwidthPipe pipe(32.0);
    Rng rng(5);
    Cycle now = 0;
    std::uint64_t bytes = 0;
    Cycle last_end = 0;
    for (int i = 0; i < 500; ++i) {
        now += rng.below(20);
        std::uint64_t sz = 64 + rng.below(4096);
        last_end = pipe.transfer(now, sz);
        bytes += sz;
    }
    // Total bytes moved cannot exceed rate x elapsed time.
    EXPECT_GE(static_cast<double>(last_end) * 32.0,
              static_cast<double>(bytes));
    EXPECT_EQ(pipe.totalBytes(), bytes);
}

TEST(PortFairness, FifoUnderContention)
{
    mem::Port port(1);
    // Reservations made in order get non-decreasing grants.
    Cycle prev = 0;
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        Cycle want = rng.below(50);
        Cycle got = port.reserve(want);
        EXPECT_GE(got, prev);
        prev = got;
    }
}

/** The min-heap Port that mem::Port's free-time array replaced. */
class HeapPort
{
  public:
    HeapPort(int slots, Cycle hold) : hold_(hold)
    {
        for (int i = 0; i < slots; ++i)
            free_.push(0);
    }

    Cycle
    reserve(Cycle earliest)
    {
        Cycle top = free_.top();
        free_.pop();
        Cycle start = std::max(earliest, top);
        free_.push(start + hold_);
        return start;
    }

  private:
    Cycle hold_;
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<>> free_;
};

TEST(PortDifferential, GrantsMatchTheHeapOfFreeTimes)
{
    for (int slots : {1, 2, 64}) {
        for (Cycle hold : {Cycle{1}, Cycle{500}}) {
            mem::Port port(slots, hold);
            HeapPort ref(slots, hold);
            Rng rng(static_cast<std::uint64_t>(slots) * 1000 + hold);
            // Requests arrive roughly in time order with bursts and
            // out-of-order stragglers, as the SM issue loops make them.
            Cycle t = 0;
            for (int i = 0; i < 5000; ++i) {
                t += rng.below(4) == 0 ? rng.below(3 * hold) : 0;
                const Cycle want = t + rng.below(8) -
                                   std::min<Cycle>(t, rng.below(4));
                ASSERT_EQ(port.reserve(want), ref.reserve(want))
                    << "slots " << slots << " hold " << hold
                    << " request " << i;
            }
            port.reset();
            HeapPort fresh(slots, hold);
            for (int i = 0; i < 3 * slots; ++i)
                ASSERT_EQ(port.reserve(7), fresh.reserve(7))
                    << "after reset, slots " << slots;
        }
    }
}

} // namespace
} // namespace gex::vm
