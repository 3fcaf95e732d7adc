/**
 * @file
 * Per-SM pipeline event queue: a 64-cycle timing wheel with an
 * overflow heap (docs/PERFORMANCE.md, "Event wheel").
 *
 * Events pop in (cycle, seq) order, exactly as a binary min-heap would
 * pop them. The wheel covers the window [base, base + 64): bucket
 * c & 63 holds the events of cycle c, in push order. Every other event
 * — far ones (fault handling, host link, DRAM misses) and the
 * sanitizer's documented carve-out of FaultReact events scheduled into
 * the past — goes to the overflow heap. seq grows with every push, so
 * a bucket's FIFO order is its seq order, the first occupied bucket's
 * front is the wheel's least event, and the next pop is the lesser of
 * that front and the overflow top. Nothing migrates between the two.
 *
 * base never passes the clock: popDue() moves it to the first occupied
 * bucket or to @p now, whichever is earlier (to @p now when the wheel
 * is empty). Each bucket therefore only ever holds one cycle, and
 * events scheduled at now + 0..63 land in the wheel.
 *
 * All bucket entries live in one node pool with a free list, so the
 * queue's storage stays contiguous. The pool and the overflow heap are
 * reserved up front above the deepest occupancy measured on the
 * benchmark workloads, so a run never grows them: growing by doubling
 * mid-run left freed blocks behind that raised the peak RSS of
 * multi-threaded sweeps (docs/PERFORMANCE.md).
 */

#ifndef GEX_SM_EVENT_WHEEL_HPP
#define GEX_SM_EVENT_WHEEL_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace gex::sm {

/** Non-instruction pipeline events and context-switch steps. */
enum class EvKind : std::uint8_t {
    SourceRelease, LastCheck, Commit, FaultReact, WarpResume,
    SaveReady, SaveDone, RestoreDone, SlotRetry, TrapEnter,
};

struct Event {
    Cycle cycle;
    std::uint64_t seq;
    EvKind kind;
    std::int32_t arg;   ///< warp or slot index
    std::uint32_t id;   ///< inflight pool index (when applicable)
    bool
    operator>(const Event &o) const
    {
        return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
    }
};

class EventWheel
{
  public:
    static constexpr int kBuckets = 64;
    /** Up-front capacities; the deepest measured were 72 nodes and
     *  352 overflow events per SM. */
    static constexpr std::size_t kReservedNodes = 256;
    static constexpr std::size_t kReservedOverflow = 1024;

    EventWheel()
    {
        nodes_.reserve(kReservedNodes);
        std::vector<Event> backing;
        backing.reserve(kReservedOverflow);
        overflow_ = decltype(overflow_)(std::greater<>(), std::move(backing));
    }

    /** Queue @p ev; its seq must exceed every earlier push's. */
    void
    push(const Event &ev)
    {
        if (ev.cycle < base_ || ev.cycle - base_ >= kBuckets) {
            overflow_.push(ev);
            return;
        }
        std::uint32_t n = free_;
        if (n != kNil) {
            free_ = nodes_[n].next;
        } else {
            n = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        }
        nodes_[n] = Node{ev, kNil};
        const unsigned b = static_cast<unsigned>(ev.cycle) & kMask;
        if (occupied_ >> b & 1)
            nodes_[tail_[b]].next = n;
        else
            head_[b] = n;
        tail_[b] = n;
        occupied_ |= 1ull << b;
    }

    /** Cycle of the next event to pop; kNoCycle when empty. */
    Cycle
    nextCycle() const
    {
        Cycle c = occupied_ ? firstOccupied() : kNoCycle;
        if (!overflow_.empty())
            c = std::min(c, overflow_.top().cycle);
        return c;
    }

    /**
     * Pop the (cycle, seq)-least event into @p ev when its cycle is at
     * most @p now; false (and @p ev untouched) otherwise. @p now must
     * not decrease between calls.
     */
    bool
    popDue(Cycle now, Event &ev)
    {
        if (occupied_ == 0) {
            base_ = std::max(base_, now);
            if (overflow_.empty() || overflow_.top().cycle > now)
                return false;
            ev = overflow_.top();
            overflow_.pop();
            return true;
        }
        const Cycle first = firstOccupied();
        base_ = std::max(base_, std::min(first, now));
        const unsigned b = static_cast<unsigned>(first) & kMask;
        const std::uint32_t n = head_[b];
        const Event &front = nodes_[n].ev;
        if (!overflow_.empty() && front > overflow_.top()) {
            if (overflow_.top().cycle > now)
                return false;
            ev = overflow_.top();
            overflow_.pop();
            return true;
        }
        if (first > now)
            return false;
        ev = front;
        head_[b] = nodes_[n].next;
        if (head_[b] == kNil)
            occupied_ &= ~(1ull << b);
        nodes_[n].next = free_;
        free_ = n;
        return true;
    }

  private:
    static constexpr unsigned kMask = kBuckets - 1;
    static constexpr std::uint32_t kNil = UINT32_MAX;

    struct Node {
        Event ev;
        std::uint32_t next;
    };

    /** Cycle of the first occupied bucket at or after base (occupied_
     *  must be non-zero). */
    Cycle
    firstOccupied() const
    {
        const int r = static_cast<int>(static_cast<unsigned>(base_) & kMask);
        return base_ + static_cast<Cycle>(
                           std::countr_zero(std::rotr(occupied_, r)));
    }

    Cycle base_ = 0;
    std::uint64_t occupied_ = 0; ///< bit b: bucket b is non-empty
    std::uint32_t head_[kBuckets] = {};
    std::uint32_t tail_[kBuckets] = {};
    std::uint32_t free_ = kNil;
    std::vector<Node> nodes_;
    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        overflow_;
};

} // namespace gex::sm

#endif // GEX_SM_EVENT_WHEEL_HPP
