/**
 * @file
 * Timestamp-reservation primitives used across the timing model.
 *
 * The memory system is modeled analytically: structural resources hand
 * out *time slots* instead of being ticked every cycle. A Port grants k
 * accesses per cycle; a BandwidthPipe grants byte slots at a configured
 * rate. Reservations are made in simulation-time order by the SM issue
 * loops, so contention and queueing delays are preserved.
 */

#ifndef GEX_MEM_PORT_HPP
#define GEX_MEM_PORT_HPP

#include <algorithm>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace gex::mem {

/**
 * A pool of @c slots units, each busy for @c hold cycles per grant,
 * FIFO-queued. Models issue ports (slots=k, hold=1) as well as
 * longer-occupancy pools such as the 64 page-table walkers (slots=64,
 * hold=500).
 *
 * The units' free times sit in a plain array and a grant takes the
 * earliest one. Which of several equal minima is taken cannot matter,
 * so the grants are those of a min-heap of free times; most ports have
 * one or two units, where a linear scan beats heap maintenance.
 */
class Port
{
  public:
    explicit Port(int slots = 1, Cycle hold = 1)
        : hold_(hold), free_(static_cast<std::size_t>(slots), 0)
    {
        GEX_ASSERT(slots >= 1 && hold >= 1);
    }

    /**
     * Reserve one slot no earlier than @p earliest; returns the cycle
     * the access actually starts (>= earliest, delayed by queueing).
     */
    Cycle
    reserve(Cycle earliest)
    {
        Cycle &unit = *std::min_element(free_.begin(), free_.end());
        Cycle start = std::max(earliest, unit);
        unit = start + hold_;
        return start;
    }

    void reset() { std::fill(free_.begin(), free_.end(), 0); }

  private:
    Cycle hold_;
    std::vector<Cycle> free_; ///< cycle each unit next becomes free
};

/**
 * A serialized channel with fixed bandwidth. Time is tracked in Q8
 * fixed point (1/256 cycle) so sub-cycle transfer slots (e.g. a 128 B
 * line at 256 B/cycle) accumulate exactly.
 */
class BandwidthPipe
{
  public:
    /** @param bytes_per_cycle channel bandwidth (1 GHz clock domain) */
    explicit BandwidthPipe(double bytes_per_cycle)
        : bytesPerCycleQ8_(static_cast<std::uint64_t>(bytes_per_cycle * 256))
    {
        GEX_ASSERT(bytesPerCycleQ8_ > 0);
    }

    /**
     * Occupy the channel for @p bytes starting no earlier than
     * @p earliest; returns the cycle the transfer finishes.
     */
    Cycle
    transfer(Cycle earliest, std::uint64_t bytes)
    {
        std::uint64_t startQ8 =
            std::max(nextQ8_, static_cast<std::uint64_t>(earliest) << 8);
        std::uint64_t durQ8 = (bytes << 16) / bytesPerCycleQ8_;
        if (durQ8 == 0)
            durQ8 = 1;
        nextQ8_ = startQ8 + durQ8;
        totalBytes_ += bytes;
        return (nextQ8_ + 255) >> 8;
    }

    std::uint64_t totalBytes() const { return totalBytes_; }

    void
    reset()
    {
        nextQ8_ = 0;
        totalBytes_ = 0;
    }

  private:
    std::uint64_t bytesPerCycleQ8_;
    std::uint64_t nextQ8_ = 0;
    std::uint64_t totalBytes_ = 0;
};

} // namespace gex::mem

#endif // GEX_MEM_PORT_HPP
