/**
 * @file
 * WarpBitset: a fixed-capacity bitset over one SM's warp slots, sized for
 * the largest configurable sm.max-warps (1024) so every configuration
 * runs the same multi-word code. The fetch and issue stages keep their
 * scan gates in WarpBitsets and walk only the warps outside them with
 * find-next-set-bit, counting the passed-over bits of a range with
 * popcount (docs/PERFORMANCE.md, "Warp-mask scans").
 */

#ifndef GEX_COMMON_WARP_BITSET_HPP
#define GEX_COMMON_WARP_BITSET_HPP

#include <array>
#include <bit>
#include <cstdint>

namespace gex {

class WarpBitset
{
  public:
    static constexpr int kMaxBits = 1024;
    static constexpr int kWords = kMaxBits / 64;

    void set(int i) { w_[wordOf(i)] |= bitOf(i); }
    void reset(int i) { w_[wordOf(i)] &= ~bitOf(i); }
    bool test(int i) const { return (w_[wordOf(i)] & bitOf(i)) != 0; }
    void clear() { w_.fill(0); }

    /** Bits 64*wi .. 64*wi+63. */
    std::uint64_t word(int wi) const { return w_[static_cast<unsigned>(wi)]; }

    /** Number of set bits in [lo, hi); 0 when the range is empty. */
    int
    count(int lo, int hi) const
    {
        if (lo >= hi)
            return 0;
        const int first = lo >> 6;
        const int last = (hi - 1) >> 6;
        const std::uint64_t head = ~0ull << (lo & 63);
        const std::uint64_t tail = ~0ull >> (63 - ((hi - 1) & 63));
        if (first == last)
            return std::popcount(word(first) & head & tail);
        int n = std::popcount(word(first) & head);
        for (int wi = first + 1; wi < last; ++wi)
            n += std::popcount(word(wi));
        return n + std::popcount(word(last) & tail);
    }

    /**
     * First index in [lo, hi) whose bit is set in the mask whose word
     * wi is @p word(wi), or @p hi when there is none. Scans a
     * word-wise combination of several masks without materializing it.
     */
    template <class WordFn>
    static int
    findNextIn(int lo, int hi, WordFn &&word)
    {
        if (lo >= hi)
            return hi;
        int wi = lo >> 6;
        std::uint64_t x = word(wi) & (~0ull << (lo & 63));
        while (x == 0) {
            ++wi;
            if (wi * 64 >= hi)
                return hi;
            x = word(wi);
        }
        const int i = (wi << 6) + std::countr_zero(x);
        return i < hi ? i : hi;
    }

  private:
    static unsigned wordOf(int i) { return static_cast<unsigned>(i) >> 6; }
    static std::uint64_t bitOf(int i) { return 1ull << (i & 63); }

    std::array<std::uint64_t, kWords> w_{};
};

} // namespace gex

#endif // GEX_COMMON_WARP_BITSET_HPP
