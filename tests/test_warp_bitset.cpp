/**
 * @file
 * WarpBitset against a std::vector<bool> reference: randomized
 * set/reset, range popcounts and next-set-bit walks in the LRR
 * rotation order the fetch/issue scans use, at sizes on and around
 * the word boundaries up to the 1024-warp capacity.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/warp_bitset.hpp"

namespace gex {
namespace {

/** Indices set in @p ref, in rotation order from @p start. */
std::vector<int>
rotationRef(const std::vector<bool> &ref, int start)
{
    const int n = static_cast<int>(ref.size());
    std::vector<int> out;
    for (int k = 0; k < n; ++k) {
        const int i = (start + k) % n;
        if (ref[static_cast<std::size_t>(i)])
            out.push_back(i);
    }
    return out;
}

/** The same walk through findNextIn over [start, n) then [0, start). */
std::vector<int>
rotationBits(const WarpBitset &b, int n, int start)
{
    auto word = [&](int wi) { return b.word(wi); };
    std::vector<int> out;
    for (auto [lo, hi] : {std::pair{start, n}, std::pair{0, start}})
        for (int i = WarpBitset::findNextIn(lo, hi, word); i < hi;
             i = WarpBitset::findNextIn(i + 1, hi, word))
            out.push_back(i);
    return out;
}

class WarpBitsetVsReference : public ::testing::TestWithParam<int>
{
};

TEST_P(WarpBitsetVsReference, MatchesVectorBool)
{
    const int n = GetParam();
    std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 7919u);
    auto uniform = [&](int lo, int hi) { // [lo, hi]
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    WarpBitset bits;
    std::vector<bool> ref(static_cast<std::size_t>(n), false);
    for (int round = 0; round < 200; ++round) {
        // Mutate at a per-round density so walks see sparse, dense,
        // empty and full masks.
        const int density = uniform(0, 100);
        for (int k = 0; k < 1 + n / 4; ++k) {
            const int i = uniform(0, n - 1);
            const bool on = uniform(0, 99) < density;
            if (on)
                bits.set(i);
            else
                bits.reset(i);
            ref[static_cast<std::size_t>(i)] = on;
        }
        for (int i = 0; i < n; ++i)
            ASSERT_EQ(bits.test(i), ref[static_cast<std::size_t>(i)]) << i;

        const int start = uniform(0, n - 1);
        ASSERT_EQ(rotationBits(bits, n, start), rotationRef(ref, start))
            << "n=" << n << " start=" << start;

        for (int q = 0; q < 20; ++q) {
            int lo = uniform(0, n);
            int hi = uniform(0, n);
            if (lo > hi)
                std::swap(lo, hi);
            int want = 0;
            int first = hi;
            for (int i = hi - 1; i >= lo; --i)
                if (ref[static_cast<std::size_t>(i)]) {
                    ++want;
                    first = i;
                }
            ASSERT_EQ(bits.count(lo, hi), want)
                << "n=" << n << " [" << lo << ", " << hi << ")";
            ASSERT_EQ(WarpBitset::findNextIn(
                          lo, hi, [&](int wi) { return bits.word(wi); }),
                      first)
                << "n=" << n << " [" << lo << ", " << hi << ")";
        }

        // A word-wise combination (the issue scan's candidate mask):
        // the first clear bit of @p bits at or after a random index.
        const int from = uniform(0, n);
        int want = n;
        for (int i = from; i < n; ++i)
            if (!ref[static_cast<std::size_t>(i)]) {
                want = i;
                break;
            }
        ASSERT_EQ(WarpBitset::findNextIn(
                      from, n, [&](int wi) { return ~bits.word(wi); }),
                  want)
            << "n=" << n << " from=" << from;
    }
    bits.clear();
    EXPECT_EQ(bits.count(0, n), 0);
    EXPECT_EQ(rotationBits(bits, n, 0), std::vector<int>{});
}

INSTANTIATE_TEST_SUITE_P(Sizes, WarpBitsetVsReference,
                         ::testing::Values(1, 63, 64, 65, 128, 1024));

} // namespace
} // namespace gex
