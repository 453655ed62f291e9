/**
 * @file
 * The libm-free rounding helpers agree with std::floor and std::llround
 * on the non-negative doubles the charge path rounds, and the build does
 * not contract a*b + c into a fused multiply-add.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/sim/random.hh"
#include "src/sim/round.hh"

using namespace na;

namespace {

void
expectMatchesLibm(double x)
{
    EXPECT_EQ(sim::roundHalfUp(x),
              static_cast<std::uint64_t>(std::llround(x)))
        << std::hexfloat << x;
    // Compare bit patterns: both sides are exact, so they must be equal.
    EXPECT_EQ(sim::fracPart(x), x - std::floor(x)) << std::hexfloat << x;
}

TEST(Round, EdgeValuesMatchLibm)
{
    const double two52 = 4503599627370496.0; // 2^52
    const double two53 = 2.0 * two52;
    std::vector<double> xs = {0.0,          0.5,         1.5,
                              2.5,          0.49999999999999994,
                              two52 - 0.5,  two52 + 0.5, two53,
                              two53 - 1.0,  1.0,         1e15 + 0.5};
    // The neighbours of each .5 are where a naive x + 0.5 goes wrong.
    for (double half : {0.5, 1.5, 2.5, 1000.5, 123456789.5}) {
        xs.push_back(std::nextafter(half, 0.0));
        xs.push_back(std::nextafter(half, 1e300));
    }
    for (double x : xs)
        expectMatchesLibm(x);
    EXPECT_EQ(sim::roundHalfUp(0.49999999999999994), 0u);
    EXPECT_EQ(sim::roundHalfUp(2.5), 3u);
    EXPECT_EQ(sim::fracPart(2.5), 0.5);
}

TEST(Round, SeededDoublesMatchLibm)
{
    // 10^6 doubles spread over [0, 2^40): fraction bits vary at every
    // magnitude, so both the truncation and the subtraction are hit.
    sim::Random rng(42);
    const double span = 1099511627776.0; // 2^40
    int mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
        const double x =
            rng.uniform() * std::ldexp(span, -static_cast<int>(i % 41));
        mismatches +=
            sim::roundHalfUp(x) !=
                static_cast<std::uint64_t>(std::llround(x)) ||
            sim::fracPart(x) != x - std::floor(x);
    }
    EXPECT_EQ(mismatches, 0);
}

// The build passes -ffp-contract=off. With a = 1 + 2^-30 and
// b = 1 - 2^-30, a*b = 1 - 2^-60 rounds to 1.0, so a*b + c with c = -1
// is exactly 0; a fused multiply-add keeps the product unrounded and
// gives -2^-60. The volatile inputs keep the compiler from folding it.
TEST(FloatingPoint, MultiplyAddIsNotContracted)
{
    volatile double a = 1.0 + 0x1p-30;
    volatile double b = 1.0 - 0x1p-30;
    volatile double c = -1.0;
    const double r = a * b + c;
    EXPECT_EQ(r, 0.0) << std::hexfloat << r;
}

} // namespace
