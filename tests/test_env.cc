/**
 * @file
 * env helper: the single implementation of NA_* knob and numeric-flag
 * parsing, and the strict NA_CAMPAIGN_THREADS handling in
 * Campaign::resolveThreads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "src/core/campaign.hh"
#include "src/core/env.hh"

using namespace na;

namespace {

/** RAII setenv/unsetenv so a failing test cannot leak a knob into the
 *  rest of the suite. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : varName(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(varName); }

  private:
    const char *varName;
};

constexpr const char *var = "NA_TEST_ENV_KNOB";

TEST(Env, StrAbsentAndPresent)
{
    ::unsetenv(var);
    EXPECT_EQ(core::env::raw(var), nullptr);
    EXPECT_FALSE(core::env::str(var).has_value());

    ScopedEnv guard(var, "hello");
    ASSERT_TRUE(core::env::str(var).has_value());
    EXPECT_EQ(*core::env::str(var), "hello");
    EXPECT_STREQ(core::env::raw(var), "hello");
}

TEST(Env, FlagSemantics)
{
    ::unsetenv(var);
    EXPECT_FALSE(core::env::flag(var));
    {
        ScopedEnv guard(var, "");
        EXPECT_FALSE(core::env::flag(var));
    }
    {
        ScopedEnv guard(var, "0");
        EXPECT_FALSE(core::env::flag(var));
    }
    {
        ScopedEnv guard(var, "1");
        EXPECT_TRUE(core::env::flag(var));
    }
    {
        ScopedEnv guard(var, "yes");
        EXPECT_TRUE(core::env::flag(var));
    }
}

TEST(Env, IntValueParsesWholeString)
{
    ::unsetenv(var);
    EXPECT_FALSE(core::env::intValue(var).has_value());
    {
        ScopedEnv guard(var, "42");
        ASSERT_TRUE(core::env::intValue(var).has_value());
        EXPECT_EQ(*core::env::intValue(var), 42);
    }
    {
        // Negative values parse; whether they are *valid* is the
        // caller's policy.
        ScopedEnv guard(var, "-3");
        ASSERT_TRUE(core::env::intValue(var).has_value());
        EXPECT_EQ(*core::env::intValue(var), -3);
    }
}

TEST(Env, IntValueThrowsOnGarbage)
{
    for (const char *bad : {"abc", "4x", "", " 4", "4 ", "0x10",
                            "999999999999999999999999"}) {
        ScopedEnv guard(var, bad);
        EXPECT_THROW((void)core::env::intValue(var),
                     std::runtime_error)
            << "value '" << bad << "' should not parse";
    }
}

TEST(Env, IntValueErrorNamesVariableAndValue)
{
    ScopedEnv guard(var, "4x");
    try {
        (void)core::env::intValue(var);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(var), std::string::npos) << msg;
        EXPECT_NE(msg.find("4x"), std::string::npos) << msg;
    }
}

TEST(Env, NumberParsesWholeStringForEachType)
{
    using core::env::number;
    EXPECT_EQ(number<int>("--conns", "8"), 8);
    EXPECT_EQ(number<int>("--conns", "-2"), -2);
    EXPECT_EQ(number<std::uint32_t>("--size", "4294967295"),
              4294967295u);
    EXPECT_EQ(number<std::uint64_t>("--seed", "18446744073709551615"),
              18446744073709551615ull);
    EXPECT_DOUBLE_EQ(number<double>("--loss", "0.25"), 0.25);
    EXPECT_DOUBLE_EQ(number<double>("--loss", "1e-3"), 1e-3);
    EXPECT_DOUBLE_EQ(number<double>("--loss", "2"), 2.0);
}

TEST(Env, NumberThrowsOnGarbageAndRange)
{
    using core::env::number;
    for (const char *bad : {"x", "", " 4", "4 ", "4x", "+4", "0x10",
                            "2147483648", "1.5"}) {
        EXPECT_THROW((void)number<int>("--threads", bad),
                     std::runtime_error)
            << "int value '" << bad << "' should not parse";
    }
    for (const char *bad : {"-1", "4294967296"}) {
        EXPECT_THROW((void)number<std::uint32_t>("--size", bad),
                     std::runtime_error)
            << "uint32 value '" << bad << "' should not parse";
    }
    for (const char *bad : {"abc", "", "0.5x", " 0.5", "nan", "inf",
                            "1e999"}) {
        EXPECT_THROW((void)number<double>("--loss", bad),
                     std::runtime_error)
            << "double value '" << bad << "' should not parse";
    }
}

TEST(Env, NumberErrorNamesFlagAndText)
{
    try {
        (void)core::env::number<double>("--fault-loss", "0.1x");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--fault-loss"), std::string::npos) << msg;
        EXPECT_NE(msg.find("0.1x"), std::string::npos) << msg;
    }
}

TEST(ResolveThreads, ExplicitRequestWinsOverEnvironment)
{
    ScopedEnv guard("NA_CAMPAIGN_THREADS", "7");
    EXPECT_EQ(core::Campaign::resolveThreads(3), 3);
}

TEST(ResolveThreads, ReadsEnvironmentWhenAuto)
{
    ScopedEnv guard("NA_CAMPAIGN_THREADS", "5");
    EXPECT_EQ(core::Campaign::resolveThreads(0), 5);
}

TEST(ResolveThreads, ExplicitZeroMeansAuto)
{
    ScopedEnv guard("NA_CAMPAIGN_THREADS", "0");
    EXPECT_GE(core::Campaign::resolveThreads(0), 1);
}

TEST(ResolveThreads, RejectsTrailingJunk)
{
    // The old std::atoi path silently read "4x" as 4 and "abc" as 0;
    // both are now hard errors.
    for (const char *bad : {"4x", "abc", ""}) {
        ScopedEnv guard("NA_CAMPAIGN_THREADS", bad);
        EXPECT_THROW((void)core::Campaign::resolveThreads(0),
                     std::runtime_error)
            << "NA_CAMPAIGN_THREADS='" << bad << "'";
    }
}

TEST(ResolveThreads, RejectsNegativeWithClearError)
{
    ScopedEnv guard("NA_CAMPAIGN_THREADS", "-2");
    try {
        (void)core::Campaign::resolveThreads(0);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("NA_CAMPAIGN_THREADS"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("negative"), std::string::npos) << msg;
    }
}

TEST(ResolveThreads, AutoWithoutEnvironmentIsPositive)
{
    ::unsetenv("NA_CAMPAIGN_THREADS");
    EXPECT_GE(core::Campaign::resolveThreads(0), 1);
}

} // namespace
