/**
 * @file
 * SystemConfig::validate() rejection paths and their wiring into the
 * System constructor.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "src/core/system.hh"

using namespace na;

namespace {

core::SystemConfig
goodConfig()
{
    core::SystemConfig cfg;
    cfg.numConnections = 2;
    return cfg;
}

TEST(ConfigValidate, AcceptsDefaultAndPaperConfigs)
{
    EXPECT_NO_THROW(core::SystemConfig{}.validate());
    core::SystemConfig cfg = goodConfig();
    cfg.platform.numCpus = 8;
    cfg.faults.toPeer.lossProb = 1.0;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, RejectsNonPositiveConnectionCount)
{
    core::SystemConfig cfg = goodConfig();
    cfg.numConnections = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg.numConnections = -3;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(ConfigValidate, RejectsCpuCountOutsideModelRange)
{
    core::SystemConfig cfg = goodConfig();
    cfg.platform.numCpus = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg.platform.numCpus = 9;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(ConfigValidate, RejectsLossProbabilityOutsideUnitInterval)
{
    // Loss comes only from the fault plan; both directions are checked.
    core::SystemConfig cfg = goodConfig();
    cfg.faults.toPeer.lossProb = -0.1;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg.faults.toPeer.lossProb = 1.5;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg.faults.toPeer.lossProb = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = goodConfig();
    cfg.faults.toSut.lossProb = 1.5;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(ConfigValidate, RejectsZeroMessageSize)
{
    core::SystemConfig cfg = goodConfig();
    cfg.ttcp().msgSize = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(ConfigValidate, ErrorMessagesNameTheField)
{
    core::SystemConfig cfg = goodConfig();
    cfg.faults.toSut.lossProb = 1.5;
    try {
        cfg.validate();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("faults.toSut.lossProb"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ConfigValidate, RejectsQueueCpusOutsideInstalledRange)
{
    core::SystemConfig cfg = goodConfig();
    cfg.platform.numCpus = 2;
    cfg.steering.kind = net::SteeringKind::Rss;
    cfg.steering.numQueues = 2;
    cfg.steering.queueCpus = {0, 2}; // CPU 2 does not exist
    try {
        cfg.validate();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("queueCpus[1]"),
                  std::string::npos)
            << e.what();
    }
    cfg.steering.queueCpus = {0, -1};
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg.steering.queueCpus = {0, 1};
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, RejectsPinCpusOutsideInstalledRange)
{
    core::SystemConfig cfg = goodConfig();
    cfg.platform.numCpus = 2;
    cfg.steering.pinCpus = {1, 5}; // CPU 5 does not exist
    try {
        cfg.validate();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("pinCpus[1]"),
                  std::string::npos)
            << e.what();
    }
    cfg.steering.pinCpus = {1, 0};
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, RejectsMalformedSteeringShapes)
{
    // The paper policy is single-queue by definition.
    core::SystemConfig cfg = goodConfig();
    cfg.steering.numQueues = 2;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    // Queue count must fit the CPU model's vector budget.
    cfg = goodConfig();
    cfg.steering.kind = net::SteeringKind::Rss;
    cfg.steering.numQueues = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg.steering.numQueues = 9;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    // Indirection table is masked, so it must be a power of two.
    cfg = goodConfig();
    cfg.steering.kind = net::SteeringKind::Rss;
    cfg.steering.rssTableSize = 48;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg.steering.rssTableSize = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    // Partial queue->CPU maps are rejected rather than guessed at.
    cfg = goodConfig();
    cfg.platform.numCpus = 4;
    cfg.steering.kind = net::SteeringKind::Rss;
    cfg.steering.numQueues = 4;
    cfg.steering.queueCpus = {0, 1};
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = goodConfig();
    cfg.steering.kind = net::SteeringKind::FlowDirector;
    cfg.steering.flowTableSize = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

/** Expect validate() to throw with @p field in the message. */
void
expectRejectsNaming(const core::SystemConfig &cfg, const char *field)
{
    try {
        cfg.validate();
        ADD_FAILURE() << "expected std::runtime_error naming " << field;
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

TEST(ConfigValidate, RejectsOrderingClearProbOutsideUnitInterval)
{
    for (double bad : {-0.01, 1.01,
                       std::numeric_limits<double>::quiet_NaN()}) {
        core::SystemConfig cfg = goodConfig();
        cfg.platform.orderingClearProb = bad;
        expectRejectsNaming(cfg, "orderingClearProb");
    }
    for (double ok : {0.0, 1.0}) {
        core::SystemConfig cfg = goodConfig();
        cfg.platform.orderingClearProb = ok;
        EXPECT_NO_THROW(cfg.validate());
    }
}

TEST(ConfigValidate, SystemConstructorRejectsBadConfig)
{
    core::SystemConfig cfg = goodConfig();
    cfg.numConnections = 0;
    EXPECT_THROW(core::System{cfg}, std::runtime_error);
}

TEST(ConfigValidate, SystemConstructorRejectsBadPlatformWithoutExiting)
{
    // A CPU count outside the model would reach the kernel's fatal
    // exit; a bad clear probability would skew every charge.
    core::SystemConfig cfg = goodConfig();
    cfg.platform.numCpus = 9;
    EXPECT_THROW(core::System{cfg}, std::runtime_error);
    cfg = goodConfig();
    cfg.platform.orderingClearProb = 1.5;
    EXPECT_THROW(core::System{cfg}, std::runtime_error);
}

TEST(ConfigValidate, SystemConstructorAcceptsGoodConfig)
{
    EXPECT_NO_THROW(core::System{goodConfig()});
}

} // namespace
