/**
 * @file
 * Death-free negative tests for EngineOptions::validate and
 * RouterOptions::validate: every knob combination the engine cannot
 * honour must come back as a descriptive error STRING from validate()
 * — callers can refuse configurations up front instead of tripping a
 * deep CHECK-abort inside KvCache or the scheduler. The front end
 * (ShardedFrontEnd) calls the same validators at construction, so
 * these strings are exactly what a misconfigured deployment reports.
 */

#include <gtest/gtest.h>

#include <string>

#include "model/transformer.h"
#include "serve/router.h"
#include "serve/serving_engine.h"

namespace mxplus {
namespace {

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

TEST(EngineOptionsValidate, GoodDefaultsPass)
{
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    EXPECT_EQ(opts.validate(qc), "");

    // A realistic serving configuration passes too.
    opts.max_batch = 4;
    opts.kv_budget_tokens = 4096;
    opts.prefix_cache_tokens = 1024;
    opts.over_admission = 1.5;
    opts.aging_rate = 0.25;
    opts.step_time_ms = 1.0;
    EXPECT_EQ(opts.validate(qc), "");
}

TEST(EngineOptionsValidate, ZeroBatchIsDescriptive)
{
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.max_batch = 0;
    EXPECT_TRUE(contains(opts.validate(qc), "max_batch"));
}

TEST(EngineOptionsValidate, MissingAttentionQuantizerIsDescriptive)
{
    QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    qc.attention.reset();
    const EngineOptions opts;
    EXPECT_TRUE(contains(opts.validate(qc), "attention"));
}

TEST(EngineOptionsValidate, UnderUnityOverAdmissionIsDescriptive)
{
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.over_admission = 0.5;
    const std::string err = opts.validate(qc);
    EXPECT_TRUE(contains(err, "over_admission"));
    EXPECT_TRUE(contains(err, "0.5")); // names the offending value
}

TEST(EngineOptionsValidate, MisalignedPageTokensIsDescriptive)
{
    // The deep CHECK this replaces lives in KvCache: a page must hold
    // a whole number of quantizer blocks or paging stops being
    // bit-invisible. validate() reports it with both numbers.
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    const size_t period = qc.attention->blockPeriod();
    ASSERT_GT(period, 0u);
    EngineOptions opts;
    opts.page_tokens = 2 * period + 1;
    const std::string err = opts.validate(qc);
    EXPECT_TRUE(contains(err, "page_tokens"));
    EXPECT_TRUE(contains(err, "multiple"));
    EXPECT_TRUE(contains(err, std::to_string(period)));

    opts.page_tokens = 2 * period; // aligned: fine
    EXPECT_EQ(opts.validate(qc), "");
}

TEST(EngineOptionsValidate, NegativeRatesAreDescriptive)
{
    const QuantConfig qc = QuantConfig::fromFormat("MXFP4+");
    EngineOptions opts;
    opts.aging_rate = -1.0;
    EXPECT_TRUE(contains(opts.validate(qc), "aging_rate"));
    opts.aging_rate = 0.0;
    opts.step_time_ms = -0.5;
    EXPECT_TRUE(contains(opts.validate(qc), "step_time_ms"));
}

TEST(RouterOptionsValidate, GoodDefaultsPass)
{
    RouterOptions router;
    EXPECT_EQ(router.validate(), "");
    router.num_shards = 8;
    router.spill_threshold = 4.0;
    router.policy = RoutePolicy::kRoundRobin;
    router.fault.p_force_preempt = 0.1;
    EXPECT_EQ(router.validate(), "");
}

TEST(RouterOptionsValidate, ZeroShardsIsDescriptive)
{
    RouterOptions router;
    router.num_shards = 0;
    EXPECT_TRUE(contains(router.validate(), "num_shards"));
}

TEST(RouterOptionsValidate, UnderUnitySpillThresholdIsDescriptive)
{
    RouterOptions router;
    router.spill_threshold = 0.25;
    const std::string err = router.validate();
    EXPECT_TRUE(contains(err, "spill_threshold"));
    EXPECT_TRUE(contains(err, "0.25"));
}

TEST(RouterOptionsValidate, OutOfRangeFaultProbabilityIsDescriptive)
{
    RouterOptions router;
    router.fault.p_corrupt_page = 1.5;
    EXPECT_TRUE(contains(router.validate(), "probabilities"));
    router.fault.p_corrupt_page = 0.0;
    router.fault.p_clock_skew = 0.5;
    router.fault.skew_ms_max = 0.0;
    EXPECT_TRUE(contains(router.validate(), "skew_ms_max"));
    // The shard-level sites validate through the same probability net.
    router.fault.skew_ms_max = 32.0;
    router.fault.p_clock_skew = 0.0;
    router.fault.p_shard_wedge = -0.1;
    EXPECT_TRUE(contains(router.validate(), "probabilities"));
    router.fault.p_shard_wedge = 0.0;
    router.fault.p_shard_slow = 1.0;
    router.fault.slow_sleep_ms = -1.0;
    EXPECT_TRUE(contains(router.validate(), "slow_sleep_ms"));
}

TEST(RouterOptionsValidate, HealthKnobsAreDescriptive)
{
    RouterOptions router;
    router.heartbeat_timeout_ms = -1.0;
    EXPECT_TRUE(contains(router.validate(), "heartbeat_timeout_ms"));

    // Degraded must classify strictly before dead.
    router.heartbeat_timeout_ms = 50.0;
    router.degraded_after_ms = 50.0;
    EXPECT_TRUE(contains(router.validate(),
                         "degraded_after_ms must be < "
                         "heartbeat_timeout_ms"));
    router.degraded_after_ms = 10.0;
    EXPECT_EQ(router.validate(), "");

    router.degraded_load_penalty = 0.5;
    EXPECT_TRUE(contains(router.validate(), "degraded_load_penalty"));
    router.degraded_load_penalty = 4.0;

    // A supervisor thread without a detector is a misconfiguration,
    // not a silent no-op.
    router.heartbeat_timeout_ms = 0.0;
    router.degraded_after_ms = 0.0;
    router.health_tick_ms = 5.0;
    EXPECT_TRUE(contains(router.validate(),
                         "health_tick_ms requires heartbeat_timeout_ms"));
    router.health_tick_ms = 0.0;

    router.submit_timeout_ms = -2.0;
    EXPECT_TRUE(contains(router.validate(), "submit_timeout_ms"));
}

} // namespace
} // namespace mxplus
