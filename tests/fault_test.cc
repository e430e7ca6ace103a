/**
 * @file
 * Tests for the deterministic fault-injection registry: the
 * NOREBA_FAULTS grammar (trigger, count, 'x*', multi-clause plans),
 * per-site hit counting, the I/O shim's errno mapping, kind
 * degradation at non-I/O sites, fatal rejection of malformed plans
 * and of unknown sites, and that every site in FAULT_SITES is reached
 * by a cold sweep (so no listed site can be armed vacuously).
 */

#include <cerrno>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/fault.h"
#include "sim/sweep.h"

using namespace noreba;

namespace {

/** Disarm the process-global registry on scope exit, pass or fail. */
struct FaultGuard
{
    ~FaultGuard() { FaultRegistry::instance().disarm(); }
};

TEST(FaultRegistry, UnarmedSitesNeverFire)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.disarm();
    EXPECT_FALSE(reg.armed());
    EXPECT_FALSE(reg.onHit("trace_store.read").fire);
    int err = 0;
    EXPECT_FALSE(ioFaultAt("trace_store.read", &err));
    EXPECT_EQ(err, 0);
}

TEST(FaultRegistry, DefaultClauseFiresOnFirstHitOnly)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("sweep.job=throw");
    EXPECT_TRUE(reg.armed());
    FaultAction first = reg.onHit("sweep.job");
    EXPECT_TRUE(first.fire);
    EXPECT_EQ(first.kind, FaultKind::Throw);
    EXPECT_FALSE(reg.onHit("sweep.job").fire);
    EXPECT_EQ(reg.hitCount("sweep.job"), 2u);
}

TEST(FaultRegistry, TriggerAndCountSelectAHitWindow)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("sweep.job=throw@3x2");
    EXPECT_FALSE(reg.onHit("sweep.job").fire); // hit 1
    EXPECT_FALSE(reg.onHit("sweep.job").fire); // hit 2
    EXPECT_TRUE(reg.onHit("sweep.job").fire);  // hit 3
    EXPECT_TRUE(reg.onHit("sweep.job").fire);  // hit 4
    EXPECT_FALSE(reg.onHit("sweep.job").fire); // hit 5
    EXPECT_EQ(reg.hitCount("sweep.job"), 5u);
}

TEST(FaultRegistry, StarCountFiresForever)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("sweep.job=eio@2x*");
    EXPECT_FALSE(reg.onHit("sweep.job").fire);
    for (int i = 0; i < 10; ++i) {
        FaultAction a = reg.onHit("sweep.job");
        EXPECT_TRUE(a.fire);
        EXPECT_EQ(a.kind, FaultKind::Eio);
    }
}

TEST(FaultRegistry, ClausesAndHitCountsArePerSite)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("sweep.job=throw;result_cache.sim=delay@2");
    EXPECT_TRUE(reg.onHit("sweep.job").fire);
    // result_cache.sim counts its own hits, apart from sweep.job's.
    EXPECT_FALSE(reg.onHit("result_cache.sim").fire);
    FaultAction b = reg.onHit("result_cache.sim");
    EXPECT_TRUE(b.fire);
    EXPECT_EQ(b.kind, FaultKind::Delay);
    EXPECT_FALSE(reg.onHit("bundle_cache.build").fire);
    EXPECT_EQ(reg.hitCount("sweep.job"), 1u);
    EXPECT_EQ(reg.hitCount("result_cache.sim"), 2u);
    EXPECT_EQ(reg.hitCount("bundle_cache.build"), 1u);
}

TEST(FaultRegistry, DisarmResetsHitCounters)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("sweep.job=throw@2");
    EXPECT_FALSE(reg.onHit("sweep.job").fire);
    reg.disarm();
    EXPECT_EQ(reg.hitCount("sweep.job"), 0u);
    // Re-arming starts counting from scratch: the trigger is exact.
    reg.arm("sweep.job=throw@2");
    EXPECT_FALSE(reg.onHit("sweep.job").fire);
    EXPECT_TRUE(reg.onHit("sweep.job").fire);
}

TEST(FaultRegistry, ExecuteThrowsInjectedFaultNamingTheSite)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("sweep.job=throw");
    try {
        NOREBA_FAULT_SITE("sweep.job");
        FAIL() << "expected InjectedFault";
    } catch (const InjectedFault &e) {
        EXPECT_EQ(e.site(), std::string("sweep.job"));
        EXPECT_NE(std::string(e.what()).find("sweep.job"),
                  std::string::npos);
    }
    // The clause is spent: the site is now a no-op.
    NOREBA_FAULT_SITE("sweep.job");
}

TEST(FaultRegistry, IoKindsDegradeToThrowAtNonIoSites)
{
    FaultGuard guard;
    FaultRegistry::instance().arm("sweep.job=short-write");
    EXPECT_THROW(NOREBA_FAULT_SITE("sweep.job"), InjectedFault);
}

TEST(IoFaultAt, MapsKindsToErrno)
{
    FaultGuard guard;
    FaultRegistry &reg = FaultRegistry::instance();
    reg.arm("trace_store.write=eio");
    int err = 0;
    EXPECT_TRUE(ioFaultAt("trace_store.write", &err));
    EXPECT_EQ(err, EIO);
    EXPECT_FALSE(ioFaultAt("trace_store.write", &err)); // clause spent

    reg.arm("trace_store.write=short-write");
    err = 0;
    EXPECT_TRUE(ioFaultAt("trace_store.write", &err));
    EXPECT_EQ(err, ENOSPC);
}

TEST(IoFaultAt, ThrowClausesExecuteInPlace)
{
    FaultGuard guard;
    FaultRegistry::instance().arm("trace_store.write=throw");
    int err = 0;
    EXPECT_THROW(ioFaultAt("trace_store.write", &err), InjectedFault);
    EXPECT_EQ(err, 0);
}

TEST(IoFaultAt, DelayClausesReturnFalse)
{
    FaultGuard guard;
    FaultRegistry::instance().arm("trace_store.write=delay");
    int err = 0;
    // The sleep happens in place; the I/O proceeds normally after.
    EXPECT_FALSE(ioFaultAt("trace_store.write", &err));
    EXPECT_EQ(err, 0);
}

TEST(FaultRegistryDeath, MalformedPlansAreFatal)
{
    EXPECT_EXIT(FaultRegistry::instance().arm("nokind"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
    EXPECT_EXIT(FaultRegistry::instance().arm("sweep.job=frobnicate"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
    EXPECT_EXIT(FaultRegistry::instance().arm("sweep.job=throw@zero"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
    EXPECT_EXIT(FaultRegistry::instance().arm("sweep.job=throw@0"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
    EXPECT_EXIT(FaultRegistry::instance().arm("sweep.job=throwx2y"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
    EXPECT_EXIT(FaultRegistry::instance().arm("=throw"),
                ::testing::ExitedWithCode(1), "NOREBA_FAULTS");
}

TEST(FaultRegistryDeath, UnknownSitesAreFatal)
{
    // A typo'd or renamed site could never fire; the plan must not
    // turn into a run that passes without testing anything.
    EXPECT_EXIT(FaultRegistry::instance().arm("trace_store.wrte=eio"),
                ::testing::ExitedWithCode(1), "unknown fault site");
    EXPECT_EXIT(
        FaultRegistry::instance().arm("sweep.job=throw;no.such.site=eio"),
        ::testing::ExitedWithCode(1), "unknown fault site");
}

/** A mkdtemp'd store directory exported as @p var, removed on exit. */
struct TempStoreDir
{
    TempStoreDir(const char *var) : var(var)
    {
        char tmpl[] = "noreba_fault_test_XXXXXX";
        const char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made ? made : "";
        setenv(var, path.c_str(), 1);
    }

    ~TempStoreDir()
    {
        unsetenv(var);
        const std::string cmd = "rm -rf '" + path + "'";
        if (!path.empty() && std::system(cmd.c_str()) != 0)
            ADD_FAILURE() << "cleanup of " << path << " failed";
    }

    const char *var;
    std::string path;
};

TEST(FaultRegistry, EveryListedSiteIsReachedByAColdSweep)
{
    TempStoreDir traces("NOREBA_TRACE_DIR");
    TempStoreDir results("NOREBA_RESULT_DIR");
    FaultGuard guard;
    // Arm every site with a trigger no run reaches: nothing fires, but
    // each hit is counted.
    std::string plan;
    for (const char *site : FAULT_SITES)
        plan += std::string(site) + "=throw@1000000000;";
    FaultRegistry::instance().arm(plan);

    TraceOptions opts;
    opts.maxDynInsts = 2000;
    BundleCache bundles;
    ResultCache cache;
    const std::vector<SweepResult> out =
        SweepRunner(1, &bundles, &cache)
            .run({SweepJob{"CRC32", skylakeConfig(), opts}});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].ok);
    for (const char *site : FAULT_SITES)
        EXPECT_GT(FaultRegistry::instance().hitCount(site), 0u) << site;
}

} // namespace
