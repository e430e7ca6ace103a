/**
 * @file
 * Core configuration, mirroring Table 2 (system configuration) and
 * Table 3 (baseline microarchitectures) of the paper, plus the commit
 * mode selector for the policies compared in Figures 1 and 6.
 */

#ifndef NOREBA_UARCH_CONFIG_H
#define NOREBA_UARCH_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace noreba {

/** Commit-policy selector (Section 6.1). */
enum class CommitMode
{
    InOrder,          //!< conventional in-order commit (InO-C)
    NonSpecOoO,       //!< Bell & Lipasti conditions, collapsing ROB
    Noreba,           //!< Selective ROB + compiler guards (this paper)
    IdealReconv,      //!< compiler guards, ideal ROB, no queue limits
    SpeculativeBR,    //!< oracle: branch condition dropped, no penalty
    SpeculativeFull,  //!< oracle: commit anything completed (Figure 1)
    ValidationBuffer, //!< Petit et al. epochs (paper Table 4 baseline)
};

const char *commitModeName(CommitMode mode);

/** One cache level. */
struct CacheConfig
{
    int sizeBytes = 32 * 1024;
    int ways = 8;
    int lineBytes = 64;
    int latency = 4; //!< total hit latency in cycles
};

/** Selective ROB parameters (Table 2). */
struct SelectiveRobConfig
{
    int numBrCqs = 2;     //!< number of Branch Commit Queues
    int brCqEntries = 8;  //!< entries per BR-CQ
    int prCqEntries = 8;  //!< Primary Commit Queue entries
    int bitEntries = 8;   //!< Branch ID Table entries
    int cqtEntries = 8;   //!< Commit Queue Table entries
    int citEntries = 128; //!< Committed Instructions Table entries

    /**
     * Require dynamic instances of one static branch to retire in
     * order. The paper's single-BranchID marking binds dependents to
     * the *latest* instance only; without this ordering a younger
     * instance can retire (and release its dependents) while an older
     * instance of the same site is still unresolved — an unsoundness
     * the paper does not discuss (found by the dynamic safety checker,
     * tests/safety_checker_test.cc). Disable to model the paper's
     * Table 1 exactly; EXPERIMENTS.md quantifies the cost.
     */
    bool enforceInstanceOrder = true;
};

/** Full core + memory configuration. */
struct CoreConfig
{
    std::string name = "SKL";

    /** @name Pipeline widths and depths @{ */
    int fetchWidth = 4;
    int decodeWidth = 4;
    int dispatchWidth = 4;
    int issueWidth = 4;
    int commitWidth = 4;
    int steerWidth = 4;      //!< ROB' head steering bandwidth (Noreba)
    int ifqEntries = 32;     //!< instruction fetch queue
    int fetchToDecode = 3;   //!< front-end depth before decode
    int decodeToDispatch = 2;
    int redirectPenalty = 2; //!< extra cycles to redirect after resolve
    /** @} */

    /** @name Window resources (Table 3) @{ */
    int robEntries = 224;
    int iqEntries = 68;
    int lqEntries = 72;
    int sqEntries = 56;
    int rfEntries = 168; //!< physical registers available for renaming
    /** @} */

    /** @name Functional units @{ */
    int numIntAlu = 4;
    int numIntMul = 1;
    int numIntDiv = 1;
    int numFpAlu = 2;
    int numFpMul = 2;
    int numFpDiv = 1;
    int numLoadPorts = 2;
    int numStorePorts = 1;
    int numBranchUnits = 2;
    /** @} */

    /** @name Memory hierarchy (Table 2) @{ */
    CacheConfig l1i{32 * 1024, 8, 64, 4};
    CacheConfig l1d{32 * 1024, 8, 64, 4};
    CacheConfig l2{256 * 1024, 8, 64, 12};
    CacheConfig l3{1024 * 1024, 16, 64, 36};
    int dramLatency = 200;
    int tlbEntries = 1536; //!< STLB-class reach (Skylake ~1.5K entries)
    int tlbMissPenalty = 30;
    bool prefetcher = true; //!< DCPT at the L1D (Table 2)
    /** @} */

    /** @name Commit subsystem @{ */
    CommitMode commitMode = CommitMode::InOrder;
    SelectiveRobConfig srob;
    bool earlyCommitLoads = false; //!< ECL (Section 6.1.5)
    /** @} */

    /** @name Instrumentation @{ */
    bool attributeStalls = false; //!< per-branch ROB-stall stats (Fig 7)
    /** Re-derive every PipelineIndex answer from a naive ROB scan each
     *  cycle and panic on divergence (differential testing only). */
    bool shadowIndexCheck = false;
    /** Re-derive every wakeup-scheduler answer — ready-queue contents
     *  and order, per-entry pending-source counts, the pending store
     *  address-gen list, the SQ address index and each load's
     *  blocked/forwarding verdict — from the naive IQ/SQ scans each
     *  cycle and panic on divergence (differential testing only). */
    bool shadowSchedulerCheck = false;
    /** Record pipeline events into an in-core EventLog ring. Emission
     *  never touches CoreStats, so enabling this leaves every counter
     *  bit-identical. Compiled out entirely under NOREBA_NO_EVENT_TRACE
     *  (CMake -DNOREBA_EVENT_TRACE=OFF). */
    bool eventTrace = false;
    /** Ring capacity (retained events) when eventTrace is on. */
    size_t eventTraceCapacity = 1u << 16;
    /** @} */
};

/**
 * Declarative CoreConfig field table — the single source of truth for
 * canonical serialization, the config fingerprint, and the per-field
 * tests. Each entry names one scalar field by its dotted path (which
 * is also the member access on a CoreConfig), tagged by type:
 * S = std::string, I = int, B = bool, U = size_t, M = CommitMode.
 *
 * Adding a field to CoreConfig means adding it here (and, when it
 * changes simulation results, bumping RESULT_STORE_MODEL_VERSION in
 * sim/result_store.h). The sizeof tripwire in config.cc catches fields
 * silently left out; tests/result_store_test.cc additionally asserts
 * that mutating any listed field changes the fingerprint.
 */
#define NOREBA_CORE_CONFIG_FIELDS(S, I, B, U, M)                          \
    S(name)                                                               \
    I(fetchWidth)                                                         \
    I(decodeWidth)                                                        \
    I(dispatchWidth)                                                      \
    I(issueWidth)                                                         \
    I(commitWidth)                                                        \
    I(steerWidth)                                                         \
    I(ifqEntries)                                                         \
    I(fetchToDecode)                                                      \
    I(decodeToDispatch)                                                   \
    I(redirectPenalty)                                                    \
    I(robEntries)                                                         \
    I(iqEntries)                                                          \
    I(lqEntries)                                                          \
    I(sqEntries)                                                          \
    I(rfEntries)                                                          \
    I(numIntAlu)                                                          \
    I(numIntMul)                                                          \
    I(numIntDiv)                                                          \
    I(numFpAlu)                                                           \
    I(numFpMul)                                                           \
    I(numFpDiv)                                                           \
    I(numLoadPorts)                                                       \
    I(numStorePorts)                                                      \
    I(numBranchUnits)                                                     \
    I(l1i.sizeBytes)                                                      \
    I(l1i.ways)                                                           \
    I(l1i.lineBytes)                                                      \
    I(l1i.latency)                                                        \
    I(l1d.sizeBytes)                                                      \
    I(l1d.ways)                                                           \
    I(l1d.lineBytes)                                                      \
    I(l1d.latency)                                                        \
    I(l2.sizeBytes)                                                       \
    I(l2.ways)                                                            \
    I(l2.lineBytes)                                                       \
    I(l2.latency)                                                         \
    I(l3.sizeBytes)                                                       \
    I(l3.ways)                                                            \
    I(l3.lineBytes)                                                       \
    I(l3.latency)                                                         \
    I(dramLatency)                                                        \
    I(tlbEntries)                                                         \
    I(tlbMissPenalty)                                                     \
    B(prefetcher)                                                         \
    M(commitMode)                                                         \
    I(srob.numBrCqs)                                                      \
    I(srob.brCqEntries)                                                   \
    I(srob.prCqEntries)                                                   \
    I(srob.bitEntries)                                                    \
    I(srob.cqtEntries)                                                    \
    I(srob.citEntries)                                                    \
    B(srob.enforceInstanceOrder)                                          \
    B(earlyCommitLoads)                                                   \
    B(attributeStalls)                                                    \
    B(shadowIndexCheck)                                                   \
    B(shadowSchedulerCheck)                                               \
    B(eventTrace)                                                         \
    U(eventTraceCapacity)

/**
 * One CoreConfig field bound to a live struct, for generic
 * serialization, parsing, and per-field mutation in tests. Exactly the
 * pointer matching `kind` is non-null.
 */
struct ConfigFieldRef
{
    const char *name; //!< dotted path, e.g. "srob.numBrCqs"
    enum class Kind { Str, Int, Bool, U64, Mode } kind;
    std::string *str = nullptr;
    int *i = nullptr;
    bool *b = nullptr;
    size_t *u = nullptr;
    CommitMode *mode = nullptr;
};

/** Every field of @p cfg, in NOREBA_CORE_CONFIG_FIELDS order. */
std::vector<ConfigFieldRef> configFieldRefs(CoreConfig &cfg);

/**
 * Canonical serialization: one `path=value` line per field, in table
 * order. Deterministic and locale-independent, so equal configs
 * serialize to equal strings on every platform — the content half of
 * the result store's content-addressed key.
 */
std::string serializeConfig(const CoreConfig &cfg);

/**
 * Parse a canonical serialization. Strict: every field must appear
 * exactly once, in any order, with nothing unknown; returns false
 * (leaving @p out unspecified) otherwise.
 */
bool deserializeConfig(const std::string &text, CoreConfig &out);

/** FNV-1a fingerprint of serializeConfig(cfg). */
uint64_t configFingerprint(const CoreConfig &cfg);

/** Reverse of commitModeName(); false on an unknown name. */
bool commitModeFromName(const std::string &name, CommitMode &out);

/** Skylake-like core (Table 3: ROB 224, IQ 68, LQ/SQ 72/56, RF 168). */
CoreConfig skylakeConfig();
/** Haswell-like core (ROB 192, IQ 60, LQ/SQ 72/42, RF 128). */
CoreConfig haswellConfig();
/** Nehalem-like core (ROB 128, IQ 56, LQ/SQ 48/36, RF 64). */
CoreConfig nehalemConfig();

/** Lookup by name: "SKL", "HSW", "NHM". */
CoreConfig configByName(const std::string &name);

} // namespace noreba

#endif // NOREBA_UARCH_CONFIG_H
