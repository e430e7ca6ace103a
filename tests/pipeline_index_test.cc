/**
 * @file
 * Differential tests for the incrementally maintained pipeline-state
 * indices (uarch/pipeline_index.h) and the intrusive list they build
 * on. The shadow mode (CoreConfig::shadowIndexCheck) re-derives every
 * index answer from a naive scan of the master ROB each cycle and
 * panics on the first divergence; these tests drive it through all
 * seven commit modes, the full workload registry, and randomized
 * high-misprediction programs whose squash storms stress the rollback
 * path. Every shadowed run must also produce bit-identical CoreStats
 * to its unshadowed twin (observation must not perturb).
 */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "common/intrusive_list.h"
#include "uarch/pipeline_index.h"
#include "test_util.h"

namespace noreba {
namespace {

using testutil::Prepared;
using testutil::prepare;

/** @name IntrusiveList unit tests @{ */

struct Node
{
    Node *prev = nullptr;
    Node *next = nullptr;
    bool linked = false;
    int v = 0;
};

using List = IntrusiveList<Node, &Node::prev, &Node::next, &Node::linked>;

TEST(IntrusiveList, PushBackKeepsOrder)
{
    Node n[4];
    List l;
    EXPECT_TRUE(l.empty());
    for (int i = 0; i < 4; ++i) {
        n[i].v = i;
        l.pushBack(&n[i]);
    }
    EXPECT_EQ(l.size(), 4u);
    int want = 0;
    for (Node *p = l.head(); p; p = List::next(p))
        EXPECT_EQ(p->v, want++);
    EXPECT_EQ(want, 4);
    EXPECT_EQ(l.tail()->v, 3);
}

TEST(IntrusiveList, EraseMiddleHeadTail)
{
    Node n[5];
    List l;
    for (auto &node : n)
        l.pushBack(&node);

    l.erase(&n[2]); // middle
    EXPECT_FALSE(List::linked(&n[2]));
    EXPECT_EQ(List::next(&n[1]), &n[3]);
    EXPECT_EQ(List::prev(&n[3]), &n[1]);

    l.erase(&n[0]); // head
    EXPECT_EQ(l.head(), &n[1]);
    EXPECT_EQ(List::prev(&n[1]), nullptr);

    l.erase(&n[4]); // tail
    EXPECT_EQ(l.tail(), &n[3]);
    EXPECT_EQ(l.size(), 2u);

    // Erased nodes can be re-linked (the frontier does this on
    // re-dispatch after a squash).
    l.pushBack(&n[2]);
    EXPECT_EQ(l.tail(), &n[2]);
    EXPECT_EQ(l.size(), 3u);
}

TEST(IntrusiveList, ClearUnlinksAll)
{
    Node n[3];
    List l;
    for (auto &node : n)
        l.pushBack(&node);
    l.clear();
    EXPECT_TRUE(l.empty());
    EXPECT_EQ(l.head(), nullptr);
    EXPECT_EQ(l.tail(), nullptr);
    for (auto &node : n)
        EXPECT_FALSE(List::linked(&node));
}
/** @} */

constexpr CommitMode ALL_MODES[] = {
    CommitMode::InOrder,       CommitMode::NonSpecOoO,
    CommitMode::Noreba,        CommitMode::IdealReconv,
    CommitMode::SpeculativeBR, CommitMode::SpeculativeFull,
    CommitMode::ValidationBuffer,
};

/** Every counter equal, field by field (via the declarative table). */
void
expectStatsEqual(const CoreStats &a, const CoreStats &b,
                 const std::string &label)
{
    for (const CoreStatsField &f : CORE_STATS_FIELDS) {
        if (f.counter)
            EXPECT_EQ(a.*f.counter, b.*f.counter)
                << label << ": " << f.name;
    }
}

/**
 * Run one prepared trace with and without the shadow check. The
 * shadowed run panics (aborting the test) on any index divergence; the
 * pair must otherwise be bit-identical.
 */
CoreStats
runShadowPair(const Prepared &p, CommitMode mode, CoreConfig cfg,
              const std::string &label)
{
    cfg.commitMode = mode;
    cfg.shadowIndexCheck = false;
    Core plain(cfg, p.trace, p.misp);
    CoreStats base = plain.run();

    cfg.shadowIndexCheck = true;
    Core shadowed(cfg, p.trace, p.misp);
    CoreStats shadow = shadowed.run();

    expectStatsEqual(base, shadow,
                     label + "/" + commitModeName(mode));
    return base;
}

/**
 * A randomized squash-storm program: a loop with three ~50%-taken
 * data-dependent branches per iteration (hash-indexed loads from a
 * random table), a branch-guarded store, and a rare FENCE, so every
 * pipeline event the index tracks — dispatch, resolve, TLB check,
 * commit, squash, free — fires constantly under heavy misprediction.
 */
Program
stormProgram(uint64_t seed, int64_t iters)
{
    Program prog("storm" + std::to_string(seed));
    Rng rng(seed);
    const int64_t tableLen = 1 << 12;
    uint64_t table = prog.allocGlobal(tableLen * 8);
    for (int64_t i = 0; i < tableLen; ++i)
        prog.poke64(table + static_cast<uint64_t>(i) * 8, rng.next());

    IRBuilder b(prog);
    int entry = b.newBlock("entry");
    int loop = b.newBlock("loop");
    int a1 = b.newBlock("a1");
    int j1 = b.newBlock("j1");
    int a2 = b.newBlock("a2");
    int j2 = b.newBlock("j2");
    int a3 = b.newBlock("a3");
    int j3 = b.newBlock("j3");
    int fb = b.newBlock("fence");
    int next = b.newBlock("next");
    int exit = b.newBlock("exit");
    const AliasRegion R = 1;

    b.at(entry)
        .li(S2, static_cast<int64_t>(table))
        .li(S3, 0)
        .li(S4, iters)
        .li(S5, 0)
        .li(S7, tableLen - 1)
        .li(S8, 0x9e3779b9)
        .fallthrough(loop);
    b.at(loop)
        .mul(T0, S3, S8)
        .srli(T0, T0, 11)
        .and_(T0, T0, S7)
        .slli(T0, T0, 3)
        .add(T0, S2, T0)
        .ld(T1, T0, 0, R)
        .andi(T2, T1, 1)
        .beq(T2, ZERO, a1, j1); // ~50% data-dependent branch
    b.at(a1).add(S5, S5, T1).jump(j1);
    b.at(j1).andi(T2, T1, 2).bne(T2, ZERO, a2, j2); // ~50%
    b.at(a2).sd(S5, T0, 0, R).jump(j2); // branch-guarded store
    b.at(j2).andi(T2, T1, 4).beq(T2, ZERO, a3, j3); // ~50%
    b.at(a3).ld(T3, T0, 0, R).add(S5, S5, T3).jump(j3);
    b.at(j3).andi(T2, T1, 255).beq(T2, ZERO, fb, next);
    b.at(fb).fence().jump(next); // rare (~1/256) memory barrier
    b.at(next).addi(S3, S3, 1).blt(S3, S4, loop, exit);
    b.at(exit).halt();
    prog.finalize();
    runBranchDependencePass(prog);
    return prog;
}

/** @name PipelineIndex unit tests @{ */

/** An in-flight instruction for `rec` at trace position `idx`. */
InFlight
inflightAt(TraceIdx idx, const TraceRecord &rec)
{
    InFlight p;
    p.idx = idx;
    p.rec = &rec;
    p.isBranch = rec.isCondBr();
    return p;
}

TEST(PipelineIndex, StaleFreeKeepsRedispatchedSlot)
{
    TraceRecord add;
    add.op = Opcode::ADD;
    PipelineIndex index(8);
    InFlight first = inflightAt(3, add);
    index.onDispatch(&first);
    EXPECT_EQ(index.findInFlight(3), &first);
    index.onSquash(2);
    // The re-fetched instance dispatches before the squashed slot is
    // recycled; freeing the stale incarnation must leave it mapped.
    InFlight second = inflightAt(3, add);
    index.onDispatch(&second);
    index.onFree(&first);
    EXPECT_EQ(index.findInFlight(3), &second);
    index.onCommit(&second);
    index.onFree(&second);
    EXPECT_EQ(index.findInFlight(3), nullptr);
}

TEST(PipelineIndex, FindInFlightPastTheTraceEndIsNull)
{
    TraceRecord add;
    add.op = Opcode::ADD;
    PipelineIndex index(4);
    InFlight last = inflightAt(3, add);
    index.onDispatch(&last);
    EXPECT_EQ(index.findInFlight(3), &last);
    EXPECT_EQ(index.findInFlight(4), nullptr);
    EXPECT_EQ(index.findInFlight(INT32_MAX), nullptr);
    EXPECT_EQ(index.findInFlight(TRACE_NONE), nullptr);
}

TEST(PipelineIndexDeathTest, OutOfOrderDispatchPanics)
{
    TraceRecord ld;
    ld.op = Opcode::LW;
    PipelineIndex index(8);
    InFlight young = inflightAt(5, ld);
    InFlight old = inflightAt(4, ld);
    index.onDispatch(&young);
    EXPECT_DEATH(index.onDispatch(&old), "ascending index");
}

TEST(AscendingIndexDeathTest, RepeatedInsertPanics)
{
    AscendingIndex<int> index;
    index.push(7, 0);
    EXPECT_DEATH(index.push(7, 0), "ascending index");
}

TEST(AscendingIndex, MatchesAnOrderedSetUnderRandomChurn)
{
    // Dispatch-like appends, middle erases (tombstones), and squash-
    // like suffix drops, against std::map as the reference.
    std::mt19937 rng(5);
    AscendingIndex<int> index;
    std::map<TraceIdx, int> ref;
    TraceIdx next = 0;
    for (int step = 0; step < 20000; ++step) {
        int op = static_cast<int>(rng() % 10);
        if (op < 5) {
            next += 1 + static_cast<TraceIdx>(rng() % 3);
            index.push(next, next * 2);
            ref.emplace(next, next * 2);
        } else if (op < 9 && next > 0) {
            TraceIdx victim = static_cast<TraceIdx>(rng() % (next + 1));
            EXPECT_EQ(index.erase(victim), ref.erase(victim) == 1);
        } else if (next > 0) {
            TraceIdx after = next - static_cast<TraceIdx>(rng() % 8);
            std::vector<TraceIdx> dropped;
            index.truncateAfter(after, [&](const auto &e) {
                dropped.push_back(e.idx);
            });
            std::vector<TraceIdx> expectDropped;
            while (!ref.empty() && ref.rbegin()->first > after) {
                expectDropped.push_back(ref.rbegin()->first);
                ref.erase(std::prev(ref.end()));
            }
            EXPECT_EQ(dropped, expectDropped);
            next = after; // fetch restarts after the squash point
        }
        ASSERT_EQ(index.size(), ref.size());
        ASSERT_EQ(index.oldest(TRACE_NONE),
                  ref.empty() ? TRACE_NONE : ref.begin()->first);
        TraceIdx probe = static_cast<TraceIdx>(rng() % (next + 2));
        auto it = ref.lower_bound(probe);
        ASSERT_EQ(index.youngestBefore(probe),
                  it == ref.begin() ? TRACE_NONE : std::prev(it)->first);
        const auto *e = index.find(probe);
        ASSERT_EQ(e != nullptr, ref.count(probe) == 1);
        if (e) {
            ASSERT_EQ(e->value, ref.at(probe));
        }
    }
    std::vector<TraceIdx> live;
    index.forEach([&](const auto &e) { live.push_back(e.idx); });
    std::vector<TraceIdx> expectLive;
    for (const auto &kv : ref)
        expectLive.push_back(kv.first);
    EXPECT_EQ(live, expectLive);
}

/** @} */

/** A small window magnifies squash/reclaim edge interleavings. */
CoreConfig
tinyConfig()
{
    CoreConfig cfg = skylakeConfig();
    cfg.name = "tiny";
    cfg.robEntries = 32;
    cfg.iqEntries = 16;
    cfg.lqEntries = 12;
    cfg.sqEntries = 10;
    cfg.rfEntries = 48;
    cfg.srob.numBrCqs = 2;
    cfg.srob.brCqEntries = 8;
    cfg.srob.prCqEntries = 16;
    cfg.srob.citEntries = 8;
    cfg.srob.cqtEntries = 8;
    return cfg;
}

TEST(PipelineIndexShadow, WorkloadRegistryAllModes)
{
    TraceOptions opts;
    opts.maxDynInsts = 6000;
    for (const std::string &name : workloadNames()) {
        TraceBundle bundle = prepareTrace(name, opts);
        for (CommitMode mode : ALL_MODES) {
            CoreConfig cfg = skylakeConfig();
            cfg.commitMode = mode;
            cfg.shadowIndexCheck = false;
            Core plain(cfg, bundle.view(), bundle.misp);
            CoreStats base = plain.run();

            cfg.shadowIndexCheck = true;
            Core shadowed(cfg, bundle.view(), bundle.misp);
            CoreStats shadow = shadowed.run();

            expectStatsEqual(base, shadow,
                             name + "/" + commitModeName(mode));
        }
    }
}

TEST(PipelineIndexShadow, IdealReconvCandidateIndexOverRegistry)
{
    // IdealReconv commits from a candidate index instead of walking the
    // frontier; under shadowIndexCheck every cycle's commits are
    // compared with the walk's. Cover the registry under each window
    // and commit-condition variant the policy is run with.
    TraceOptions opts;
    opts.maxDynInsts = 6000;
    std::vector<std::pair<std::string, CoreConfig>> variants;
    variants.emplace_back("default", skylakeConfig());
    CoreConfig ecl = skylakeConfig();
    ecl.earlyCommitLoads = true;
    variants.emplace_back("ecl", ecl);
    variants.emplace_back("tiny", tinyConfig());
    CoreConfig unordered = skylakeConfig();
    unordered.srob.enforceInstanceOrder = false;
    variants.emplace_back("no-instance-order", unordered);
    for (const std::string &name : workloadNames()) {
        TraceBundle bundle = prepareTrace(name, opts);
        Prepared p{std::move(bundle.trace), std::move(bundle.misp)};
        for (const auto &[label, cfg] : variants)
            runShadowPair(p, CommitMode::IdealReconv, cfg,
                          name + "/" + label);
    }
}

TEST(PipelineIndexShadow, SquashStormsAllModes)
{
    for (uint64_t seed : {11u, 23u}) {
        Program prog = stormProgram(seed, 1100);
        Prepared p = prepare(prog, 60000);
        for (CommitMode mode : ALL_MODES) {
            std::string label = "storm" + std::to_string(seed);
            CoreStats s = runShadowPair(p, mode, skylakeConfig(), label);
            // The storm must actually storm, or this test has no
            // teeth: ~50%-taken data-dependent branches should squash
            // hundreds of times in 1100 iterations.
            EXPECT_GT(s.squashes, 100u) << label;
            runShadowPair(p, mode, tinyConfig(), label + "/tiny");
        }
    }
}

TEST(PipelineIndexShadow, EarlyCommitLoadZombies)
{
    // ECL retires loads before their data returns, so committed-
    // incomplete zombies cross squashes — the nastiest case for the
    // frontier and the unchecked-memory index.
    Program prog = stormProgram(7, 900);
    Prepared p = prepare(prog, 50000);
    for (CommitMode mode : ALL_MODES) {
        CoreConfig cfg = skylakeConfig();
        cfg.earlyCommitLoads = true;
        runShadowPair(p, mode, cfg, "ecl");
        CoreConfig tiny = tinyConfig();
        tiny.earlyCommitLoads = true;
        tiny.attributeStalls = true;
        runShadowPair(p, mode, tiny, "ecl/tiny");
    }
}

TEST(PipelineIndexShadow, DelinquentLoopMatchesOracle)
{
    // The canonical NOREBA workload: deep unresolved-branch chains with
    // real guard annotations from the compiler pass.
    Program prog = testutil::delinquentLoop(800);
    Prepared p = prepare(prog);
    for (CommitMode mode : ALL_MODES)
        runShadowPair(p, mode, skylakeConfig(), "delinquent");
}

} // namespace
} // namespace noreba
