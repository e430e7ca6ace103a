/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own building
 * blocks: predictor, caches, DCPT, the compiler analyses, the
 * functional interpreter (construction and run), the pipeline-state
 * index and the cycle-level core. These measure
 * simulator throughput (how fast the reproduction itself runs), which
 * bounds how much evaluation the figure benches can afford.
 */

#include <benchmark/benchmark.h>

#include "compiler/branch_dep.h"
#include "interp/interpreter.h"
#include "ir/dominance.h"
#include "sim/runner.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/pipeline_index.h"
#include "uarch/prefetcher.h"
#include "workloads/workloads.h"

using namespace noreba;

namespace {

const TraceBundle &
mcfBundle()
{
    static TraceBundle bundle = [] {
        TraceOptions opts;
        opts.maxDynInsts = 60000;
        return prepareTrace("mcf", opts);
    }();
    return bundle;
}

void
BM_TagePredictor(benchmark::State &state)
{
    const TraceBundle &b = mcfBundle();
    for (auto _ : state) {
        TagePredictor tage;
        uint64_t misp = 0;
        for (const auto &rec : b.trace.records) {
            if (!rec.isCondBr())
                continue;
            misp += tage.predict(rec.pc) != rec.taken;
            tage.update(rec.pc, rec.taken);
        }
        benchmark::DoNotOptimize(misp);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(b.trace.branches));
}
BENCHMARK(BM_TagePredictor);

void
BM_CacheHierarchy(benchmark::State &state)
{
    const TraceBundle &b = mcfBundle();
    for (auto _ : state) {
        CoreConfig cfg = skylakeConfig();
        MemoryHierarchy mem(cfg);
        int64_t total = 0;
        for (const auto &rec : b.trace.records)
            if (rec.memSize)
                total += mem.access(rec.addrOrImm, isStore(rec.op));
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(b.trace.loads + b.trace.stores));
}
BENCHMARK(BM_CacheHierarchy);

void
BM_DcptPrefetcher(benchmark::State &state)
{
    const TraceBundle &b = mcfBundle();
    for (auto _ : state) {
        CoreConfig cfg = skylakeConfig();
        MemoryHierarchy mem(cfg);
        DcptPrefetcher dcpt;
        for (const auto &rec : b.trace.records)
            if (isLoad(rec.op))
                dcpt.observe(rec.pc, rec.addrOrImm, mem);
        benchmark::DoNotOptimize(dcpt.issued());
    }
}
BENCHMARK(BM_DcptPrefetcher);

void
BM_CompilerPass(benchmark::State &state)
{
    for (auto _ : state) {
        Program prog = buildWorkload("mcf");
        PassResult res = runBranchDependencePass(prog);
        benchmark::DoNotOptimize(res.numMarkedBranches);
    }
}
BENCHMARK(BM_CompilerPass);

void
BM_PostDominators(benchmark::State &state)
{
    Program prog = buildWorkload("gcc");
    prog.function().computeCFG();
    for (auto _ : state) {
        DominatorTree pdom(prog.function(),
                           DominatorTree::Kind::PostDominators);
        benchmark::DoNotOptimize(pdom.idom(0));
    }
}
BENCHMARK(BM_PostDominators);

void
BM_Interpreter(benchmark::State &state)
{
    Program prog = buildWorkload("sha");
    for (auto _ : state) {
        Interpreter interp(prog);
        InterpOptions opts;
        opts.maxDynInsts = 50000;
        DynamicTrace t = interp.run(opts);
        benchmark::DoNotOptimize(t.dynInsts);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * 50000);
}
BENCHMARK(BM_Interpreter);

void
BM_InterpreterConstruct(benchmark::State &state)
{
    // Every registry program's data segments copied into a fresh
    // memory image, as each trace preparation does once.
    static const std::vector<Program> progs = [] {
        std::vector<Program> v;
        for (const std::string &name : workloadNames())
            v.push_back(buildWorkload(name));
        return v;
    }();
    int64_t bytes = 0;
    for (const Program &prog : progs)
        for (const DataSegment &seg : prog.dataSegments())
            bytes += static_cast<int64_t>(seg.bytes.size());
    for (auto _ : state) {
        for (const Program &prog : progs) {
            Interpreter interp(prog);
            benchmark::DoNotOptimize(interp.memory().numPages());
        }
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            bytes);
}
BENCHMARK(BM_InterpreterConstruct);

void
BM_PipelineIndexChurn(benchmark::State &state)
{
    // The index traffic of an in-order window over the mcf trace:
    // dispatch every record, and once the window is full resolve,
    // commit and free the oldest, querying the commit barriers as the
    // commit stage does.
    const TraceBundle &b = mcfBundle();
    const TraceView trace = b.view();
    const size_t n = trace.size();
    constexpr size_t WINDOW = 224;
    std::vector<InFlight> slots(WINDOW);
    for (auto _ : state) {
        PipelineIndex index(n);
        Cycle now = 0;
        for (size_t i = 0; i < n + WINDOW; ++i) {
            InFlight &p = slots[i % WINDOW];
            if (i >= WINDOW) {
                benchmark::DoNotOptimize(index.oldestUnresolvedBranch());
                benchmark::DoNotOptimize(index.oldestUncheckedMem(now));
                if (p.isBranch)
                    index.onResolve(&p);
                index.onCommit(&p);
                index.onFree(&p);
            }
            if (i >= n)
                continue;
            p.idx = static_cast<TraceIdx>(i);
            p.rec = &trace[i];
            p.isBranch = p.rec->isCondBr();
            index.onDispatch(&p);
            if (isMem(p.rec->op)) {
                p.tlbDoneAt = ++now;
                index.onTlbCheck(&p);
            }
        }
        benchmark::DoNotOptimize(index.frontierSize());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_PipelineIndexChurn);

void
BM_CoreInOrder(benchmark::State &state)
{
    const TraceBundle &b = mcfBundle();
    for (auto _ : state) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = CommitMode::InOrder;
        CoreStats s = simulate(cfg, b);
        benchmark::DoNotOptimize(s.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(b.trace.dynInsts));
}
BENCHMARK(BM_CoreInOrder);

void
BM_CoreNoreba(benchmark::State &state)
{
    const TraceBundle &b = mcfBundle();
    for (auto _ : state) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = CommitMode::Noreba;
        CoreStats s = simulate(cfg, b);
        benchmark::DoNotOptimize(s.cycles);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(b.trace.dynInsts));
}
BENCHMARK(BM_CoreNoreba);

} // namespace

BENCHMARK_MAIN();
