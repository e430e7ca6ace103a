/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own building
 * blocks: predictor, caches, DCPT, the compiler analyses, the
 * functional interpreter (construction and run), the pipeline-state
 * index, the completion-event wheel, the ring-buffer FIFO and the
 * cycle-level core. These measure
 * simulator throughput (how fast the reproduction itself runs), which
 * bounds how much evaluation the figure benches can afford.
 */

#include <benchmark/benchmark.h>

#include "common/ring_queue.h"
#include "compiler/branch_dep.h"
#include "interp/interpreter.h"
#include "ir/dominance.h"
#include "sim/runner.h"
#include "uarch/branch_predictor.h"
#include "uarch/cache.h"
#include "uarch/completion_wheel.h"
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
BM_CompletionEvents(benchmark::State &state)
{
    // The core's completion traffic: up to four issues a cycle, mostly
    // short latencies with a tail of cache and DRAM misses (a few past
    // the wheel's horizon), every due event drained at writeback.
    constexpr int CYCLES = 100000;
    std::vector<uint32_t> latency(4096);
    uint64_t x = 88172645463325252ull;
    for (uint32_t &l : latency) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint32_t r = static_cast<uint32_t>(x % 100);
        l = r < 70 ? 1 + r % 4 : r < 95 ? 12 + r % 30 : 236 + r * 3;
    }
    int64_t events = 0;
    for (auto _ : state) {
        CompletionWheel<uint32_t> wheel(512);
        CompletionWheel<uint32_t>::Event e;
        uint64_t seq = 0;
        size_t li = 0;
        for (uint64_t now = 0; now < CYCLES; ++now) {
            while (wheel.popDue(now, e))
                benchmark::DoNotOptimize(e.payload);
            for (int i = 0; i < 4; ++i, ++seq, ++events) {
                wheel.push(now + latency[li], seq,
                           static_cast<uint32_t>(seq));
                li = (li + 1) & (latency.size() - 1);
            }
        }
    }
    state.SetItemsProcessed(events);
}
BENCHMARK(BM_CompletionEvents);

void
BM_RingQueueChurn(benchmark::State &state)
{
    // ROB-shaped FIFO traffic: four pushes and up to four pops a cycle
    // around a 224-entry window, with a squash (tail truncation) every
    // few hundred cycles.
    constexpr int CYCLES = 100000;
    std::vector<InFlight> slots(256);
    int64_t ops = 0;
    for (auto _ : state) {
        RingQueue<InFlight *> rob;
        size_t next = 0;
        for (int c = 0; c < CYCLES; ++c) {
            for (int i = 0; i < 4 && rob.size() < 224; ++i, ++ops)
                rob.push_back(&slots[next++ & 255]);
            for (int i = 0; i < 3 && !rob.empty(); ++i, ++ops)
                rob.pop_front();
            if (c % 300 == 299) {
                for (int i = 0; i < 40 && !rob.empty(); ++i, ++ops)
                    rob.pop_back();
            }
        }
        benchmark::DoNotOptimize(rob.size());
    }
    state.SetItemsProcessed(ops);
}
BENCHMARK(BM_RingQueueChurn);

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
