#include "ir/program.h"

#include <cstring>

#include "common/logging.h"

namespace noreba {

Layout::Layout(const Function &fn)
{
    blockBase_.resize(fn.numBlocks());
    uint64_t pc = CODE_BASE;
    for (size_t i = 0; i < fn.numBlocks(); ++i) {
        blockBase_[i] = pc;
        pc += fn.block(static_cast<int>(i)).insts.size() * INST_BYTES;
    }
    codeBytes_ = pc - CODE_BASE;
}

uint64_t
Program::allocGlobal(uint64_t bytes)
{
    uint64_t base = (heapNext_ + 15) & ~15ull;
    heapNext_ = base + bytes;
    DataSegment seg;
    seg.base = base;
    seg.bytes.assign(bytes, 0);
    addSegment(std::move(seg));
    return base;
}

void
Program::addSegment(DataSegment seg)
{
    uint64_t lo = seg.base, hi = lo + seg.bytes.size();
    for (const auto &s : segs_)
        if (lo < s.base + s.bytes.size() && s.base < hi)
            segsDisjoint_ = false;
    segs_.push_back(std::move(seg));
}

void
Program::pokeBytes(uint64_t addr, const void *data, size_t len)
{
    auto contains = [&](const DataSegment &seg) {
        return addr >= seg.base &&
               addr + len <= seg.base + seg.bytes.size();
    };
    // Workloads poke arrays element by element, so the segment that
    // took the last poke almost always takes this one. It is the first
    // segment that contains the range — the one the scan below would
    // pick — only while no two segments overlap.
    size_t hit = segs_.size();
    if (segsDisjoint_ && lastPoke_ < segs_.size() &&
        contains(segs_[lastPoke_])) {
        hit = lastPoke_;
    } else {
        for (size_t i = 0; i < segs_.size(); ++i) {
            if (contains(segs_[i])) {
                hit = i;
                break;
            }
        }
    }
    if (hit < segs_.size()) {
        DataSegment &seg = segs_[hit];
        std::memcpy(seg.bytes.data() + (addr - seg.base), data, len);
        lastPoke_ = hit;
        return;
    }
    // Not inside an existing segment: create a dedicated one.
    DataSegment seg;
    seg.base = addr;
    seg.bytes.resize(len);
    std::memcpy(seg.bytes.data(), data, len);
    addSegment(std::move(seg));
}

void
Program::poke64(uint64_t addr, uint64_t value)
{
    pokeBytes(addr, &value, sizeof(value));
}

void
Program::poke32(uint64_t addr, uint32_t value)
{
    pokeBytes(addr, &value, sizeof(value));
}

void
Program::pokeDouble(uint64_t addr, double value)
{
    pokeBytes(addr, &value, sizeof(value));
}

void
Program::finalize()
{
    fn_.computeCFG();
    std::string err = fn_.verify();
    fatal_if(!err.empty(), "program %s fails verification: %s",
             name_.c_str(), err.c_str());
    layout_ = Layout(fn_);
}

} // namespace noreba
