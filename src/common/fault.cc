#include "common/fault.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/error.h"
#include "common/logging.h"

namespace noreba {

namespace {

bool
parseKind(const std::string &text, FaultKind &out)
{
    if (text == "throw")
        out = FaultKind::Throw;
    else if (text == "short-write")
        out = FaultKind::ShortWrite;
    else if (text == "eio")
        out = FaultKind::Eio;
    else if (text == "delay")
        out = FaultKind::Delay;
    else
        return false;
    return true;
}

const char *
kindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Throw:      return "throw";
      case FaultKind::ShortWrite: return "short-write";
      case FaultKind::Eio:        return "eio";
      case FaultKind::Delay:      return "delay";
    }
    return "?";
}

/** A positive decimal integer occupying all of @p text. */
bool
parseCount(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9' || v > (UINT64_MAX - 9) / 10)
            return false;
        v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    if (v == 0)
        return false;
    out = v;
    return true;
}

} // namespace

FaultRegistry &
FaultRegistry::instance()
{
    static FaultRegistry registry;
    return registry;
}

FaultRegistry::FaultRegistry()
{
    const char *env = std::getenv("NOREBA_FAULTS");
    if (env && *env)
        arm(env);
}

void
FaultRegistry::arm(const std::string &plan)
{
    std::vector<Clause> clauses;
    size_t pos = 0;
    while (pos <= plan.size()) {
        size_t semi = plan.find(';', pos);
        if (semi == std::string::npos)
            semi = plan.size();
        const std::string text = plan.substr(pos, semi - pos);
        pos = semi + 1;
        if (text.empty())
            continue;

        const size_t eq = text.find('=');
        fatal_if(eq == std::string::npos || eq == 0,
                 "NOREBA_FAULTS clause \"%s\" is not site=kind[@trigger]"
                 "[xcount]", text.c_str());
        Clause clause;
        clause.site = text.substr(0, eq);
        fatal_if(std::find(std::begin(FAULT_SITES), std::end(FAULT_SITES),
                           clause.site) == std::end(FAULT_SITES),
                 "NOREBA_FAULTS clause \"%s\": unknown fault site \"%s\"",
                 text.c_str(), clause.site.c_str());

        std::string rest = text.substr(eq + 1);
        // Strip the optional 'x' count suffix first, then '@' trigger,
        // so 'kind@TxC' parses either way round of the two suffixes.
        const size_t x = rest.rfind('x');
        if (x != std::string::npos && x > 0 &&
            (rest.substr(x + 1) == "*" ||
             parseCount(rest.substr(x + 1), clause.count))) {
            clause.forever = rest.substr(x + 1) == "*";
            rest = rest.substr(0, x);
        }
        const size_t at = rest.find('@');
        if (at != std::string::npos) {
            fatal_if(!parseCount(rest.substr(at + 1), clause.trigger),
                     "NOREBA_FAULTS clause \"%s\": trigger \"%s\" is not "
                     "a positive integer", text.c_str(),
                     rest.substr(at + 1).c_str());
            rest = rest.substr(0, at);
        }
        fatal_if(!parseKind(rest, clause.kind),
                 "NOREBA_FAULTS clause \"%s\": unknown fault kind \"%s\" "
                 "(throw, short-write, eio, delay)",
                 text.c_str(), rest.c_str());
        clauses.push_back(std::move(clause));
    }

    std::lock_guard<std::mutex> lock(mutex_);
    clauses_ = std::move(clauses);
    hits_.clear();
    armed_.store(!clauses_.empty(), std::memory_order_release);
}

void
FaultRegistry::disarm()
{
    std::lock_guard<std::mutex> lock(mutex_);
    clauses_.clear();
    hits_.clear();
    armed_.store(false, std::memory_order_release);
}

FaultAction
FaultRegistry::onHit(const char *site)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (clauses_.empty())
        return {};
    const uint64_t hit = ++hits_[site];
    for (const Clause &clause : clauses_) {
        if (clause.site != site || hit < clause.trigger)
            continue;
        if (clause.forever || hit < clause.trigger + clause.count)
            return FaultAction{true, clause.kind};
    }
    return {};
}

uint64_t
FaultRegistry::hitCount(const std::string &site) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = hits_.find(site);
    return it == hits_.end() ? 0 : it->second;
}

void
FaultRegistry::execute(const char *site, const FaultAction &action)
{
    if (!action.fire)
        return;
    if (action.kind == FaultKind::Delay) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return;
    }
    // Throw — and the I/O kinds at a site that cannot simulate them,
    // so no armed clause is silently inert.
    throw InjectedFault(site, strfmt("injected %s fault at %s",
                                     kindName(action.kind), site));
}

bool
ioFaultAt(const char *site, int *errnoOut)
{
    FaultRegistry &registry = FaultRegistry::instance();
    if (!registry.armed())
        return false;
    const FaultAction action = registry.onHit(site);
    if (!action.fire)
        return false;
    if (action.kind == FaultKind::Eio) {
        *errnoOut = EIO;
        return true;
    }
    if (action.kind == FaultKind::ShortWrite) {
        *errnoOut = ENOSPC;
        return true;
    }
    FaultRegistry::execute(site, action);
    return false;
}

} // namespace noreba
