#include "uarch/config.h"

#include <cerrno>
#include <cstdlib>

#include "common/hash.h"
#include "common/logging.h"

namespace noreba {

const char *
commitModeName(CommitMode mode)
{
    switch (mode) {
      case CommitMode::InOrder: return "InO-C";
      case CommitMode::NonSpecOoO: return "NonSpeculative-OoO-C";
      case CommitMode::Noreba: return "Noreba";
      case CommitMode::IdealReconv: return "Reconvergence-OoO-C";
      case CommitMode::SpeculativeBR: return "SpeculativeBR-OoO-C";
      case CommitMode::SpeculativeFull: return "Speculative-OoO-C";
      case CommitMode::ValidationBuffer: return "ValidationBuffer";
      default: return "?";
    }
}

bool
commitModeFromName(const std::string &name, CommitMode &out)
{
    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::NonSpecOoO, CommitMode::Noreba,
          CommitMode::IdealReconv, CommitMode::SpeculativeBR,
          CommitMode::SpeculativeFull, CommitMode::ValidationBuffer}) {
        if (name == commitModeName(mode)) {
            out = mode;
            return true;
        }
    }
    return false;
}

/**
 * Tripwire for fields silently left out of NOREBA_CORE_CONFIG_FIELDS:
 * adding a member to CoreConfig (or its nested structs) changes its
 * size, failing this assert until the table — and this constant — are
 * updated together. Layout is ABI-specific, so the check only runs on
 * the 64-bit libstdc++ builds CI uses.
 */
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(CoreConfig) ==
                  sizeof(std::string) + 4 * sizeof(CacheConfig) +
                      sizeof(SelectiveRobConfig) + 27 * sizeof(int) +
                      sizeof(CommitMode) + 6 * sizeof(bool) +
                      sizeof(size_t) + /* padding */ 6,
              "CoreConfig changed: update NOREBA_CORE_CONFIG_FIELDS "
              "(uarch/config.h) and this tripwire together");
#endif

std::vector<ConfigFieldRef>
configFieldRefs(CoreConfig &c)
{
    std::vector<ConfigFieldRef> out;
#define NOREBA_CFG_S(f)                                                   \
    out.push_back({#f, ConfigFieldRef::Kind::Str, &c.f, nullptr,          \
                   nullptr, nullptr, nullptr});
#define NOREBA_CFG_I(f)                                                   \
    out.push_back({#f, ConfigFieldRef::Kind::Int, nullptr, &c.f,          \
                   nullptr, nullptr, nullptr});
#define NOREBA_CFG_B(f)                                                   \
    out.push_back({#f, ConfigFieldRef::Kind::Bool, nullptr, nullptr,      \
                   &c.f, nullptr, nullptr});
#define NOREBA_CFG_U(f)                                                   \
    out.push_back({#f, ConfigFieldRef::Kind::U64, nullptr, nullptr,       \
                   nullptr, &c.f, nullptr});
#define NOREBA_CFG_M(f)                                                   \
    out.push_back({#f, ConfigFieldRef::Kind::Mode, nullptr, nullptr,      \
                   nullptr, nullptr, &c.f});
    NOREBA_CORE_CONFIG_FIELDS(NOREBA_CFG_S, NOREBA_CFG_I, NOREBA_CFG_B,
                              NOREBA_CFG_U, NOREBA_CFG_M)
#undef NOREBA_CFG_S
#undef NOREBA_CFG_I
#undef NOREBA_CFG_B
#undef NOREBA_CFG_U
#undef NOREBA_CFG_M
    return out;
}

std::string
serializeConfig(const CoreConfig &cfg)
{
    // The field refs mutate nothing here; the copy keeps the API const.
    CoreConfig copy = cfg;
    std::string out;
    for (const ConfigFieldRef &f : configFieldRefs(copy)) {
        out += f.name;
        out += '=';
        switch (f.kind) {
          case ConfigFieldRef::Kind::Str:
            panic_if(f.str->find('\n') != std::string::npos ||
                         f.str->find('=') != std::string::npos,
                     "config field %s value \"%s\" cannot serialize "
                     "canonically", f.name, f.str->c_str());
            out += *f.str;
            break;
          case ConfigFieldRef::Kind::Int:
            out += std::to_string(*f.i);
            break;
          case ConfigFieldRef::Kind::Bool:
            out += *f.b ? '1' : '0';
            break;
          case ConfigFieldRef::Kind::U64:
            out += std::to_string(static_cast<unsigned long long>(*f.u));
            break;
          case ConfigFieldRef::Kind::Mode:
            out += commitModeName(*f.mode);
            break;
        }
        out += '\n';
    }
    return out;
}

bool
deserializeConfig(const std::string &text, CoreConfig &out)
{
    CoreConfig cfg;
    std::vector<ConfigFieldRef> fields = configFieldRefs(cfg);
    std::vector<bool> seen(fields.size(), false);

    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            return false; // canonical form is newline-terminated
        size_t eq = text.find('=', pos);
        if (eq == std::string::npos || eq > eol)
            return false;
        const std::string key = text.substr(pos, eq - pos);
        const std::string value = text.substr(eq + 1, eol - eq - 1);
        pos = eol + 1;

        size_t idx = fields.size();
        for (size_t i = 0; i < fields.size(); ++i) {
            if (key == fields[i].name) {
                idx = i;
                break;
            }
        }
        if (idx == fields.size() || seen[idx])
            return false;
        seen[idx] = true;

        ConfigFieldRef &f = fields[idx];
        errno = 0;
        char *end = nullptr;
        switch (f.kind) {
          case ConfigFieldRef::Kind::Str:
            *f.str = value;
            break;
          case ConfigFieldRef::Kind::Int: {
            long v = std::strtol(value.c_str(), &end, 10);
            if (errno != 0 || end != value.c_str() + value.size() ||
                value.empty())
                return false;
            *f.i = static_cast<int>(v);
            break;
          }
          case ConfigFieldRef::Kind::Bool:
            if (value == "1")
                *f.b = true;
            else if (value == "0")
                *f.b = false;
            else
                return false;
            break;
          case ConfigFieldRef::Kind::U64: {
            unsigned long long v = std::strtoull(value.c_str(), &end, 10);
            if (errno != 0 || end != value.c_str() + value.size() ||
                value.empty())
                return false;
            *f.u = static_cast<size_t>(v);
            break;
          }
          case ConfigFieldRef::Kind::Mode:
            if (!commitModeFromName(value, *f.mode))
                return false;
            break;
        }
    }
    for (bool s : seen)
        if (!s)
            return false;
    out = cfg;
    return true;
}

uint64_t
configFingerprint(const CoreConfig &cfg)
{
    return fnv1a(serializeConfig(cfg));
}

CoreConfig
skylakeConfig()
{
    CoreConfig cfg;
    cfg.name = "SKL";
    cfg.robEntries = 224;
    cfg.iqEntries = 68;
    cfg.lqEntries = 72;
    cfg.sqEntries = 56;
    cfg.rfEntries = 168;
    return cfg;
}

CoreConfig
haswellConfig()
{
    CoreConfig cfg;
    cfg.name = "HSW";
    cfg.robEntries = 192;
    cfg.iqEntries = 60;
    cfg.lqEntries = 72;
    cfg.sqEntries = 42;
    cfg.rfEntries = 128;
    return cfg;
}

CoreConfig
nehalemConfig()
{
    CoreConfig cfg;
    cfg.name = "NHM";
    cfg.robEntries = 128;
    cfg.iqEntries = 56;
    cfg.lqEntries = 48;
    cfg.sqEntries = 36;
    cfg.rfEntries = 64;
    return cfg;
}

CoreConfig
configByName(const std::string &name)
{
    if (name == "SKL")
        return skylakeConfig();
    if (name == "HSW")
        return haswellConfig();
    if (name == "NHM")
        return nehalemConfig();
    fatal("unknown core config '%s'", name.c_str());
}

} // namespace noreba
