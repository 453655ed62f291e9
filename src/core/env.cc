#include "src/core/env.hh"

#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "src/sim/logging.hh"

namespace na::core::env {

const char *
raw(const char *name)
{
    return std::getenv(name);
}

std::optional<std::string>
str(const char *name)
{
    if (const char *v = raw(name))
        return std::string(v);
    return std::nullopt;
}

void
badNumber(const char *what, const char *text, bool integral,
          bool overflow)
{
    const char *kind = integral ? "an integer" : "a number";
    if (overflow) {
        throw std::runtime_error(
            sim::format("%s='%s' overflows %s", what, text, kind));
    }
    throw std::runtime_error(sim::format(
        "%s='%s' is not %s (no whitespace, no trailing junk)", what,
        text, kind));
}

std::optional<long long>
intValue(const char *name)
{
    if (const char *v = raw(name))
        return number<long long>(name, v);
    return std::nullopt;
}

bool
flag(const char *name)
{
    const char *v = raw(name);
    return v && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

} // namespace na::core::env
