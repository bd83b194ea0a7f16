/**
 * @file
 * Small shared utilities: integer math helpers, diagnostics, and string
 * formatting used across the ScaleHLS reproduction.
 */

#ifndef SCALEHLS_SUPPORT_UTILS_H
#define SCALEHLS_SUPPORT_UTILS_H

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace scalehls {

/** Error thrown for user-facing failures (bad input program, illegal pass
 * parameters). Mirrors the fatal()/panic() split of simulator codebases:
 * FatalError is the user's fault, assert is ours. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Raise a FatalError with the given message. */
[[noreturn]] void fatal(const std::string &msg);

/** Ceiling division for non-negative integers. */
constexpr int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/** Floor division that is correct for negative numerators. */
constexpr int64_t
floorDiv(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        --q;
    return q;
}

/** Euclidean-style modulo with a non-negative result for positive modulus. */
constexpr int64_t
euclidMod(int64_t a, int64_t b)
{
    int64_t r = a % b;
    if (r < 0)
        r += (b < 0) ? -b : b;
    return r;
}

/** The positive divisors of n that are <= bound, in ascending order
 * (empty for n <= 0). Runs in O(min(bound, sqrt(n))). */
std::vector<int64_t> divisorsUpTo(int64_t n, int64_t bound);

/** Round n up to the next power of two (n >= 1). */
int64_t nextPow2(int64_t n);

/** True if n is a power of two. */
constexpr bool
isPow2(int64_t n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

/** Join the elements of a container with a separator using operator<<. */
template <typename Container>
std::string
join(const Container &c, const std::string &sep)
{
    std::ostringstream os;
    bool first = true;
    for (const auto &v : c) {
        if (!first)
            os << sep;
        os << v;
        first = false;
    }
    return os.str();
}

} // namespace scalehls

#endif // SCALEHLS_SUPPORT_UTILS_H
