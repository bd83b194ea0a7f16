#include "support/utils.h"

#include <algorithm>

namespace scalehls {

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

std::vector<int64_t>
divisorsUpTo(int64_t n, int64_t bound)
{
    std::vector<int64_t> divs;
    if (n <= 0)
        return divs;
    // Every divisor above sqrt(n) is the cofactor of one below it, so
    // the scan stops at min(bound, sqrt(n)): a huge trip count with a
    // small bound costs `bound` steps, not sqrt(trip).
    for (int64_t d = 1; d <= bound && d <= n / d; ++d) {
        if (n % d != 0)
            continue;
        divs.push_back(d);
        int64_t cofactor = n / d;
        if (cofactor != d && cofactor <= bound)
            divs.push_back(cofactor);
    }
    std::sort(divs.begin(), divs.end());
    return divs;
}

int64_t
nextPow2(int64_t n)
{
    int64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace scalehls
