/**
 * @file
 * Parallel DSE scaling: points evaluated per second at 1, 2, 4 and
 * hardware_concurrency QoR workers, plus the determinism guarantee (the
 * Pareto frontier of an N-thread run is bit-identical to the 1-thread
 * run at the same seed). Emits a human-readable table and one JSON line
 * per configuration for tools/run_benches.sh.
 */

#include <chrono>
#include <cstdio>
#include <set>

#include "common.h"

using namespace scalehls;

namespace {

struct RunResult
{
    unsigned threads = 1;
    size_t evaluations = 0;
    size_t materializations = 0;
    double seconds = 0;
    std::vector<EvaluatedPoint> frontier;
};

RunResult
runAtThreads(Operation *module, unsigned threads)
{
    DesignSpaceOptions space_options;
    space_options.maxTileSize = 16;
    space_options.maxTotalUnroll = 256;
    DesignSpace space(module, space_options);

    DSEOptions options;
    options.numInitialSamples = 60;
    options.maxIterations = 160;
    options.numThreads = threads;

    DSEEngine engine(space, options);
    auto start = std::chrono::steady_clock::now();
    auto frontier = engine.explore();
    RunResult result;
    result.threads = threads;
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    result.evaluations = engine.numEvaluations();
    result.materializations = engine.stats().materializations;
    result.frontier = std::move(frontier);
    return result;
}

bool
sameFrontier(const std::vector<EvaluatedPoint> &a,
             const std::vector<EvaluatedPoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].point != b[i].point ||
            a[i].qor.latency != b[i].qor.latency ||
            a[i].qor.resources.dsp != b[i].qor.resources.dsp)
            return false;
    return true;
}

} // namespace

int
main()
{
    auto module = parseCToModule(polybenchSource("gemm", 32));
    raiseScfToAffine(module.get());

    unsigned hw = defaultThreadCount();
    std::printf("=== Parallel DSE scaling (GEMM 32, %u hardware "
                "threads) ===\n\n",
                hw);
    std::printf("%-10s %-12s %-14s %-12s %-12s %s\n", "Threads",
                "Evaluations", "Materialized", "Seconds", "Points/s",
                "Deterministic");

    std::vector<unsigned> configs = {1, 2, 4};
    if (hw > 4)
        configs.push_back(hw);

    RunResult reference;
    double base_rate = 0;
    for (unsigned threads : configs) {
        RunResult r = runAtThreads(module.get(), threads);
        bool deterministic = true;
        if (threads == 1) {
            reference = r;
            base_rate = r.evaluations / r.seconds;
        } else {
            deterministic = sameFrontier(reference.frontier, r.frontier);
        }
        double rate = r.evaluations / r.seconds;
        std::printf("%-10u %-12zu %-14zu %-12.3f %-12.1f %s\n", threads,
                    r.evaluations, r.materializations, r.seconds, rate,
                    deterministic ? "yes" : "NO (BUG)");
        std::printf("JSON {\"bench\":\"parallel_dse\",\"threads\":%u,"
                    "\"evaluations\":%zu,\"seconds\":%.4f,"
                    "\"points_per_second\":%.1f,\"speedup\":%.2f,"
                    "\"deterministic\":%s}\n",
                    threads, r.evaluations, r.seconds, rate,
                    base_rate > 0 ? rate / base_rate : 1.0,
                    deterministic ? "true" : "false");
        if (!deterministic)
            return 1;
    }
    return 0;
}
