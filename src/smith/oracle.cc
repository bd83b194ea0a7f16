#include "smith/oracle.h"

#include <memory>
#include <random>
#include <set>
#include <sstream>

#include "dse/band_plan.h"
#include "dse/evaluator.h"
#include "support/json.h"
#include "support/thread_pool.h"

namespace scalehls {

namespace {

std::string
qorStr(const QoRResult &q)
{
    std::ostringstream os;
    os << "{lat=" << q.latency << " ii=" << q.interval
       << " dsp=" << q.resources.dsp << " lut=" << q.resources.lut
       << " bram=" << q.resources.bram18k
       << " bits=" << q.resources.memoryBits
       << " feasible=" << (q.feasible ? 1 : 0) << "}";
    return os.str();
}

std::string
pointStr(const DesignSpace::Point &point)
{
    std::string out = "[";
    for (size_t i = 0; i < point.size(); ++i)
        out += (i ? "," : "") + std::to_string(point[i]);
    return out + "]";
}

/** The probed point set: canonical seeds, an II-dial variant of the
 * first seed, then seeded random points — deduplicated, order kept. */
std::vector<DesignSpace::Point>
buildPoints(const DesignSpace &space, uint64_t seed, int target)
{
    std::vector<DesignSpace::Point> points = space.canonicalSeedPoints();
    if (!points.empty() && space.numBands() > 0) {
        DesignSpace::Point dial = points.front();
        size_t ii_dim = space.dimTargetII(0);
        dial[ii_dim] = space.dimSizes()[ii_dim] - 1;
        points.push_back(dial);
    }
    std::mt19937 rng(static_cast<uint32_t>(seed ^ (seed >> 32) ^
                                           0x5eedu));
    for (int draws = 0;
         static_cast<int>(points.size()) < target && draws < 8 * target;
         ++draws)
        points.push_back(space.randomPoint(rng));

    std::vector<DesignSpace::Point> unique;
    std::set<DesignSpace::Point> seen;
    for (auto &p : points)
        if (seen.insert(p).second)
            unique.push_back(std::move(p));
    return unique;
}

/** One production run of the differential matrix. */
struct RunSpec
{
    std::string label;
    unsigned threads = 1;
    bool corrupt = false;
};

} // namespace

SmithOracleResult
runSmithOracle(const SmithSample &sample, const SmithOracleConfig &config)
{
    SmithOracleResult result;
    DesignSpace space(sample.module.get(), config.space);
    std::vector<DesignSpace::Point> points =
        buildPoints(space, sample.seed, config.pointsPerSample);
    result.points = points.size();
    if (points.empty())
        return result;

    auto diverge = [&](const std::string &path, const std::string &detail,
                       DesignSpace::Point point = {}) {
        result.divergences.push_back({path, detail, std::move(point)});
    };

    // The uncached sequential reference: no pool, no estimate cache, so
    // every point runs the full materialize-and-estimate pipeline. This
    // is the ground truth the production evaluator must reproduce
    // bit-for-bit.
    std::vector<QoRResult> baseline;
    {
        CachingEvaluator reference(space);
        baseline.reserve(points.size());
        for (const auto &point : points)
            baseline.push_back(reference.evaluate(point));
        result.evaluations += points.size();
    }

    // The production evaluator (plan-first, else the full pipeline) at
    // 1 and N threads, each against a FRESH estimate cache
    // (cross-run reuse would mask per-path bugs behind warm tiers).
    EvaluatorOptions options;
    options.audit = config.audit;
    std::vector<RunSpec> runs = {{"production@1t", 1, config.corruptPlan}};
    std::string at_n = "production@" + std::to_string(config.threads) + "t";
    if (config.threads > 1)
        runs.push_back({at_n, config.threads, false});

    for (const RunSpec &run : runs) {
        EstimateCache cache;
        std::unique_ptr<ThreadPool> pool;
        if (run.threads > 1)
            pool = std::make_unique<ThreadPool>(run.threads);
        CachingEvaluator evaluator(space, pool.get(), &cache, options);

        bool corrupted = false;
        if (run.corrupt) {
            // Poison the PLAN tier for exactly the key the planner will
            // consult on points[0]: a confidently-composable outcome
            // whose digest matches no real band content. The system
            // must CATCH this (digest-mismatch fallback or audit
            // finding) and still answer with the reference QoR.
            BandPlanner planner(space, &cache, options.partitionAwareKeys,
                                options.audit);
            if (planner.enabled()) {
                std::string key = planner.debugPlanKey(points[0], 0);
                if (!key.empty()) {
                    BandPlanOutcome bogus;
                    bogus.materializable = true;
                    bogus.composable = true;
                    bogus.digest = "smith-corrupted-digest";
                    cache.insertPlan(key, bogus);
                    corrupted = true;
                    result.corruptionApplicable = true;
                }
            }
        }

        std::vector<QoRResult> qors = evaluator.evaluateBatch(points);
        result.evaluations += points.size();
        for (size_t i = 0; i < points.size(); ++i)
            if (qors[i] != baseline[i])
                diverge(run.label,
                        "QoR mismatch at point " + pointStr(points[i]) +
                            ": got " + qorStr(qors[i]) + ", reference " +
                            qorStr(baseline[i]),
                        points[i]);

        // Counter invariants (exact): every batch slot is one
        // evaluation, decided by exactly one of the materialization
        // classes or the planner's zero-IR infeasibility proof.
        const DSEStats &stats = evaluator.stats();
        size_t classes = stats.fullMaterializations + stats.planComposed +
                         stats.overlayMaterializations +
                         stats.planInfeasible;
        if (stats.evaluations != points.size() ||
            stats.evaluations != classes)
            diverge("counters@" + run.label,
                    "batch of " + std::to_string(points.size()) +
                        " counted " + std::to_string(stats.evaluations) +
                        " evaluations and " + std::to_string(classes) +
                        " full+planComposed+overlay+planInfeasible");

        if (corrupted) {
            bool caught =
                stats.planMismatches >= 1 || stats.auditViolations >= 1;
            result.corruptionCaught |= caught;
            if (!caught)
                diverge(run.label,
                        "corrupted PLAN entry went undetected "
                        "(no mismatch fallback, no audit finding)",
                        points[0]);
        } else if (stats.auditViolations != 0) {
            diverge("audit@" + run.label,
                    std::to_string(stats.auditViolations) +
                        " audit finding(s) in " +
                        std::to_string(stats.auditChecks) + " checks");
        }

        // Re-probe coherence: evaluating an already-evaluated point
        // again, now against warm cache tiers, must return the
        // identical QoR.
        QoRResult again = evaluator.evaluate(points[0]);
        result.evaluations += 1;
        if (again != baseline[0])
            diverge(run.label,
                    "re-probe returned " + qorStr(again) +
                        ", reference " + qorStr(baseline[0]),
                    points[0]);
    }
    return result;
}

namespace {

std::string
jsonBool(bool value)
{
    return value ? "true" : "false";
}

bool
boolField(const JsonValue &obj, const char *key, bool fallback)
{
    const JsonValue *value = obj.get(key);
    if (!value)
        return fallback;
    if (value->kind == JsonValue::Kind::Bool)
        return value->boolean;
    return value->isNumber() ? value->asInt() != 0 : fallback;
}

int64_t
intField(const JsonValue &obj, const char *key, int64_t fallback)
{
    const JsonValue *value = obj.get(key);
    return value && value->isNumber() ? value->asInt() : fallback;
}

} // namespace

std::string
reproducerJson(const SmithSample &sample, const SmithOracleConfig &config,
               const SmithDivergence &divergence)
{
    std::ostringstream os;
    os << "{\"version\":1,\"seed\":" << sample.seed;
    os << ",\"gen\":{\"max_bands\":" << sample.config.maxBands
       << ",\"max_depth\":" << sample.config.maxDepth
       << ",\"directives\":" << jsonBool(sample.config.allowDirectives)
       << ",\"dataflow_top\":" << jsonBool(sample.config.allowDataflowTop)
       << ",\"calls\":" << jsonBool(sample.config.allowCalls)
       << ",\"dead_allocs\":" << jsonBool(sample.config.allowDeadAllocs)
       << "}";
    os << ",\"oracle\":{\"points\":" << config.pointsPerSample
       << ",\"threads\":" << config.threads
       << ",\"audit\":" << jsonBool(config.audit)
       << ",\"corrupt_plan\":" << jsonBool(config.corruptPlan)
       << ",\"space\":{\"max_tile_size\":" << config.space.maxTileSize
       << ",\"max_total_unroll\":" << config.space.maxTotalUnroll
       << ",\"max_ii\":" << config.space.maxII << "}}";
    os << ",\"shape\":\"" << jsonEscape(sample.shape) << "\"";
    os << ",\"path\":\"" << jsonEscape(divergence.path) << "\"";
    os << ",\"detail\":\"" << jsonEscape(divergence.detail) << "\"";
    os << ",\"point\":[";
    for (size_t i = 0; i < divergence.point.size(); ++i)
        os << (i ? "," : "") << divergence.point[i];
    os << "]";
    os << ",\"source\":\"" << jsonEscape(sample.source) << "\"";
    os << ",\"printed\":\"" << jsonEscape(sample.printed) << "\"";
    os << "}";
    return os.str();
}

bool
replayReproducer(const std::string &json_text, std::string *report,
                 SmithOracleResult *result)
{
    std::ostringstream log;
    auto fail = [&](const std::string &why) {
        log << "replay error: " << why << "\n";
        if (report)
            *report = log.str();
        return false;
    };

    auto parsed = parseJson(json_text);
    if (!parsed || parsed->kind != JsonValue::Kind::Object)
        return fail("reproducer is not a JSON object");
    const JsonValue &root = *parsed;
    if (intField(root, "version", 0) != 1)
        return fail("unsupported reproducer version");
    const JsonValue *seed_value = root.get("seed");
    if (!seed_value || !seed_value->isNumber())
        return fail("missing seed");
    uint64_t seed = static_cast<uint64_t>(seed_value->asInt());

    SmithGenConfig gen;
    if (const JsonValue *g = root.get("gen")) {
        gen.maxBands = static_cast<int>(
            intField(*g, "max_bands", gen.maxBands));
        gen.maxDepth = static_cast<int>(
            intField(*g, "max_depth", gen.maxDepth));
        gen.allowDirectives =
            boolField(*g, "directives", gen.allowDirectives);
        gen.allowDataflowTop =
            boolField(*g, "dataflow_top", gen.allowDataflowTop);
        gen.allowCalls = boolField(*g, "calls", gen.allowCalls);
        gen.allowDeadAllocs =
            boolField(*g, "dead_allocs", gen.allowDeadAllocs);
    }
    SmithOracleConfig oracle;
    if (const JsonValue *o = root.get("oracle")) {
        oracle.pointsPerSample = static_cast<int>(
            intField(*o, "points", oracle.pointsPerSample));
        oracle.threads = static_cast<unsigned>(
            intField(*o, "threads", oracle.threads));
        oracle.audit = boolField(*o, "audit", oracle.audit);
        oracle.corruptPlan =
            boolField(*o, "corrupt_plan", oracle.corruptPlan);
        if (const JsonValue *s = o->get("space")) {
            oracle.space.maxTileSize =
                intField(*s, "max_tile_size", oracle.space.maxTileSize);
            oracle.space.maxTotalUnroll = intField(
                *s, "max_total_unroll", oracle.space.maxTotalUnroll);
            oracle.space.maxII = intField(*s, "max_ii", oracle.space.maxII);
        }
    }

    SmithSample sample = generateSmithSample(gen, seed);
    log << "replaying seed " << seed << " shape " << sample.shape << "\n";

    // Exactness gate: the regenerated module must print bit-identically
    // to the recorded one — otherwise the generator drifted and this
    // record no longer reproduces the original sample.
    if (const JsonValue *printed = root.get("printed")) {
        if (printed->isString() && printed->string != sample.printed)
            return fail("regenerated module differs from the recorded "
                        "one (generator drift; reproducer is stale)");
        log << "regenerated module matches the recorded print\n";
    }

    SmithOracleResult run = runSmithOracle(sample, oracle);
    log << run.points << " points, " << run.evaluations
        << " evaluations, " << run.divergences.size()
        << " divergence(s)\n";
    for (const auto &d : run.divergences)
        log << "  [" << d.path << "] " << d.detail << "\n";
    if (oracle.corruptPlan)
        log << "corruption applicable="
            << (run.corruptionApplicable ? "yes" : "no") << " caught="
            << (run.corruptionCaught ? "yes" : "no") << "\n";
    if (result)
        *result = std::move(run);
    if (report)
        *report = log.str();
    return true;
}

} // namespace scalehls
