#include "api/explore_request.h"

#include <limits>

#include "dse/evaluator.h"
#include "estimate/cache_io.h"
#include "support/json.h"

namespace scalehls {

namespace {

/** The zoo models every model-selecting front end accepts. */
bool
isZooModel(const std::string &model)
{
    return model == "resnet18" || model == "vgg16" ||
           model == "mobilenet";
}

/** Shared "-name=<n>" / "key": <n> unsigned decoding. The diagnostic is
 * the one every front end prints, so it names the surface field. */
std::optional<unsigned>
decodeUnsigned(const std::string &value)
{
    // std::stoul alone would wrap "-1" to ULONG_MAX; require digits.
    bool all_digits = !value.empty();
    for (char c : value)
        all_digits &= c >= '0' && c <= '9';
    if (!all_digits)
        return std::nullopt;
    try {
        unsigned long parsed = std::stoul(value);
        if (parsed <= std::numeric_limits<unsigned>::max())
            return static_cast<unsigned>(parsed);
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

std::string
unsignedDiagnostic(const std::string &name, const std::string &value)
{
    return name + " expects an unsigned integer, got '" + value + "'";
}

} // namespace

ExploreRequest &
ExploreRequest::applyEnvDefaults()
{
    // $SCALEHLS_CACHE_DIR -> the owning tool's snapshot paths ("" when
    // unset); the one place the process environment reaches them. Call
    // this BEFORE applying explicit overrides (flags, JSON): it rewrites
    // the defaults, not user choices made afterwards.
    dse.cacheLoadPath = defaultCacheSnapshotPath();
    dse.cacheSavePath = defaultCacheSnapshotPath();
    // $SCALEHLS_DSE_AUDIT -> L3/L4 auditors on every plan-first decision.
    dse.auditMode = EvaluatorOptions::dseAuditEnvDefault();
    return *this;
}

std::optional<std::string>
ExploreRequest::validate()
{
    auto parsed_budget = parseResourceBudget(budgetSpec);
    if (!parsed_budget)
        return "budget must be xc7z020, vu9p-slr or dsp:lut:bram18k, "
               "got '" +
               budgetSpec + "'";
    budget = *parsed_budget;

    if (!model.empty() && !isZooModel(model))
        return "model must be resnet18, vgg16 or mobilenet, got '" +
               model + "'";

    if (graphLevel < 1 || graphLevel > 7)
        return "graph level must be in 1..7, got " +
               std::to_string(graphLevel);

    if (!cacheCapSpec.empty()) {
        auto caps = parseEstimateCacheCaps(cacheCapSpec);
        if (!caps)
            return "cache cap must be <n> or func:band:sched:plan, "
                   "got '" +
                   cacheCapSpec + "'";
        dse.estimateCacheTierCaps = *caps;
    }

    if (dse.batchSize == 0)
        return "batch size must be positive";
    if (dse.numInitialSamples == 0)
        return "initial samples must be positive";
    if (space.maxTileSize <= 0)
        return "max tile size must be positive";
    if (space.maxII <= 0)
        return "max II must be positive";
    return std::nullopt;
}

bool
parseExploreFlag(ExploreRequest &request, const std::string &arg,
                 std::string *error)
{
    auto pos = arg.find('=');
    std::string name = arg.substr(0, pos);
    std::string value =
        pos == std::string::npos ? std::string() : arg.substr(pos + 1);

    auto set_unsigned = [&](unsigned &field) {
        auto parsed = decodeUnsigned(value);
        if (!parsed) {
            if (error)
                *error = unsignedDiagnostic(name, value);
            return;
        }
        field = *parsed;
    };
    auto set_bool = [&](bool &field) {
        auto parsed = decodeUnsigned(value);
        if (!parsed) {
            if (error)
                *error = unsignedDiagnostic(name, value);
            return;
        }
        field = *parsed != 0;
    };

    if (name == "-dse-budget") {
        request.budgetSpec = value;
    } else if (name == "-dse-model") {
        request.model = value;
    } else if (name == "-dse-graph-level") {
        auto parsed = decodeUnsigned(value);
        if (!parsed) {
            if (error)
                *error = unsignedDiagnostic(name, value);
            return true;
        }
        request.graphLevel = static_cast<int>(*parsed);
    } else if (name == "-dse-threads") {
        set_unsigned(request.dse.numThreads);
    } else if (name == "-dse-batch") {
        set_unsigned(request.dse.batchSize);
    } else if (name == "-dse-seed") {
        set_unsigned(request.dse.seed);
    } else if (name == "-dse-samples") {
        set_unsigned(request.dse.numInitialSamples);
    } else if (name == "-dse-iterations") {
        set_unsigned(request.dse.maxIterations);
    } else if (name == "-dse-band-cache") {
        set_bool(request.dse.bandLevelCache);
    } else if (name == "-dse-partition-keys") {
        set_bool(request.dse.partitionAwareBandKeys);
    } else if (name == "-dse-cache-cap") {
        request.cacheCapSpec = value;
    } else if (name == "-cache-load" || name == "--cache-load") {
        request.dse.cacheLoadPath = value;
    } else if (name == "-cache-save" || name == "--cache-save") {
        request.dse.cacheSavePath = value;
    } else if (name == "-dse-audit") {
        // Bare "-dse-audit" arms the auditors; "=<0|1>" sets explicitly.
        if (value.empty())
            request.dse.auditMode = true;
        else
            set_bool(request.dse.auditMode);
    } else {
        return false;
    }
    return true;
}

std::string
exploreRequestFromJson(ExploreRequest &request, const JsonValue &object)
{
    std::string error;
    auto str = [&](const char *key, std::string &field) {
        const JsonValue *value = object.get(key);
        if (!value)
            return;
        if (!value->isString()) {
            if (error.empty())
                error = std::string(key) + " must be a string";
            return;
        }
        field = value->string;
    };
    auto count = [&](const char *key, unsigned &field) {
        const JsonValue *value = object.get(key);
        if (!value)
            return;
        if (!value->isNumber() || value->number < 0 ||
            value->asInt() >
                static_cast<int64_t>(
                    std::numeric_limits<unsigned>::max())) {
            if (error.empty())
                error = unsignedDiagnostic(
                    key, value->isNumber()
                             ? std::to_string(value->asInt())
                             : value->string);
            return;
        }
        field = static_cast<unsigned>(value->asInt());
    };
    auto flag = [&](const char *key, bool &field) {
        const JsonValue *value = object.get(key);
        if (!value)
            return;
        if (value->kind == JsonValue::Kind::Bool) {
            field = value->boolean;
            return;
        }
        if (!value->isNumber()) {
            if (error.empty())
                error = unsignedDiagnostic(key, value->string);
            return;
        }
        field = value->asInt() != 0;
    };

    str("budget", request.budgetSpec);
    str("model", request.model);
    if (const JsonValue *level = object.get("graph_level")) {
        if (!level->isNumber())
            return "graph_level must be a number";
        request.graphLevel = static_cast<int>(level->asInt());
    }
    count("threads", request.dse.numThreads);
    count("seed", request.dse.seed);
    count("samples", request.dse.numInitialSamples);
    count("iterations", request.dse.maxIterations);
    count("batch", request.dse.batchSize);
    flag("band_cache", request.dse.bandLevelCache);
    flag("partition_keys", request.dse.partitionAwareBandKeys);
    flag("audit", request.dse.auditMode);
    str("cache_cap", request.cacheCapSpec);
    return error;
}

std::optional<DSEResult>
runDSE(Operation *module, const ExploreRequest &request)
{
    return runDSE(module, request.budget, request.space, request.dse);
}

const char *
exploreFlagUsage()
{
    return "  -dse-budget=<xc7z020|vu9p-slr|dsp:lut:bram18k>\n"
           "                 device budget for every DSE mode (default\n"
           "                 xc7z020; custom triple in BRAM18K blocks)\n"
           "  -dse-model=<resnet18|vgg16|mobilenet>  zoo model for\n"
           "                 whole-model DSE\n"
           "  -dse-graph-level=<1..7>  graph granularity for -dse-model\n"
           "                 (default 4)\n"
           "  -dse-threads=<n>  QoR evaluation workers (default: all\n"
           "                    cores; results independent of <n>)\n"
           "  -dse-batch=<n>    points proposed per DSE round (part of\n"
           "                    the deterministic trajectory; default 8)\n"
           "  -dse-seed=<n>     DSE random seed\n"
           "  -dse-samples=<n>  step-1 random samples (default 120)\n"
           "  -dse-iterations=<n>  step-4 proposal budget (default 400)\n"
           "  -dse-band-cache=<0|1>  band-level estimate-cache tier\n"
           "                    (default 1)\n"
           "  -dse-partition-keys=<0|1>  partition-aware band keys\n"
           "                    (default 1)\n"
           "  -dse-cache-cap=<n|f:b:s:p>  max entries per estimate-\n"
           "                    cache tier (LRU eviction; default 0 =\n"
           "                    unbounded)\n"
           "  -cache-load=<path>  estimate-cache snapshot the tool loads\n"
           "                    once at start (corrupt files = cold\n"
           "                    start)\n"
           "  -cache-save=<path>  snapshot the tool saves once at exit;\n"
           "                    both default to $SCALEHLS_CACHE_DIR/\n"
           "                    estimate_cache.shlsnap when set\n"
           "  -dse-audit[=<0|1>]  audit every DSE plan-first decision\n"
           "                    (L3/L4); findings exit nonzero.\n"
           "                    SCALEHLS_DSE_AUDIT sets the default\n";
}

} // namespace scalehls
