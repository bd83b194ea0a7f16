/**
 * @file
 * scalehls-opt: the command-line optimization driver of the paper's tool
 * trio (scalehls-clang | scalehls-opt | scalehls-translate). Reads HLS C
 * from a file or stdin, applies the requested passes in order and prints
 * the resulting IR (or a QoR report).
 *
 * Examples (the paper's Fig. 5 pipeline):
 *   scalehls-opt syrk.c -affine-loop-perfectization \
 *       -remove-variable-bound -affine-loop-order-opt \
 *       -affine-loop-tile=1,2,1 -loop-pipelining \
 *       -canonicalize -simplify-affine-if -affine-store-forward \
 *       -simplify-memref-access -array-partition -cse
 *   scalehls-opt gemm.c -dse -estimate
 */

#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>

#include "api/explore_request.h"
#include "api/scalehls.h"
#include "estimate/cache_io.h"
#include "model/dnn_dse.h"
#include "model/polybench.h"
#include "support/utils.h"

using namespace scalehls;

namespace {

void
usage()
{
    std::cerr
        << "usage: scalehls-opt [<input.c>|-] [passes...] [options]\n"
           "passes (applied in order):\n"
           "  -affine-loop-perfectization  -remove-variable-bound\n"
           "  -affine-loop-order-opt       -affine-loop-tile=<t0,t1,...>\n"
           "  -affine-loop-unroll=<f>      -affine-loop-merge\n"
           "  -loop-pipelining[=<II>]      -func-pipelining[=<II>]\n"
           "  -array-partition             -func-inline\n"
           "  -simplify-affine-if          -affine-store-forward\n"
           "  -simplify-memref-access      -canonicalize  -cse\n"
           "  -dse                         (automated DSE)\n"
           "  -dse-funcs                   (DSE every kernel function,\n"
           "                                explored concurrently)\n"
           "  -dse-model=<resnet18|vgg16|mobilenet>\n"
           "                               (whole-model graph-level DSE:\n"
           "                                lower the zoo model, explore\n"
           "                                every dataflow stage, compose\n"
           "                                one design under the global\n"
           "                                device budget; no C input)\n"
           "options:\n"
           "  -top=<name>    top function   -estimate   QoR report\n"
           "  -pass-timing   timing report  -emit-hlscpp  emit C++\n"
           "  -verify-each      verify the IR after every pass (always\n"
           "                    on in debug builds; SCALEHLS_VERIFY_EACH\n"
           "                    overrides either way)\n"
        << exploreFlagUsage();
}

/** Strict int64 parse: an optional sign then digits, in range. */
std::optional<int64_t>
parseInt(const std::string &text)
{
    size_t sign = !text.empty() && (text[0] == '-' || text[0] == '+');
    if (text.size() == sign ||
        text.find_first_not_of("0123456789", sign) != std::string::npos)
        return std::nullopt;
    try {
        return std::stoll(text);
    } catch (const std::out_of_range &) {
        return std::nullopt;
    }
}

std::optional<std::vector<int64_t>>
parseIntList(const std::string &text)
{
    std::vector<int64_t> values;
    std::istringstream is(text);
    std::string token;
    while (std::getline(is, token, ',')) {
        auto value = parseInt(token);
        if (!value)
            return std::nullopt;
        values.push_back(*value);
    }
    return values;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }

    // Split args into input, options and the pass pipeline. Everything
    // DSE-shaped funnels into the one unified ExploreRequest, decoded by
    // the same parser scalehls-serve and scalehls-smith use.
    std::string input_path;
    std::string top;
    bool estimate = false;
    bool timing = false;
    bool emit_cpp = false;
    bool run_dse = false;
    bool run_dse_funcs = false;
    ExploreRequest request;
    request.applyEnvDefaults();
    PassManager pm;

    auto value_of = [](const std::string &arg) {
        auto pos = arg.find('=');
        return pos == std::string::npos ? std::string()
                                        : arg.substr(pos + 1);
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value = value_of(arg);
        std::string name = arg.substr(0, arg.find('='));
        auto bad_int = [&] {
            std::cerr << name << " expects an integer, got '" << value
                      << "'\n";
            return 1;
        };
        if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        }
        std::string explore_error;
        if (parseExploreFlag(request, arg, &explore_error)) {
            if (!explore_error.empty()) {
                std::cerr << explore_error << "\n";
                return 1;
            }
            continue;
        }
        if (name == "-top") {
            top = value;
        } else if (arg == "-estimate") {
            estimate = true;
        } else if (arg == "-pass-timing") {
            timing = true;
        } else if (arg == "-emit-hlscpp") {
            emit_cpp = true;
        } else if (arg == "-dse") {
            run_dse = true;
        } else if (arg == "-dse-funcs") {
            run_dse_funcs = true;
        } else if (arg == "-verify-each") {
            pm.setVerifyEach(true);
        } else if (name == "-affine-loop-perfectization") {
            pm.addPass(createLoopPerfectizationPass());
        } else if (name == "-remove-variable-bound") {
            pm.addPass(createRemoveVariableBoundPass());
        } else if (name == "-affine-loop-order-opt") {
            pm.addPass(createLoopOrderOptPass());
        } else if (name == "-affine-loop-tile") {
            auto sizes = parseIntList(value);
            if (!sizes)
                return bad_int();
            pm.addPass(createLoopTilePass(*sizes));
        } else if (name == "-affine-loop-unroll") {
            auto factor = value.empty() ? 2 : parseInt(value);
            if (!factor)
                return bad_int();
            pm.addPass(createLoopUnrollPass(*factor));
        } else if (name == "-affine-loop-merge") {
            pm.addPass(createLoopMergePass());
        } else if (name == "-loop-pipelining") {
            auto ii = value.empty() ? 1 : parseInt(value);
            if (!ii)
                return bad_int();
            pm.addPass(createLoopPipeliningPass(*ii));
        } else if (name == "-func-pipelining") {
            auto ii = value.empty() ? 1 : parseInt(value);
            if (!ii)
                return bad_int();
            pm.addPass(createFuncPipeliningPass(*ii));
        } else if (name == "-array-partition") {
            pm.addPass(createArrayPartitionPass());
        } else if (name == "-func-inline") {
            pm.addPass(createFuncInlinePass());
        } else if (name == "-simplify-affine-if") {
            pm.addPass(createSimplifyAffineIfPass());
        } else if (name == "-affine-store-forward") {
            pm.addPass(createAffineStoreForwardPass());
        } else if (name == "-simplify-memref-access") {
            pm.addPass(createSimplifyMemrefAccessPass());
        } else if (name == "-canonicalize") {
            pm.addPass(createCanonicalizePass());
        } else if (name == "-cse") {
            pm.addPass(createCSEPass());
        } else if (arg == "-" || (!arg.empty() && arg[0] != '-')) {
            input_path = arg;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage();
            return 1;
        }
    }

    if (auto invalid = request.validate()) {
        std::cerr << *invalid << "\n";
        return 1;
    }

    try {
        if ((run_dse && run_dse_funcs) ||
            (!request.model.empty() && (run_dse || run_dse_funcs))) {
            std::cerr << "-dse, -dse-funcs and -dse-model are mutually "
                         "exclusive\n";
            return 1;
        }

        // -dse-model builds its own module from the zoo; every other
        // mode parses HLS C from the input.
        std::string source;
        std::unique_ptr<Operation> model_module;
        if (!request.model.empty()) {
            model_module =
                buildLoweredDNN(request.model, request.graphLevel);
            if (!model_module) {
                std::cerr << "-dse-model expects resnet18, vgg16 or "
                             "mobilenet, got '"
                          << request.model << "'\n";
                return 1;
            }
        } else if (input_path.empty() || input_path == "-") {
            std::ostringstream buffer;
            buffer << std::cin.rdbuf();
            source = buffer.str();
        } else {
            std::ifstream file(input_path);
            if (!file) {
                std::cerr << "cannot open " << input_path << "\n";
                return 1;
            }
            std::ostringstream buffer;
            buffer << file.rdbuf();
            source = buffer.str();
        }

        Compiler compiler = request.model.empty()
                                ? Compiler::fromC(source, top)
                                : Compiler(std::move(model_module));
        pm.run(compiler.module());

        // The tool owns the estimate cache for the whole run: its hit
        // rate is reportable for every DSE mode, and snapshot
        // persistence happens here — the library never does file I/O.
        EstimateCache estimate_cache;
        request.dse.applyCacheBounds(estimate_cache);
        if (run_dse || run_dse_funcs || !request.model.empty())
            request.dse.sharedEstimates = &estimate_cache;
        if (request.dse.sharedEstimates &&
            !request.dse.cacheLoadPath.empty())
            loadEstimateCacheLogged(estimate_cache,
                                    request.dse.cacheLoadPath);
        // Saved once, when this scope exits — the infeasible and failed
        // exits included: whatever was explored warms the next run.
        struct SaveOnExit
        {
            const EstimateCache &cache;
            std::string path;
            ~SaveOnExit()
            {
                if (!path.empty())
                    saveEstimateCacheLogged(cache, path);
            }
        } save_on_exit{estimate_cache, request.dse.sharedEstimates
                                           ? request.dse.cacheSavePath
                                           : std::string()};
        auto report_tier = [](const char *name, const CacheStats &tier) {
            std::cerr << name << " " << tier.hits << " hits / "
                      << tier.lookups() << " lookups ("
                      << static_cast<int>(tier.hitRate() * 100) << "%), "
                      << tier.entries << " entries";
            if (tier.evictions != 0)
                std::cerr << ", " << tier.evictions << " evicted";
        };
        auto report_cache = [&] {
            if (!request.dse.sharedEstimates)
                return;
            std::cerr << "estimate cache: ";
            report_tier("func tier", estimate_cache.funcStats());
            if (request.dse.bandLevelCache) {
                CacheStats band_tier = estimate_cache.bandStats();
                std::cerr << "; ";
                report_tier("band tier", band_tier);
                if (request.dse.partitionAwareBandKeys)
                    std::cerr << " (" << band_tier.maskedHits
                              << " partition-masked)";
                std::cerr << "; ";
                report_tier("schedule tier",
                            estimate_cache.scheduleStats());
            }
            CacheStats plan_tier = estimate_cache.planStats();
            if (plan_tier.entries != 0 || plan_tier.lookups() != 0) {
                std::cerr << "; ";
                report_tier("plan tier", plan_tier);
            }
            std::cerr << "\n";
        };

        DSEStats dse_stats; // Summed over -dse and -dse-funcs.
        if (run_dse) {
            auto result = compiler.optimize(request);
            if (!result) {
                std::cerr << "DSE found no feasible design\n";
                return 1;
            }
            std::cerr << "DSE stats: ";
            result->stats.print(std::cerr);
            std::cerr << "\nfinalized module QoR "
                      << (result->qorVerified ? "verified" : "MISMATCH")
                      << "\n";
            dse_stats += result->stats;
            report_cache();
        }
        if (run_dse_funcs) {
            auto results = compiler.optimizeFunctions(request);
            bool any_feasible = false;
            for (const auto &r : results) {
                std::cerr << "DSE " << r.func << ": ";
                if (r.qor.feasible) {
                    std::cerr << "latency=" << r.qor.latency
                              << " DSP=" << r.qor.resources.dsp << " ("
                              << r.stats.evaluations << " evaluations)\n";
                    any_feasible = true;
                } else {
                    std::cerr << "no feasible design\n";
                }
                dse_stats += r.stats;
            }
            report_cache();
            if (!any_feasible) {
                std::cerr << "DSE found no feasible design for any "
                             "kernel function\n";
                return 1;
            }
        }
        if (!request.model.empty()) {
            auto result = compiler.optimizeModel(request);
            if (!result) {
                std::cerr << "whole-model DSE: no dataflow top with "
                             "stages to optimize\n";
                return 1;
            }
            for (const auto &stage : result->stages) {
                std::cerr << "stage " << stage.func << ": ";
                if (stage.kernel) {
                    std::cerr << stage.frontier.size()
                              << " frontier points, ";
                    if (stage.chosen < stage.frontier.size())
                        std::cerr << "chose #" << stage.chosen << ", ";
                    else
                        std::cerr << "no design chosen, ";
                } else
                    std::cerr << "fixed baseline, ";
                std::cerr << "latency=" << stage.qor.latency
                          << " DSP=" << stage.qor.resources.dsp << "\n";
            }
            if (!result->allocation.feasible) {
                std::cerr << "whole-model DSE: no composition fits "
                          << request.budget.name << "\n";
                return 1;
            }
            std::cerr << "allocation: bottleneck="
                      << result->allocation.bottleneck << " ("
                      << result->allocation.refinementSteps
                      << " refinement steps, "
                      << result->allocation.exchanges
                      << " exchanges); uniform-split bottleneck="
                      << (result->uniform.feasible
                              ? std::to_string(
                                    result->uniform.bottleneck)
                              : std::string("infeasible"))
                      << "\n";
            std::cerr << "composed QoR: latency="
                      << result->measured.latency
                      << " interval=" << result->measured.interval
                      << " DSP=" << result->measured.resources.dsp
                      << " LUT=" << result->measured.resources.lut
                      << " BRAM18K="
                      << result->measured.resources.bram18k
                      << " (prediction "
                      << (result->composedVerified ? "verified"
                                                   : "MISMATCH")
                      << ", module "
                      << (result->verified ? "verified" : "INVALID")
                      << ", " << result->evaluations
                      << " evaluations)\n";
            report_cache();
            if (!result->verified)
                return 1;
        }
        if (request.dse.auditMode && (run_dse || run_dse_funcs)) {
            std::cerr << "dse-audit: " << dse_stats.auditChecks
                      << " checks, " << dse_stats.auditViolations
                      << " violations\n";
            if (dse_stats.auditViolations != 0)
                return 1;
        }
        auto errors = verify(compiler.module());
        for (const auto &error : errors)
            std::cerr << "verifier: " << error << "\n";
        if (!errors.empty())
            return 1;

        if (timing)
            std::cerr << pm.timingReport();
        if (estimate) {
            QoRResult qor = compiler.estimate();
            std::cerr << "QoR: latency=" << qor.latency
                      << " interval=" << qor.interval
                      << " DSP=" << qor.resources.dsp
                      << " LUT=" << qor.resources.lut
                      << " BRAM18K=" << qor.resources.bram18k << "\n";
        }
        std::cout << (emit_cpp ? compiler.emitCpp() : compiler.printIR());
    } catch (const FatalError &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
