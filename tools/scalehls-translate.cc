/**
 * @file
 * scalehls-translate: the emission back-end of the paper's tool trio.
 * Reads HLS C, optionally applies the default optimization pipeline, and
 * emits synthesizable HLS C++ (-emit-hlscpp).
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "api/scalehls.h"
#include "estimate/cache_io.h"
#include "support/utils.h"

using namespace scalehls;

int
main(int argc, char **argv)
{
    std::string input_path;
    std::string top;
    bool optimize = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-emit-hlscpp") {
            // Accepted for command-line compatibility (the default).
        } else if (arg.rfind("-top=", 0) == 0) {
            top = arg.substr(5);
        } else if (arg == "-optimize") {
            optimize = true;
        } else if (arg == "-h" || arg == "--help") {
            std::cerr << "usage: scalehls-translate [<input.c>|-] "
                         "[-emit-hlscpp] [-optimize] [-top=<name>]\n";
            return 0;
        } else if (arg == "-" || (!arg.empty() && arg[0] != '-')) {
            input_path = arg;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 1;
        }
    }

    try {
        std::string source;
        if (input_path.empty() || input_path == "-") {
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
        Compiler compiler = Compiler::fromC(source, top);
        if (optimize) {
            // Like scalehls-opt, the tool owns the estimate cache for the
            // whole run, so it alone persists the $SCALEHLS_CACHE_DIR
            // snapshot.
            ExploreRequest request;
            request.applyEnvDefaults();
            EstimateCache estimate_cache;
            request.dse.applyCacheBounds(estimate_cache);
            request.dse.sharedEstimates = &estimate_cache;
            if (!request.dse.cacheLoadPath.empty())
                loadEstimateCacheLogged(estimate_cache,
                                        request.dse.cacheLoadPath);
            bool feasible = compiler.optimize(request).has_value();
            if (!request.dse.cacheSavePath.empty())
                saveEstimateCacheLogged(estimate_cache,
                                        request.dse.cacheSavePath);
            if (!feasible) {
                std::cerr << "DSE found no feasible design\n";
                return 1;
            }
        }
        std::cout << compiler.emitCpp();
    } catch (const FatalError &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
