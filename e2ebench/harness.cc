/**
 * @file
 * End-to-end benchmark harness: runs one workload through the library's
 * public entry points and prints one JSON object with every raw sample
 * (per-pass setup/wall/CPU time, per-request latency, QoR, verification
 * flags, layer counters and, when tracing, every span). run.py generates
 * the inputs, checks the QoR against the pinned values and turns the
 * samples into metrics.
 *
 *   e2e_harness --workload model_dse|kernel_dse|serve_replay
 *               --inputs FILE --trace 0|1 --work DIR [--prime 1]
 *               [--delay-span NAME:MS]
 *
 * One invocation runs one pass, traced with --trace 1. run.py starts one
 * process per pass, so the peak RSS is per pass and every pass, traced or
 * not, starts from the same cold process state.
 * serve_replay first needs one --prime 1 invocation, which answers the
 * primed requests and writes the snapshot every pass loads into DIR.
 * Spans are opened
 * only by this file, around the calls into each library layer; span
 * names are "<module>.<step>", and spans named "job*" group a job.
 */

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "api/scalehls.h"
#include "api/serve.h"
#include "model/dnn_dse.h"
#include "model/polybench.h"
#include "support/json.h"
#include "support/thread_pool.h"
#include "trace.h"

using namespace scalehls;
using e2ebench::Span;
using e2ebench::Tracer;

namespace {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process user + system CPU seconds. */
double
cpuNow()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
           1e-6 * (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

std::string
num(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

std::string
num(int64_t value)
{
    return std::to_string(value);
}

std::string
num(size_t value)
{
    return std::to_string(value);
}

std::string
str(const std::string &text)
{
    return "\"" + jsonEscape(text) + "\"";
}

/** A flat JSON object built field by field. */
class Obj
{
  public:
    template <typename T>
    Obj &
    add(const std::string &key, const T &value)
    {
        return raw(key, num(value));
    }
    Obj &
    add(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }
    Obj &
    add(const std::string &key, const std::string &value)
    {
        return raw(key, str(value));
    }
    Obj &
    raw(const std::string &key, const std::string &json)
    {
        text_ += (text_.empty() ? "" : ",") + str(key) + ":" + json;
        return *this;
    }
    std::string json() const { return "{" + text_ + "}"; }

  private:
    std::string text_;
};

std::string
qorJson(const QoRResult &qor)
{
    return Obj()
        .add("latency", qor.latency)
        .add("interval", qor.interval)
        .add("dsp", qor.resources.dsp)
        .add("lut", qor.resources.lut)
        .add("bram18k", qor.resources.bram18k)
        .add("memory_bits", qor.resources.memoryBits)
        .add("feasible", qor.feasible)
        .json();
}

bool
sameQoR(const QoRResult &a, const QoRResult &b)
{
    return a.latency == b.latency && a.interval == b.interval &&
           a.feasible == b.feasible &&
           a.resources.dsp == b.resources.dsp &&
           a.resources.lut == b.resources.lut &&
           a.resources.bram18k == b.resources.bram18k &&
           a.resources.memoryBits == b.resources.memoryBits;
}

std::string
tierJson(const CacheStats &stats)
{
    return Obj()
        .add("hits", stats.hits)
        .add("lookups", stats.lookups())
        .add("entries", stats.entries)
        .json();
}

std::string
cacheJson(const EstimateCache &cache)
{
    return Obj()
        .raw("func", tierJson(cache.funcStats()))
        .raw("band", tierJson(cache.bandStats()))
        .raw("sched", tierJson(cache.scheduleStats()))
        .raw("plan", tierJson(cache.planStats()))
        .json();
}

/** Layer counters summed over the engines of one job. */
struct EngineCounters
{
    size_t evaluations = 0;
    size_t full = 0;
    size_t overlay = 0;
    size_t planComposed = 0;
    size_t planMismatches = 0;

    void
    add(const DSEEngine &engine)
    {
        evaluations += engine.numEvaluations();
        full += engine.numFullMaterializations();
        overlay += engine.numOverlayMaterializations();
        planComposed += engine.numPlanComposed();
        planMismatches += engine.numPlanMismatches();
    }

    std::string
    json() const
    {
        return Obj()
            .add("evaluations", evaluations)
            .add("full_materializations", full)
            .add("overlay_materializations", overlay)
            .add("plan_composed", planComposed)
            .add("plan_mismatches", planMismatches)
            .json();
    }
};

size_t
countOps(Operation *root)
{
    size_t count = 0;
    root->walk([&](Operation *) { ++count; });
    return count;
}

std::string
joinJson(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + items[i];
    return out + "]";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

const JsonValue &
member(const JsonValue &object, const std::string &key)
{
    const JsonValue *value = object.get(key);
    if (!value)
        throw std::runtime_error("inputs: missing \"" + key + "\"");
    return *value;
}

/** The spans recorded since the last call, as
 * [id, parent, name, start_ns, end_ns, thread] rows; also disables
 * tracing (the pass is over). */
std::string
takeSpans()
{
    Tracer::get().setEnabled(false);
    std::vector<std::string> items;
    for (const auto &s : Tracer::get().take())
        items.push_back("[" + num(s.id) + "," + num(s.parent) + "," +
                        str(s.name) + "," + num(s.startNs) + "," +
                        num(s.endNs) + "," + num(int64_t(s.thread)) + "]");
    return joinJson(items);
}

/** Set-up repetitions per pass for workloads whose set-up is cheap. */
constexpr int kSetupReps = 20;

/** Wall/CPU clock over one timed pass. */
struct PassClock
{
    double wall0 = wallNow();
    double cpu0 = cpuNow();

    void
    finish(Obj &pass) const
    {
        pass.add("wall_s", wallNow() - wall0)
            .add("cpu_s", cpuNow() - cpu0);
    }
};

// ---------------------------------------------------------------------------
// model_dse: resnet18 whole-model DSE, one job per DSE seed of the panel.
// ---------------------------------------------------------------------------

struct ModelInputs
{
    std::string model;
    int graphLevel = 4;
    std::string budget;
    unsigned threads = 0;
    unsigned samples = 0;
    unsigned iterations = 0;
    std::vector<unsigned> seeds;
};

ExploreRequest
modelRequest(const ModelInputs &in, unsigned seed)
{
    ExploreRequest request;
    request.budgetSpec = in.budget;
    request.model = in.model;
    request.graphLevel = in.graphLevel;
    request.dse.numThreads = in.threads;
    request.dse.numInitialSamples = in.samples;
    request.dse.maxIterations = in.iterations;
    request.dse.seed = seed;
    request.dse.cacheLoadPath.clear();
    request.dse.cacheSavePath.clear();
    if (auto error = request.validate())
        throw std::runtime_error("model request: " + *error);
    return request;
}

/** What every model_dse job reports, traced or not. */
struct ModelOutcome
{
    bool feasible = false;
    bool composedVerified = false;
    bool verified = false;
    size_t verifyErrors = 0;
    QoRResult measured;
    SynthesisReport synth;
    size_t evaluations = 0;
    size_t emitBytes = 0;
};

std::string
outcomeJson(const ModelOutcome &o, unsigned seed, double wall)
{
    return Obj()
        .add("dse_seed", static_cast<int64_t>(seed))
        .add("ms", 1e3 * wall)
        .add("feasible", o.feasible)
        .add("composed_verified", o.composedVerified)
        .add("verified", o.verified)
        .add("verify_errors", o.verifyErrors)
        .raw("measured", qorJson(o.measured))
        .add("synth_latency", o.synth.latency)
        .add("evaluations", o.evaluations)
        .add("emit_bytes", o.emitBytes)
        .json();
}

/** The untraced job: Compiler::optimizeModel, then verify, emit and
 * synthesize the stitched design. */
ModelOutcome
runModelJob(std::unique_ptr<Operation> owned, const ExploreRequest &request)
{
    ModelOutcome o;
    Compiler compiler(std::move(owned));
    auto result = compiler.optimizeModel(request);
    o.verifyErrors = verifyErrors(compiler.module()).size();
    o.emitBytes = compiler.emitCpp().size();
    o.synth = compiler.synthesize(request.budget);
    if (result) {
        o.feasible = result->allocation.feasible;
        o.composedVerified = result->composedVerified;
        o.verified = result->verified;
        o.measured = result->measured;
        o.evaluations = result->evaluations;
    }
    return o;
}

/** Split the worker budget like Compiler::optimizeModel does: outer
 * kernel-level workers, the rest per exploration. */
unsigned
splitThreads(DSEOptions &options, size_t num_kernels)
{
    unsigned total = options.numThreads == 0 ? defaultThreadCount()
                                             : options.numThreads;
    total = std::max(1u, total);
    unsigned outer = static_cast<unsigned>(
        std::min<size_t>(total, std::max<size_t>(1, num_kernels)));
    options.numThreads = std::max(1u, total / outer);
    return outer;
}

/** The kernel plus its callee closure as a standalone module (the
 * reduced clone Compiler::optimizeModel explores). */
std::unique_ptr<Operation>
reducedClone(Operation *module, Operation *kernel)
{
    std::set<Operation *> needed;
    std::vector<Operation *> worklist = {kernel};
    while (!worklist.empty()) {
        Operation *func = worklist.back();
        worklist.pop_back();
        if (!needed.insert(func).second)
            continue;
        for (Operation *callee : collectDistinctCallees(func, module))
            worklist.push_back(callee);
    }
    auto sub = createModule();
    Block &body = sub->region(0).front();
    for (auto &op : module->region(0).front().ops()) {
        if (!op->is(ops::Func) || !needed.count(op.get()))
            continue;
        Operation *copy = body.pushBack(op->clone());
        setTopFunc(copy, op.get() == kernel);
    }
    return sub;
}

struct KernelRun
{
    std::unique_ptr<Operation> sub;
    std::unique_ptr<DesignSpace> space;
    std::unique_ptr<DSEEngine> engine;
    std::vector<EvaluatedPoint> frontier;
    std::vector<FrontierPoint> retained;
};

/** The traced job: optimizeModel split into its public calls, one span
 * around each. Must reproduce optimizeModel's measured QoR bit-for-bit:
 * run.py checks both against the same pinned QoR. */
ModelOutcome
runModelJobTraced(std::unique_ptr<Operation> module,
                  const ExploreRequest &request, std::string *layer_json)
{
    const ResourceBudget &budget = request.budget;
    const DSEOptions &options = request.dse;
    ModelOutcome o;
    EngineCounters counters;
    size_t refinement_steps = 0;

    Span job("job");
    std::vector<DNNStage> stages;
    {
        Span s("dse.collect_stages");
        stages = collectDNNStages(module.get());
    }
    size_t n = stages.size();
    EstimateCache shared;
    options.applyCacheBounds(shared);
    DSEOptions inner = options;
    inner.sharedEstimates = &shared;
    unsigned total_threads = options.numThreads == 0
                                 ? defaultThreadCount()
                                 : options.numThreads;
    ThreadPool est_pool(std::max(1u, total_threads));

    std::vector<QoRResult> base(n);
    int64_t glue = 0;
    ResourceUsage fixed;
    {
        Span s("estimate.baseline");
        QoREstimator baseline(module.get(), &est_pool, &shared,
                              options.bandLevelCache,
                              options.partitionAwareBandKeys);
        QoRResult m0 = baseline.estimateModule();
        glue = m0.latency;
        fixed = m0.resources;
        for (size_t i = 0; i < n; ++i) {
            if (stages[i].callee)
                base[i] = baseline.estimateFunc(stages[i].callee);
            else
                base[i].feasible = false;
            if (!base[i].feasible) {
                base[i].latency = kInfeasibleQoR;
                base[i].interval = kInfeasibleQoR;
                continue;
            }
            glue -= base[i].latency + 1;
            fixed.dsp -= base[i].resources.dsp;
            fixed.lut -= base[i].resources.lut;
            fixed.bram18k -= base[i].resources.bram18k;
            fixed.memoryBits -= base[i].resources.memoryBits;
        }
        glue = std::max<int64_t>(0, glue);
    }

    constexpr size_t kNone = static_cast<size_t>(-1);
    std::vector<size_t> kernel_of_stage(n, kNone);
    std::vector<Operation *> kernel_funcs;
    std::vector<size_t> stage_of_kernel;
    for (size_t i = 0; i < n; ++i) {
        if (!stages[i].kernel)
            continue;
        kernel_of_stage[i] = kernel_funcs.size();
        kernel_funcs.push_back(stages[i].callee);
        stage_of_kernel.push_back(i);
    }
    std::vector<KernelRun> runs(kernel_funcs.size());
    unsigned outer = 1;
    if (!kernel_funcs.empty()) {
        Span phase("dse.explore_kernels");
        DSEOptions per_kernel = inner;
        outer = splitThreads(per_kernel, kernel_funcs.size());
        ThreadPool pool(outer);
        int64_t parent = phase.id();
        pool.parallelFor(kernel_funcs.size(), [&](size_t k) {
            Span kernel("job.kernel", parent);
            KernelRun &run = runs[k];
            {
                Span s("ir.clone");
                run.sub = reducedClone(module.get(), kernel_funcs[k]);
            }
            {
                Span s("dse.design_space");
                run.space = std::make_unique<DesignSpace>(run.sub.get(),
                                                          request.space);
            }
            run.engine = std::make_unique<DSEEngine>(*run.space,
                                                     per_kernel);
            run.engine->setFinalizeBudget(budget);
            {
                Span s("dse.explore");
                run.frontier = run.engine->explore();
            }
            {
                Span s("dse.retain");
                run.retained = retainFrontier(*run.space, run.frontier);
            }
        });
    }
    for (auto &run : runs)
        counters.add(*run.engine);

    std::vector<StageFrontier> frontiers(n);
    for (size_t i = 0; i < n; ++i) {
        StageFrontier &frontier = frontiers[i];
        frontier.name =
            stages[i].callee ? funcName(stages[i].callee) : std::string();
        auto push = [&](const QoRResult &qor) {
            StageCandidate c;
            c.feasible = qor.feasible;
            c.latency = qor.feasible ? addQoRSaturating(qor.latency, 1)
                                     : kInfeasibleQoR;
            c.resources = qor.resources;
            frontier.candidates.push_back(c);
        };
        size_t k = kernel_of_stage[i];
        if (k != kNone && !runs[k].retained.empty()) {
            for (const FrontierPoint &fp : runs[k].retained)
                push(fp.qor);
        } else {
            kernel_of_stage[i] = kNone;
            push(base[i]);
        }
    }

    GlobalAllocation allocation;
    {
        Span s("dse.global_alloc");
        allocation = allocateGlobalBudget(frontiers, budget, fixed);
        allocateUniformSplit(frontiers, budget, fixed);
    }
    refinement_steps = allocation.refinementSteps;
    o.feasible = allocation.feasible;
    o.evaluations = counters.evaluations;
    bool stage_qor_ok = true;
    if (allocation.feasible) {
        QoRResult composed;
        {
            Span s("dse.compose");
            composed = composeDataflowQoR(frontiers, allocation.choice,
                                          glue, fixed);
        }
        {
            Span s("dse.materialize_winner");
            Block &body = module->region(0).front();
            for (size_t k = 0; k < kernel_funcs.size(); ++k) {
                size_t i = stage_of_kernel[k];
                if (kernel_of_stage[i] == kNone)
                    continue;
                KernelRun &run = runs[k];
                auto optimized = run.engine->materializeEvaluated(
                    run.frontier[allocation.choice[i]]);
                stage_qor_ok &= run.engine->qorVerified();
                Operation *new_func =
                    optimized ? getTopFunc(optimized.get()) : nullptr;
                if (!new_func) {
                    stage_qor_ok = false;
                    continue;
                }
                auto taken = optimized->region(0).front().take(new_func);
                setTopFunc(taken.get(), false);
                body.insertBefore(stages[i].callee, std::move(taken));
                body.erase(stages[i].callee);
            }
        }
        std::vector<VerifyError> errors;
        {
            Span s("ir.verify");
            errors = verifyErrors(module.get());
        }
        {
            Span s("estimate.remeasure");
            QoREstimator measure(module.get(), &est_pool, &shared,
                                 options.bandLevelCache,
                                 options.partitionAwareBandKeys);
            o.measured = measure.estimateModule();
        }
        o.composedVerified = sameQoR(o.measured, composed);
        o.verified = errors.empty() && stage_qor_ok;
        o.verifyErrors = errors.size();
    }
    {
        Span s("emit.hlscpp");
        o.emitBytes = emitHlsCpp(module.get()).size();
    }
    {
        Span s("vhls.synth");
        o.synth = VirtualSynthesizer(module.get(), budget).synthesize();
    }
    *layer_json = Obj()
                      .raw("counters", counters.json())
                      .raw("cache", cacheJson(shared))
                      .add("refinement_steps", refinement_steps)
                      .add("outer_workers", static_cast<int64_t>(outer))
                      .add("ops_final", countOps(module.get()))
                      .json();
    return o;
}

std::string
modelPass(const ModelInputs &in, bool traced)
{
    Tracer::get().setEnabled(traced);
    std::vector<std::string> jobs, setups;
    double setup_total = 0;
    double wall0 = wallNow(), cpu0 = cpuNow();
    for (unsigned seed : in.seeds) {
        ExploreRequest request = modelRequest(in, seed);
        double t0 = wallNow();
        std::unique_ptr<Operation> module;
        {
            Span s("model.lower");
            module = buildLoweredDNN(in.model, in.graphLevel);
        }
        double t1 = wallNow();
        setup_total += t1 - t0;
        setups.push_back(num(t1 - t0));
        std::string layers;
        ModelOutcome o =
            traced ? runModelJobTraced(std::move(module), request, &layers)
                   : runModelJob(std::move(module), request);
        std::string job = outcomeJson(o, seed, wallNow() - t1);
        if (traced)
            job.insert(job.size() - 1, ",\"layers\":" + layers);
        jobs.push_back(job);
    }
    double wall = wallNow() - wall0 - setup_total;
    double cpu = cpuNow() - cpu0;
    return Obj()
        .add("traced", traced)
        .add("wall_s", wall)
        .add("cpu_s", cpu)
        .raw("setup_s", joinJson(setups))
        .raw("jobs", joinJson(jobs))
        .raw("spans", takeSpans())
        .json();
}

// ---------------------------------------------------------------------------
// kernel_dse: PolyBench kernels from C, one sequential exploration each.
// ---------------------------------------------------------------------------

struct KernelSpec
{
    std::string name;
    int64_t size = 0;
    unsigned seed = 0;
};

struct KernelInputs
{
    std::string budget;
    unsigned samples = 0;
    unsigned iterations = 0;
    std::vector<KernelSpec> kernels;
};

std::string
kernelJob(const KernelSpec &spec, const std::string &source,
          const ExploreRequest &request)
{
    Span job("job.kernel");
    double t0 = wallNow();
    std::unique_ptr<Operation> module;
    {
        Span s("frontend.parse");
        module = parseCToModule(source);
    }
    {
        Span s("transform.raise");
        raiseScfToAffine(module.get());
    }
    std::unique_ptr<DesignSpace> space;
    {
        Span s("dse.design_space");
        space = std::make_unique<DesignSpace>(module.get(), request.space);
    }
    EstimateCache cache;
    DSEOptions options = request.dse;
    options.sharedEstimates = &cache;
    DSEEngine engine(*space, options);
    engine.setFinalizeBudget(request.budget);
    std::vector<EvaluatedPoint> frontier;
    {
        Span s("dse.explore");
        frontier = engine.explore();
    }
    std::optional<EvaluatedPoint> chosen;
    {
        Span s("dse.finalize");
        chosen = DSEEngine::finalize(frontier, request.budget);
    }
    Obj out;
    out.add("kernel", spec.name)
        .add("size", spec.size)
        .add("dse_seed", static_cast<int64_t>(spec.seed));
    std::unique_ptr<Operation> winner;
    if (chosen) {
        Span s("dse.materialize_winner");
        winner = engine.materializeEvaluated(*chosen);
    }
    bool verified = false;
    if (winner) {
        QoRResult qor =
            engine.qorVerified() ? chosen->qor : engine.verifiedQoR();
        size_t errors = 0;
        {
            Span s("ir.verify");
            errors = verifyErrors(winner.get()).size();
        }
        size_t bytes = 0;
        {
            Span s("emit.hlscpp");
            bytes = emitHlsCpp(winner.get()).size();
        }
        SynthesisReport synth;
        {
            Span s("vhls.synth");
            synth =
                VirtualSynthesizer(winner.get(), request.budget).synthesize();
        }
        verified = errors == 0 && engine.qorVerified();
        out.raw("qor", qorJson(qor))
            .add("synth_latency", synth.latency)
            .add("emit_bytes", bytes)
            .add("ops_final", countOps(winner.get()));
    }
    EngineCounters counters;
    counters.add(engine);
    out.add("verified", verified)
        .add("ms", 1e3 * (wallNow() - t0))
        .raw("counters", counters.json())
        .raw("cache", cacheJson(cache));
    return out.json();
}

std::string
kernelPass(const KernelInputs &in, bool traced)
{
    Tracer::get().setEnabled(traced);
    // Set-up: generate the C sources and decode the requests, repeated
    // so the reported set-up time is a median.
    std::vector<std::string> setups;
    std::vector<std::string> sources;
    std::vector<ExploreRequest> requests;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        double t0 = wallNow();
        sources.clear();
        requests.clear();
        for (const KernelSpec &spec : in.kernels) {
            sources.push_back(polybenchSource(spec.name, spec.size));
            ExploreRequest request;
            request.budgetSpec = in.budget;
            request.dse.numThreads = 1;
            request.dse.numInitialSamples = in.samples;
            request.dse.maxIterations = in.iterations;
            request.dse.seed = spec.seed;
            request.dse.cacheLoadPath.clear();
            request.dse.cacheSavePath.clear();
            if (auto error = request.validate())
                throw std::runtime_error("kernel request: " + *error);
            requests.push_back(std::move(request));
        }
        setups.push_back(num(wallNow() - t0));
    }
    PassClock clock;
    std::vector<std::string> jobs;
    {
        Span root("job");
        for (size_t i = 0; i < in.kernels.size(); ++i)
            jobs.push_back(kernelJob(in.kernels[i], sources[i], requests[i]));
    }
    Obj pass;
    pass.add("traced", traced).raw("setup_s", joinJson(setups));
    clock.finish(pass);
    return pass.raw("jobs", joinJson(jobs)).raw("spans", takeSpans()).json();
}

// ---------------------------------------------------------------------------
// serve_replay: a request script replayed by closed-loop clients against a
// session warmed from a snapshot.
// ---------------------------------------------------------------------------

struct ServeRequest
{
    size_t index = 0; ///< Position in the whole script.
    std::string line;
    std::string span; ///< "api.handle.<kind>".
};

struct ServeInputs
{
    unsigned threads = 1;
    std::vector<std::string> prime;
    std::vector<std::vector<ServeRequest>> clients;
};

std::string
handleSpanName(const std::string &line)
{
    auto parsed = parseJson(line);
    const JsonValue *kind = parsed ? parsed->get("kind") : nullptr;
    return "api.handle." +
           (kind && kind->isString() ? kind->string : std::string("other"));
}

ServeOptions
serveOptions(const ServeInputs &in, const std::string &load)
{
    ServeOptions options;
    options.cacheLoadPath = load;
    options.cacheSavePath.clear();
    options.defaultThreads = in.threads;
    return options;
}

/** The untimed priming pass: answer the primed requests once and save
 * the warm cache as the replay's snapshot. */
std::string
primeSnapshot(const ServeInputs &in, const std::string &path)
{
    ServeSession session(serveOptions(in, ""));
    std::vector<std::string> responses;
    for (const std::string &line : in.prime)
        responses.push_back(session.handleLine(line));
    if (!session.saveSnapshot(path))
        throw std::runtime_error("cannot write snapshot " + path);
    return Obj()
        .add("snapshot_bytes", readFile(path).size())
        .raw("responses", joinJson(responses))
        .json();
}

std::string
servePass(const ServeInputs &in, const std::string &snapshot, bool traced)
{
    Tracer::get().setEnabled(traced);
    // Set-up: session construction plus snapshot load, repeated so the
    // reported set-up time is a median; the last session serves.
    std::vector<std::string> setups;
    std::unique_ptr<ServeSession> session;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        session.reset();
        double t0 = wallNow();
        Span s("estimate.snapshot_load");
        session = std::make_unique<ServeSession>(serveOptions(in, snapshot));
        setups.push_back(num(wallNow() - t0));
    }

    struct Reply
    {
        size_t index = 0;
        double ms = 0;
        std::string response;
    };
    std::vector<std::vector<Reply>> replies(in.clients.size());
    PassClock clock;
    {
        Span root("job");
        int64_t parent = root.id();
        std::vector<std::thread> threads;
        for (size_t c = 0; c < in.clients.size(); ++c) {
            threads.emplace_back([&, c] {
                for (const ServeRequest &request : in.clients[c]) {
                    Span s(request.span, parent);
                    double r0 = wallNow();
                    std::string response = session->handleLine(request.line);
                    replies[c].push_back(
                        {request.index, 1e3 * (wallNow() - r0), response});
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    Obj pass;
    pass.add("traced", traced).raw("setup_s", joinJson(setups));
    clock.finish(pass);
    std::string spans = takeSpans();
    std::vector<std::string> items;
    for (const auto &client : replies)
        for (const Reply &r : client)
            items.push_back(Obj()
                                .add("index", r.index)
                                .add("ms", r.ms)
                                .raw("response", r.response)
                                .json());
    return pass.raw("cache", cacheJson(session->cache()))
        .raw("requests", joinJson(items))
        .raw("spans", spans)
        .json();
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_harness --workload W --inputs FILE"
                 " --trace 0|1 --work DIR [--prime 1]"
                 " [--delay-span NAME:MS]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, inputs_path, work = ".";
    bool trace = false, prime = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--inputs")
            inputs_path = value;
        else if (flag == "--prime")
            prime = value == "1";
        else if (flag == "--trace")
            trace = value == "1";
        else if (flag == "--work")
            work = value;
        else if (flag == "--delay-span") {
            auto colon = value.rfind(':');
            if (colon == std::string::npos)
                return usage();
            Tracer::get().setDelay(value.substr(0, colon),
                                   std::atoi(value.c_str() + colon + 1));
        } else
            return usage();
    }
    auto parsed = parseJson(readFile(inputs_path));
    if (workload.empty() || !parsed)
        return usage();
    const JsonValue &in = *parsed;

    try {
        std::function<std::string(bool)> pass;
        ModelInputs model;
        KernelInputs kernels;
        ServeInputs serve;
        std::string snapshot = work + "/serve_replay.shlsnap";
        if (workload == "model_dse") {
            model.model = member(in, "model").string;
            model.graphLevel = member(in, "graph_level").asInt();
            model.budget = member(in, "budget").string;
            model.threads = member(in, "threads").asInt();
            model.samples = member(in, "samples").asInt();
            model.iterations = member(in, "iterations").asInt();
            for (const JsonValue &seed : member(in, "dse_seeds").array)
                model.seeds.push_back(seed.asInt());
            pass = [&](bool traced) { return modelPass(model, traced); };
        } else if (workload == "kernel_dse") {
            kernels.budget = member(in, "budget").string;
            kernels.samples = member(in, "samples").asInt();
            kernels.iterations = member(in, "iterations").asInt();
            for (const JsonValue &k : member(in, "kernels").array)
                kernels.kernels.push_back(
                    {member(k, "kernel").string, member(k, "size").asInt(),
                     static_cast<unsigned>(member(k, "seed").asInt())});
            pass = [&](bool traced) { return kernelPass(kernels, traced); };
        } else if (workload == "serve_replay") {
            serve.threads = member(in, "threads").asInt();
            for (const JsonValue &line : member(in, "prime").array)
                serve.prime.push_back(line.string);
            for (const JsonValue &client : member(in, "clients").array) {
                serve.clients.emplace_back();
                for (const JsonValue &item : client.array) {
                    const std::string &line = item.array.at(1).string;
                    serve.clients.back().push_back(
                        {static_cast<size_t>(item.array.at(0).asInt()), line,
                         handleSpanName(line)});
                }
            }
            if (prime) {
                std::cout << primeSnapshot(serve, snapshot) << "\n";
                return 0;
            }
            pass = [&](bool traced) {
                return servePass(serve, snapshot, traced);
            };
        } else {
            return usage();
        }

        std::string result = pass(trace);

        rusage self{};
        getrusage(RUSAGE_SELF, &self);
        Obj out;
        out.add("workload", workload)
            .add("peak_rss_mb", self.ru_maxrss / 1024.0)
            .raw("pass", result);
        std::cout << out.json() << "\n";
    } catch (const std::exception &error) {
        std::fprintf(stderr, "e2e_harness: %s\n", error.what());
        return 1;
    }
    return 0;
}
